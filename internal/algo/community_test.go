package algo

import (
	"math"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// twoCliques builds two k-cliques bridged by a single edge.
func twoCliques(k int) *graph.UView {
	edges := [][2]int64{{0, 100}}
	for _, e := range clique(k) {
		edges = append(edges, e, [2]int64{100 + e[0], 100 + e[1]})
	}
	return undirected(edges)
}

func TestLabelPropagationSeparatesCliques(t *testing.T) {
	g := twoCliques(6)
	// Label propagation is seed-sensitive by design; this seed separates
	// the cliques under the view's canonical (ascending-id) dense order.
	comm := LabelPropagationView(g, 20, 8)
	// All members of each clique share a label.
	for i := int64(1); i < 6; i++ {
		if comm[i] != comm[0] {
			t.Fatalf("clique A split: comm[%d]=%d comm[0]=%d", i, comm[i], comm[0])
		}
		if comm[100+i] != comm[100] {
			t.Fatalf("clique B split")
		}
	}
	if comm[0] == comm[100] {
		t.Fatal("cliques merged into one community")
	}
}

func TestLabelPropagationDeterministic(t *testing.T) {
	g := twoCliques(5)
	a := LabelPropagationView(g, 10, 3)
	b := LabelPropagationView(g, 10, 3)
	for id, c := range a {
		if b[id] != c {
			t.Fatal("label propagation not deterministic for fixed seed")
		}
	}
}

func TestLabelPropagationLabelsDense(t *testing.T) {
	g := twoCliques(4)
	comm := LabelPropagationView(g, 10, 1)
	seen := map[int]bool{}
	for _, c := range comm {
		seen[c] = true
	}
	for i := 0; i < len(seen); i++ {
		if !seen[i] {
			t.Fatalf("label %d missing from dense labeling", i)
		}
	}
}

func TestModularityPerfectSplitBeatsMonolith(t *testing.T) {
	g := twoCliques(6)
	split, mono := map[int64]int{}, map[int64]int{}
	for _, id := range g.IDs() {
		split[id] = int(id / 100)
		mono[id] = 0
	}
	v := g
	qs := ModularityView(v, split)
	qm := ModularityView(v, mono)
	if !approxEq(qm, 0, 1e-12) {
		t.Fatalf("monolithic modularity = %v, want 0", qm)
	}
	if qs <= 0.3 {
		t.Fatalf("split modularity = %v, want > 0.3", qs)
	}
	if ModularityView(undirected(nil), nil) != 0 {
		t.Fatal("empty graph modularity nonzero")
	}
}

// TestModularityMissingNodeIsSingleton holds ModularityView to its
// contract on two points: a node missing from the assignment scores exactly
// as if it were given a community of its own (its self-loop counts as
// inside it), and repeated calls return the same bits.
func TestModularityMissingNodeIsSingleton(t *testing.T) {
	v := undirected([][2]int64{{0, 1}, {1, 2}, {0, 2}, {3, 3}})
	missing := ModularityView(v, map[int64]int{0: 0, 1: 0, 2: 0})
	explicit := ModularityView(v, map[int64]int{0: 0, 1: 0, 2: 0, 3: 1})
	if math.Float64bits(missing) != math.Float64bits(explicit) {
		t.Fatalf("node 3 missing: Q = %v, as explicit singleton: Q = %v", missing, explicit)
	}

	bv := gen.BarabasiAlbert(400, 3, 1)
	comm := LabelPropagationView(bv, 20, 1)
	for id := range comm {
		if id%7 == 0 {
			delete(comm, id) // leave some nodes to the singleton rule
		}
	}
	want := math.Float64bits(ModularityView(bv, comm))
	for i := 0; i < 50; i++ {
		if got := math.Float64bits(ModularityView(bv, comm)); got != want {
			t.Fatalf("call %d: Q bits %x, first call %x", i, got, want)
		}
	}
}
