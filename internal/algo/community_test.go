package algo

import (
	"testing"

	"ringo/internal/graph"
)

// twoCliques builds two k-cliques bridged by a single edge.
func twoCliques(k int) *graph.Undirected {
	g := graph.NewUndirected()
	for i := 0; i < k; i++ {
		for j := i + 1; j < k; j++ {
			g.AddEdge(int64(i), int64(j))
			g.AddEdge(int64(100+i), int64(100+j))
		}
	}
	g.AddEdge(0, 100)
	return g
}

func TestLabelPropagationSeparatesCliques(t *testing.T) {
	g := twoCliques(6)
	// Label propagation is seed-sensitive by design; this seed separates
	// the cliques under the view's canonical (ascending-id) dense order.
	comm := LabelPropagationView(graph.BuildUView(g), 20, 8)
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
	a := LabelPropagationView(graph.BuildUView(g), 10, 3)
	b := LabelPropagationView(graph.BuildUView(g), 10, 3)
	for id, c := range a {
		if b[id] != c {
			t.Fatal("label propagation not deterministic for fixed seed")
		}
	}
}

func TestLabelPropagationLabelsDense(t *testing.T) {
	g := twoCliques(4)
	comm := LabelPropagationView(graph.BuildUView(g), 10, 1)
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
	split := map[int64]int{}
	g.ForNodes(func(id int64) {
		if id < 100 {
			split[id] = 0
		} else {
			split[id] = 1
		}
	})
	mono := map[int64]int{}
	g.ForNodes(func(id int64) { mono[id] = 0 })
	qs := Modularity(g, split)
	qm := Modularity(g, mono)
	if !approxEq(qm, 0, 1e-12) {
		t.Fatalf("monolithic modularity = %v, want 0", qm)
	}
	if qs <= 0.3 {
		t.Fatalf("split modularity = %v, want > 0.3", qs)
	}
	if Modularity(graph.NewUndirected(), nil) != 0 {
		t.Fatal("empty graph modularity nonzero")
	}
}

func TestRandomWalkProperties(t *testing.T) {
	g := cycleGraph(10)
	walk := RandomWalk(g, 0, 25, 99)
	if len(walk) != 26 || walk[0] != 0 {
		t.Fatalf("walk len=%d start=%d", len(walk), walk[0])
	}
	// Every step follows an edge.
	for i := 1; i < len(walk); i++ {
		if !g.HasEdge(walk[i-1], walk[i]) {
			t.Fatalf("step %d: %d->%d is not an edge", i, walk[i-1], walk[i])
		}
	}
	// Deterministic for a fixed seed.
	walk2 := RandomWalk(g, 0, 25, 99)
	for i := range walk {
		if walk[i] != walk2[i] {
			t.Fatal("walk not deterministic")
		}
	}
	// Walk stops at a sink.
	sink := pathGraph(3)
	w := RandomWalk(sink, 0, 10, 1)
	if len(w) != 3 {
		t.Fatalf("sink walk length = %d, want 3", len(w))
	}
	if RandomWalk(g, 999, 5, 1) != nil {
		t.Fatal("walk from missing node returned non-nil")
	}
}
