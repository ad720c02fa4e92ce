package algo

import (
	"slices"
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

// coreNumbers is coreNumbersFlat keyed by node id.
func coreNumbers(v *graph.UView) map[int64]int {
	core := coreNumbersFlat(v)
	out := make(map[int64]int, len(core))
	for u, id := range v.IDs() {
		out[id] = int(core[u])
	}
	return out
}

func TestCoreNumbersKnown(t *testing.T) {
	// K4 plus a tail 3-4-5: clique nodes have core 3 (node 3 included),
	// tail nodes 4,5 have core 1.
	g := completeUndirected(4)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	cores := coreNumbers(uviewOf(g))
	for _, id := range []int64{0, 1, 2, 3} {
		if cores[id] != 3 {
			t.Fatalf("core[%d] = %d, want 3", id, cores[id])
		}
	}
	if cores[4] != 1 || cores[5] != 1 {
		t.Fatalf("tail cores = %d,%d", cores[4], cores[5])
	}
}

func TestCoreNumbersStar(t *testing.T) {
	g := graph.NewUndirectedCap(0)
	for i := int64(1); i <= 5; i++ {
		g.AddEdge(0, i)
	}
	cores := coreNumbers(uviewOf(g))
	for id, c := range cores {
		if c != 1 {
			t.Fatalf("star core[%d] = %d, want 1", id, c)
		}
	}
}

func TestKCoreSubgraph(t *testing.T) {
	g := completeUndirected(4)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	v := uviewOf(g)
	core3 := KCore(v, 3)
	if core3.NumNodes() != 4 {
		t.Fatalf("3-core nodes = %d, want 4", core3.NumNodes())
	}
	if core3.NumEdges() != 6 {
		t.Fatalf("3-core edges = %d, want 6", core3.NumEdges())
	}
	if core3.HasNode(4) || core3.HasNode(5) {
		t.Fatal("tail nodes leaked into 3-core")
	}
	// Min-degree property: every node in the k-core has degree >= k there.
	for u, id := range core3.IDs() {
		if core3.Deg(int32(u)) < 3 {
			t.Fatalf("node %d has degree %d in 3-core", id, core3.Deg(int32(u)))
		}
	}
	// 5-core of K4 is empty.
	if KCore(v, 5).NumNodes() != 0 {
		t.Fatal("5-core of K4+tail should be empty")
	}
	// Input view unmodified.
	if !sameSubgraph(v, g) {
		t.Fatal("KCore mutated input")
	}
}

// TestKCoreDirected: the k-core of a directed graph is KCore of its
// undirected projection, matching SNAP's KCore on directed edge lists.
func TestKCoreDirected(t *testing.T) {
	d := graph.NewDirected()
	// Directed K4 (one direction per pair) has undirected 3-core = all.
	for i := int64(0); i < 4; i++ {
		for j := i + 1; j < 4; j++ {
			d.AddEdge(i, j)
		}
	}
	d.AddEdge(3, 9)
	core := KCore(graph.ProjectUView(graph.BuildView(d)), 3)
	if core.NumNodes() != 4 || core.HasNode(9) {
		t.Fatalf("directed 3-core nodes = %d", core.NumNodes())
	}
}

// kcorePerEdge is KCore as one AddEdge per kept edge, the reference the
// filtered arrays are held to.
func kcorePerEdge(g *graph.Undirected, k int) *graph.Undirected {
	cores := coreNumbers(uviewOf(g))
	sub := graph.NewUndirectedCap(0)
	keep := func(id int64) bool { return cores[id] >= k }
	g.ForNodes(func(id int64) {
		if keep(id) {
			sub.AddNode(id)
		}
	})
	g.ForEdges(func(src, dst int64) {
		if keep(src) && keep(dst) {
			sub.AddEdge(src, dst)
		}
	})
	return sub
}

// sameSubgraph reports whether the view a holds exactly the model graph b:
// the same ids, offsets and neighbor arena as b's own view.
func sameSubgraph(a *graph.UView, b *graph.Undirected) bool {
	ids, off, arena := a.UViewParts()
	wids, woff, warena := uviewOf(b).UViewParts()
	return slices.Equal(ids, wids) && slices.Equal(off, woff) && slices.Equal(arena, warena) &&
		a.NumEdges() == b.NumEdges()
}

// Property: the k-core is the maximal subgraph with min degree >= k; its
// nodes are exactly those with core number >= k; and it equals the
// per-edge build, self-loops, isolated nodes and k = 0 included.
func TestKCoreMatchesPeelingProperty(t *testing.T) {
	f := func(edges [][2]int8, isolated []uint8, kk uint8) bool {
		k := int(kk % 5)
		g := graph.NewUndirectedCap(0)
		for _, id := range isolated {
			g.AddNode(int64(id % 30))
		}
		for _, e := range edges {
			a, b := int64(e[0]%20), int64(e[1]%20)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		looped := g.Clone()
		for _, e := range edges {
			if e[0]%7 == 0 {
				looped.AddEdge(int64(e[1]%20), int64(e[1]%20))
			}
		}
		if !sameSubgraph(KCore(uviewOf(looped), k), kcorePerEdge(looped, k)) {
			return false
		}
		cores := coreNumbers(uviewOf(g))
		sub := KCore(uviewOf(g), k)
		if !sameSubgraph(sub, kcorePerEdge(g, k)) {
			return false
		}
		// Every kept node has core >= k and degree >= k in the subgraph.
		for u, id := range sub.IDs() {
			if cores[id] < k || sub.Deg(int32(u)) < k {
				return false
			}
		}
		// Every node with core >= k is kept.
		for id, c := range cores {
			if c >= k && !sub.HasNode(id) {
				return false
			}
		}
		// Reference peeling: repeatedly remove nodes with degree < k.
		ref := g.Clone()
		for {
			removed := false
			for _, id := range ref.Nodes() {
				if ref.Deg(id) < k {
					ref.DelNode(id)
					removed = true
				}
			}
			if !removed {
				break
			}
		}
		if ref.NumNodes() != sub.NumNodes() || ref.NumEdges() != sub.NumEdges() {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKCore is the 3-core subgraph of the facade's GetKCore at the
// update-query workload's graph size: R-MAT 2^15 with 200 000 edges,
// projected.
func BenchmarkKCore(b *testing.B) {
	u := graph.ProjectUView(graph.BuildView(rmatGraph(15, 200000, 1)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := KCore(u, 3); sub.NumNodes() == 0 {
			b.Fatal("empty 3-core")
		}
	}
}
