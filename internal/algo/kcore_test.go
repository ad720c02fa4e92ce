package algo

import (
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

func TestCoreNumbersKnown(t *testing.T) {
	// K4 plus a tail 3-4-5: clique nodes have core 3 (node 3 included),
	// tail nodes 4,5 have core 1.
	g := completeUndirected(4)
	g.AddEdge(3, 4)
	g.AddEdge(4, 5)
	cores := CoreNumbersView(graph.BuildUView(g))
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
	g := graph.NewUndirected()
	for i := int64(1); i <= 5; i++ {
		g.AddEdge(0, i)
	}
	cores := CoreNumbersView(graph.BuildUView(g))
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
	core3 := KCore(g, 3)
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
	core3.ForNodes(func(id int64) {
		if core3.Deg(id) < 3 {
			t.Fatalf("node %d has degree %d in 3-core", id, core3.Deg(id))
		}
	})
	// 5-core of K4 is empty.
	if KCore(g, 5).NumNodes() != 0 {
		t.Fatal("5-core of K4+tail should be empty")
	}
	// Original graph unmodified.
	if g.NumNodes() != 6 {
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
	core := KCore(graph.AsUndirected(d), 3)
	if core.NumNodes() != 4 || core.HasNode(9) {
		t.Fatalf("directed 3-core nodes = %d", core.NumNodes())
	}
}

// Property: the k-core is the maximal subgraph with min degree >= k; its
// nodes are exactly those with core number >= k.
func TestKCoreMatchesPeelingProperty(t *testing.T) {
	f := func(edges [][2]int8, kk uint8) bool {
		k := int(kk%4) + 1
		g := graph.NewUndirected()
		for _, e := range edges {
			a, b := int64(e[0]%20), int64(e[1]%20)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		cores := CoreNumbersView(graph.BuildUView(g))
		sub := KCore(g, k)
		// Every kept node has core >= k and degree >= k in the subgraph.
		ok := true
		sub.ForNodes(func(id int64) {
			if cores[id] < k || sub.Deg(id) < k {
				ok = false
			}
		})
		if !ok {
			return false
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
