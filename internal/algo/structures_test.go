package algo

import (
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

func TestArticulationPointsBarbell(t *testing.T) {
	// Two triangles joined through node 2: {0,1,2} and {2,3,4}. Node 2 is
	// the only cut vertex.
	g := graph.NewUndirectedCap(0)
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}} {
		g.AddEdge(e[0], e[1])
	}
	cuts := ArticulationPointsView(graph.BuildUView(g))
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("articulation points = %v, want [2]", cuts)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	// On a path 0-1-2-3, the interior nodes are cut vertices.
	g := graph.NewUndirectedCap(0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	cuts := ArticulationPointsView(graph.BuildUView(g))
	if len(cuts) != 2 || cuts[0] != 1 || cuts[1] != 2 {
		t.Fatalf("path cut vertices = %v", cuts)
	}
}

func TestArticulationPointsCycleHasNone(t *testing.T) {
	g := graph.NewUndirectedCap(0)
	for i := int64(0); i < 6; i++ {
		g.AddEdge(i, (i+1)%6)
	}
	if cuts := ArticulationPointsView(graph.BuildUView(g)); len(cuts) != 0 {
		t.Fatalf("cycle cut vertices = %v", cuts)
	}
}

func TestBridgesKnown(t *testing.T) {
	// Triangle {0,1,2} with a pendant edge 2-3: only 2-3 is a bridge.
	g := graph.NewUndirectedCap(0)
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}} {
		g.AddEdge(e[0], e[1])
	}
	br := BridgesView(graph.BuildUView(g))
	if len(br) != 1 || br[0] != [2]int64{2, 3} {
		t.Fatalf("bridges = %v", br)
	}
	// Every edge of a tree is a bridge.
	tree := graph.NewUndirectedCap(0)
	tree.AddEdge(0, 1)
	tree.AddEdge(1, 2)
	tree.AddEdge(1, 3)
	if br := BridgesView(graph.BuildUView(tree)); len(br) != 3 {
		t.Fatalf("tree bridges = %v", br)
	}
	// A cycle has none.
	cyc := graph.NewUndirectedCap(0)
	for i := int64(0); i < 5; i++ {
		cyc.AddEdge(i, (i+1)%5)
	}
	if br := BridgesView(graph.BuildUView(cyc)); len(br) != 0 {
		t.Fatalf("cycle bridges = %v", br)
	}
}

// Reference check: an edge {u,v} is a bridge iff deleting it disconnects u
// from v.
func TestBridgesMatchReferenceProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := graph.NewUndirectedCap(0)
		for _, e := range edges {
			a, b := int64(e[0]%10), int64(e[1]%10)
			if a != b {
				g.AddEdge(a, b)
			}
		}
		got := map[[2]int64]bool{}
		for _, b := range BridgesView(graph.BuildUView(g)) {
			got[b] = true
		}
		ok := true
		g.ForEdges(func(u, v int64) {
			work := g.Clone()
			delUEdge(work, u, v)
			reachable := false
			// BFS from u looking for v.
			seen := map[int64]bool{u: true}
			queue := []int64{u}
			for len(queue) > 0 && !reachable {
				x := queue[0]
				queue = queue[1:]
				for _, nbr := range work.Neighbors(x) {
					if nbr == v {
						reachable = true
						break
					}
					if !seen[nbr] {
						seen[nbr] = true
						queue = append(queue, nbr)
					}
				}
			}
			key := [2]int64{u, v}
			if u > v {
				key = [2]int64{v, u}
			}
			if got[key] == reachable {
				ok = false // bridge iff NOT reachable after deletion
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSort(t *testing.T) {
	g := graph.NewDirected()
	for _, e := range [][2]int64{{5, 11}, {7, 11}, {7, 8}, {3, 8}, {3, 10}, {11, 2}, {11, 9}, {11, 10}, {8, 9}} {
		g.AddEdge(e[0], e[1])
	}
	order, err := TopoSortView(graph.BuildView(g))
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int64]int{}
	for i, id := range order {
		pos[id] = i
	}
	g.ForEdges(func(src, dst int64) {
		if pos[src] >= pos[dst] {
			t.Fatalf("edge %d->%d violates order %v", src, dst, order)
		}
	})
	if !IsDAG(g) {
		t.Fatal("DAG not recognized")
	}
	g.AddEdge(9, 5) // creates a cycle 5->11->9->5
	if _, err := TopoSortView(graph.BuildView(g)); err == nil {
		t.Fatal("cycle not detected")
	}
	if IsDAG(g) {
		t.Fatal("cyclic graph reported as DAG")
	}
}

func TestBipartition(t *testing.T) {
	// Even cycle is bipartite.
	even := graph.NewUndirectedCap(0)
	for i := int64(0); i < 6; i++ {
		even.AddEdge(i, (i+1)%6)
	}
	side, ok := BipartitionView(graph.BuildUView(even))
	if !ok {
		t.Fatal("even cycle not bipartite")
	}
	even.ForEdges(func(u, v int64) {
		if side[u] == side[v] {
			t.Fatalf("monochromatic edge %d-%d", u, v)
		}
	})
	// Odd cycle is not.
	odd := graph.NewUndirectedCap(0)
	for i := int64(0); i < 5; i++ {
		odd.AddEdge(i, (i+1)%5)
	}
	if _, ok := BipartitionView(graph.BuildUView(odd)); ok {
		t.Fatal("odd cycle reported bipartite")
	}
	// Self-loop is not.
	loop := graph.NewUndirectedCap(0)
	loop.AddEdge(1, 1)
	if _, ok := BipartitionView(graph.BuildUView(loop)); ok {
		t.Fatal("self-loop reported bipartite")
	}
	// Disconnected bipartite graph.
	two := graph.NewUndirectedCap(0)
	two.AddEdge(1, 2)
	two.AddEdge(10, 11)
	if _, ok := BipartitionView(graph.BuildUView(two)); !ok {
		t.Fatal("disconnected bipartite rejected")
	}
}

func TestMinimumSpanningForest(t *testing.T) {
	// Square with a diagonal: MST picks the three cheapest edges.
	g := graph.NewUndirectedCap(0)
	weights := map[[2]int64]float64{
		{1, 2}: 1, {2, 3}: 2, {3, 4}: 3, {1, 4}: 4, {1, 3}: 5,
	}
	for e := range weights {
		g.AddEdge(e[0], e[1])
	}
	w := func(u, v int64) float64 {
		if u > v {
			u, v = v, u
		}
		return weights[[2]int64{u, v}]
	}
	edges, total := MinimumSpanningForest(g, w)
	if len(edges) != 3 {
		t.Fatalf("MST edges = %v", edges)
	}
	if total != 1+2+3 {
		t.Fatalf("MST total = %v, want 6", total)
	}
	// Forest on a disconnected graph spans each component.
	g.AddEdge(100, 101)
	edges, _ = MinimumSpanningForest(g, func(u, v int64) float64 { return 1 })
	if len(edges) != 4 { // 3 for the square component + 1 for the pair
		t.Fatalf("forest edges = %d, want 4", len(edges))
	}
}

func TestMotifCounts(t *testing.T) {
	// Directed 3-cycle: one cyclic triangle, no transitive.
	cyc := graph.NewDirected()
	cyc.AddEdge(1, 2)
	cyc.AddEdge(2, 3)
	cyc.AddEdge(3, 1)
	mc := CountMotifsView(graph.BuildView(cyc))
	if mc.CyclicTriangles != 1 || mc.TransTriangles != 0 {
		t.Fatalf("cycle motifs = %+v", mc)
	}

	// Transitive triangle: a->b, b->c, a->c.
	tr := graph.NewDirected()
	tr.AddEdge(1, 2)
	tr.AddEdge(2, 3)
	tr.AddEdge(1, 3)
	mc = CountMotifsView(graph.BuildView(tr))
	if mc.TransTriangles != 1 || mc.CyclicTriangles != 0 {
		t.Fatalf("transitive motifs = %+v", mc)
	}

	// A path has one wedge and no triangles.
	p := graph.NewDirected()
	p.AddEdge(1, 2)
	p.AddEdge(2, 3)
	mc = CountMotifsView(graph.BuildView(p))
	if mc.Wedges != 1 || mc.CyclicTriangles+mc.TransTriangles != 0 {
		t.Fatalf("path motifs = %+v", mc)
	}

	// Fully reciprocal triangle: both cyclic orientations.
	full := graph.NewDirected()
	for _, e := range [][2]int64{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {1, 3}, {3, 1}} {
		full.AddEdge(e[0], e[1])
	}
	mc = CountMotifsView(graph.BuildView(full))
	if mc.CyclicTriangles != 2 {
		t.Fatalf("reciprocal triangle cycles = %+v", mc)
	}
}
