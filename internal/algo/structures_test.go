package algo

import (
	"slices"
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// ring is the undirected cycle on ids 0..n-1.
func ring(n int) *graph.UView { return graph.ProjectUView(gen.Ring(n)) }

func TestArticulationPointsBarbell(t *testing.T) {
	// Two triangles joined through node 2: {0,1,2} and {2,3,4}. Node 2 is
	// the only cut vertex.
	g := undirected([][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}})
	cuts := ArticulationPointsView(g)
	if len(cuts) != 1 || cuts[0] != 2 {
		t.Fatalf("articulation points = %v, want [2]", cuts)
	}
}

func TestArticulationPointsPath(t *testing.T) {
	// On a path 0-1-2-3, the interior nodes are cut vertices.
	cuts := ArticulationPointsView(undirected([][2]int64{{0, 1}, {1, 2}, {2, 3}}))
	if len(cuts) != 2 || cuts[0] != 1 || cuts[1] != 2 {
		t.Fatalf("path cut vertices = %v", cuts)
	}
}

func TestArticulationPointsCycleHasNone(t *testing.T) {
	if cuts := ArticulationPointsView(ring(6)); len(cuts) != 0 {
		t.Fatalf("cycle cut vertices = %v", cuts)
	}
}

func TestBridgesKnown(t *testing.T) {
	// Triangle {0,1,2} with a pendant edge 2-3: only 2-3 is a bridge.
	br := BridgesView(undirected([][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}}))
	if len(br) != 1 || br[0] != [2]int64{2, 3} {
		t.Fatalf("bridges = %v", br)
	}
	// Every edge of a tree is a bridge.
	if br := BridgesView(undirected([][2]int64{{0, 1}, {1, 2}, {1, 3}})); len(br) != 3 {
		t.Fatalf("tree bridges = %v", br)
	}
	// A cycle has none.
	if br := BridgesView(ring(5)); len(br) != 0 {
		t.Fatalf("cycle bridges = %v", br)
	}
}

// Reference check: an edge {u,v} is a bridge iff deleting it disconnects u
// from v.
func TestBridgesMatchReferenceProperty(t *testing.T) {
	f := func(raw [][2]int8) bool {
		var edges [][2]int64
		for _, e := range raw {
			a, b := int64(e[0]%10), int64(e[1]%10)
			if a != b && !slices.Contains(edges, [2]int64{a, b}) && !slices.Contains(edges, [2]int64{b, a}) {
				edges = append(edges, [2]int64{a, b})
			}
		}
		got := map[[2]int64]bool{}
		for _, b := range BridgesView(undirected(edges)) {
			got[b] = true
		}
		for i, e := range edges {
			u, v := e[0], e[1]
			work := undirected(slices.Delete(slices.Clone(edges), i, i+1), u, v)
			// BFS from u looking for v.
			from, _ := work.Index(u)
			to, _ := work.Index(v)
			seen := map[int32]bool{from: true}
			queue := []int32{from}
			for len(queue) > 0 {
				x := queue[0]
				queue = queue[1:]
				for _, nbr := range work.Adj(x) {
					if !seen[nbr] {
						seen[nbr] = true
						queue = append(queue, nbr)
					}
				}
			}
			if got[[2]int64{min(u, v), max(u, v)}] == seen[to] {
				return false // bridge iff NOT reachable after deletion
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoSort(t *testing.T) {
	edges := [][2]int64{{5, 11}, {7, 11}, {7, 8}, {3, 8}, {3, 10}, {11, 2}, {11, 9}, {11, 10}, {8, 9}}
	order, err := TopoSortView(directed(edges))
	if err != nil {
		t.Fatal(err)
	}
	pos := map[int64]int{}
	for i, id := range order {
		pos[id] = i
	}
	for _, e := range edges {
		if pos[e[0]] >= pos[e[1]] {
			t.Fatalf("edge %d->%d violates order %v", e[0], e[1], order)
		}
	}
	// 9->5 closes the cycle 5->11->9->5.
	if _, err := TopoSortView(directed(append(edges, [2]int64{9, 5}))); err == nil {
		t.Fatal("cycle not detected")
	}
}

func TestBipartition(t *testing.T) {
	// Even cycle is bipartite.
	side, ok := BipartitionView(ring(6))
	if !ok {
		t.Fatal("even cycle not bipartite")
	}
	for u := int64(0); u < 6; u++ {
		if side[u] == side[(u+1)%6] {
			t.Fatalf("monochromatic edge %d-%d", u, (u+1)%6)
		}
	}
	// Odd cycle is not.
	if _, ok := BipartitionView(ring(5)); ok {
		t.Fatal("odd cycle reported bipartite")
	}
	// Self-loop is not.
	if _, ok := BipartitionView(undirected([][2]int64{{1, 1}})); ok {
		t.Fatal("self-loop reported bipartite")
	}
	// Disconnected bipartite graph.
	if _, ok := BipartitionView(undirected([][2]int64{{1, 2}, {10, 11}})); !ok {
		t.Fatal("disconnected bipartite rejected")
	}
}

func TestMinimumSpanningForest(t *testing.T) {
	// Square with a diagonal: MST picks the three cheapest edges.
	square := [][2]int64{{1, 2}, {2, 3}, {3, 4}, {1, 4}, {1, 3}}
	weights := map[[2]int64]float64{
		{1, 2}: 1, {2, 3}: 2, {3, 4}: 3, {1, 4}: 4, {1, 3}: 5,
	}
	w := func(u, v int64) float64 {
		if u > v {
			u, v = v, u
		}
		return weights[[2]int64{u, v}]
	}
	edges, total := MinimumSpanningForest(undirected(square), w)
	if len(edges) != 3 {
		t.Fatalf("MST edges = %v", edges)
	}
	if total != 1+2+3 {
		t.Fatalf("MST total = %v, want 6", total)
	}
	// Forest on a disconnected graph spans each component.
	edges, _ = MinimumSpanningForest(undirected(append(square, [2]int64{100, 101})), func(u, v int64) float64 { return 1 })
	if len(edges) != 4 { // 3 for the square component + 1 for the pair
		t.Fatalf("forest edges = %d, want 4", len(edges))
	}
}

func TestMotifCounts(t *testing.T) {
	// Directed 3-cycle: one cyclic triangle, no transitive.
	mc := CountMotifsView(directed([][2]int64{{1, 2}, {2, 3}, {3, 1}}))
	if mc.CyclicTriangles != 1 || mc.TransTriangles != 0 {
		t.Fatalf("cycle motifs = %+v", mc)
	}

	// Transitive triangle: a->b, b->c, a->c.
	mc = CountMotifsView(directed([][2]int64{{1, 2}, {2, 3}, {1, 3}}))
	if mc.TransTriangles != 1 || mc.CyclicTriangles != 0 {
		t.Fatalf("transitive motifs = %+v", mc)
	}

	// A path has one wedge and no triangles.
	mc = CountMotifsView(directed([][2]int64{{1, 2}, {2, 3}}))
	if mc.Wedges != 1 || mc.CyclicTriangles+mc.TransTriangles != 0 {
		t.Fatalf("path motifs = %+v", mc)
	}

	// Fully reciprocal triangle: both cyclic orientations.
	mc = CountMotifsView(directed([][2]int64{{1, 2}, {2, 1}, {2, 3}, {3, 2}, {1, 3}, {3, 1}}))
	if mc.CyclicTriangles != 2 {
		t.Fatalf("reciprocal triangle cycles = %+v", mc)
	}
}
