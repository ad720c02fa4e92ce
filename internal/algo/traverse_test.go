package algo

import (
	"reflect"
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

func pathGraph(n int) *graph.Directed {
	g := graph.NewDirected()
	for i := 0; i < n-1; i++ {
		g.AddEdge(int64(i), int64(i+1))
	}
	return g
}

func TestBFSDistancesOnPath(t *testing.T) {
	g := pathGraph(6)
	v := graph.BuildView(g)
	dist := BFSView(v, 0, Out)
	for i := 0; i < 6; i++ {
		if dist[int64(i)] != i {
			t.Fatalf("dist[%d] = %d", i, dist[int64(i)])
		}
	}
	// Following out-edges, nothing reaches backwards.
	back := BFSView(v, 5, Out)
	if len(back) != 1 || back[5] != 0 {
		t.Fatalf("backwards BFS = %v", back)
	}
	// In direction reverses reachability.
	in := BFSView(v, 5, In)
	if in[0] != 5 {
		t.Fatalf("in-BFS dist to 0 = %d", in[0])
	}
	// Both directions reach everything from the middle.
	both := BFSView(v, 3, Both)
	if len(both) != 6 {
		t.Fatalf("both-BFS reached %d nodes", len(both))
	}
}

func TestBFSMissingSource(t *testing.T) {
	if BFSView(graph.BuildView(pathGraph(3)), 99, Out) != nil {
		t.Fatal("BFS from missing node returned non-nil")
	}
}

func TestSSSPUnweightedMatchesBFS(t *testing.T) {
	g := pathGraph(5)
	g.AddEdge(0, 3) // shortcut
	dist := SSSPUnweighted(g, 0)
	if dist[3] != 1 || dist[4] != 2 {
		t.Fatalf("shortcut distances = %v", dist)
	}
	if bfs := BFSView(graph.BuildView(g), 0, Out); !reflect.DeepEqual(dist, bfs) {
		t.Fatalf("SSSP %v differs from out-edge BFS %v", dist, bfs)
	}
}

func TestShortestPath(t *testing.T) {
	g := pathGraph(4)
	v := graph.BuildView(g)
	if d := ShortestPathView(v, 2, 2); d != 0 {
		t.Fatalf("self distance = %d", d)
	}
	if d := ShortestPathView(v, 0, 3); d != 3 {
		t.Fatalf("ShortestPath = %d", d)
	}
	if d := ShortestPathView(v, 3, 0); d != -1 {
		t.Fatalf("unreachable = %d, want -1", d)
	}
	if d := ShortestPathView(v, 99, 0); d != -1 {
		t.Fatalf("missing src = %d", d)
	}
	if d := ShortestPathView(v, 0, 99); d != -1 {
		t.Fatalf("missing dst = %d", d)
	}
}

func TestDijkstraPrefersLightPath(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2) // weight 10 (direct)
	g.AddEdge(1, 3) // weight 1
	g.AddEdge(3, 2) // weight 1
	w := func(src, dst int64) float64 {
		if src == 1 && dst == 2 {
			return 10
		}
		return 1
	}
	dist := DijkstraView(graph.BuildView(g), 1, w)
	if !approxEq(at(dist, 2), 2, 1e-12) {
		t.Fatalf("dist[2] = %v, want 2 (via node 3)", at(dist, 2))
	}
	if !approxEq(at(dist, 3), 1, 1e-12) {
		t.Fatalf("dist[3] = %v", at(dist, 3))
	}
}

func TestDijkstraUnreachableAbsent(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddNode(3)
	dist := DijkstraView(graph.BuildView(g), 1, func(a, b int64) float64 { return 1 })
	if _, ok := dist.Get(3); ok {
		t.Fatal("unreachable node present in Dijkstra result")
	}
	if DijkstraView(graph.BuildView(g), 99, func(a, b int64) float64 { return 1 }) != nil {
		t.Fatal("Dijkstra from missing node returned non-nil")
	}
}

func TestDijkstraMatchesBFSWithUnitWeights(t *testing.T) {
	g := pathGraph(8)
	g.AddEdge(2, 6)
	unit := func(a, b int64) float64 { return 1 }
	dd := DijkstraView(graph.BuildView(g), 0, unit)
	bd := BFSView(graph.BuildView(g), 0, Out)
	for id, hops := range bd {
		if !approxEq(at(dd, id), float64(hops), 1e-12) {
			t.Fatalf("node %d: dijkstra %v != bfs %d", id, at(dd, id), hops)
		}
	}
}

func TestWCCTwoComponents(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	g.AddNode(99)
	c := WCCView(graph.BuildView(g))
	if c.Count != 3 {
		t.Fatalf("WCC count = %d, want 3", c.Count)
	}
	if c.MaxSize != 3 {
		t.Fatalf("WCC max size = %d, want 3", c.MaxSize)
	}
	if l := c.Label(); l[1] != l[3] || l[1] == l[10] {
		t.Fatalf("labels = %v", l)
	}
}

func TestWCCDirectionIgnored(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(3, 2) // converging arrows still connect weakly
	c := WCCView(graph.BuildView(g))
	if c.Count != 1 {
		t.Fatalf("WCC count = %d, want 1", c.Count)
	}
}

func TestSCCCycleAndDAG(t *testing.T) {
	cyc := cycleGraph(5)
	c := SCCView(graph.BuildView(cyc))
	if c.Count != 1 || c.MaxSize != 5 {
		t.Fatalf("cycle SCC = (%d comps, max %d)", c.Count, c.MaxSize)
	}
	dag := pathGraph(5)
	c = SCCView(graph.BuildView(dag))
	if c.Count != 5 || c.MaxSize != 1 {
		t.Fatalf("path SCC = (%d comps, max %d)", c.Count, c.MaxSize)
	}
}

// TestSCCRefinesWCC: every strongly connected component lies inside one
// weak component, so SCC labels refine WCC labels and WCC never counts more.
func TestSCCRefinesWCC(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := graph.NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%20), int64(e[1]%20))
		}
		v := graph.BuildView(g)
		wcc, scc := WCCView(v), SCCView(v)
		weakOf := map[int]int{}
		weak := wcc.Label()
		for id, s := range scc.Label() {
			if w, ok := weakOf[s]; ok && w != weak[id] {
				return false
			}
			weakOf[s] = weak[id]
		}
		return wcc.Count <= scc.Count
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestSCCTextbookExample(t *testing.T) {
	// Components: {1,2,3}, {4,5}, {6}.
	g := graph.NewDirected()
	for _, e := range [][2]int64{
		{1, 2}, {2, 3}, {3, 1}, // cycle A
		{3, 4},
		{4, 5}, {5, 4}, // cycle B
		{5, 6},
	} {
		g.AddEdge(e[0], e[1])
	}
	c := SCCView(graph.BuildView(g))
	if c.Count != 3 {
		t.Fatalf("SCC count = %d, want 3", c.Count)
	}
	l := c.Label()
	if l[1] != l[2] || l[2] != l[3] {
		t.Fatal("cycle A split")
	}
	if l[4] != l[5] {
		t.Fatal("cycle B split")
	}
	if l[1] == l[4] || l[4] == l[6] || l[1] == l[6] {
		t.Fatal("distinct components merged")
	}
	if c.MaxSize != 3 {
		t.Fatalf("max size = %d", c.MaxSize)
	}
}

func TestSCCDeepGraphNoStackOverflow(t *testing.T) {
	// A 200k-node path would overflow a recursive Tarjan.
	g := pathGraph(200_000)
	c := SCCView(graph.BuildView(g))
	if c.Count != 200_000 {
		t.Fatalf("deep path SCC count = %d", c.Count)
	}
}
