package algo

import (
	"testing"

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
	dist := BFS(g, 0, Out)
	for i := 0; i < 6; i++ {
		if dist[int64(i)] != i {
			t.Fatalf("dist[%d] = %d", i, dist[int64(i)])
		}
	}
	// Following out-edges, nothing reaches backwards.
	back := BFS(g, 5, Out)
	if len(back) != 1 || back[5] != 0 {
		t.Fatalf("backwards BFS = %v", back)
	}
	// In direction reverses reachability.
	in := BFS(g, 5, In)
	if in[0] != 5 {
		t.Fatalf("in-BFS dist to 0 = %d", in[0])
	}
	// Both directions reach everything from the middle.
	both := BFS(g, 3, Both)
	if len(both) != 6 {
		t.Fatalf("both-BFS reached %d nodes", len(both))
	}
}

func TestBFSMissingSource(t *testing.T) {
	if BFS(pathGraph(3), 99, Out) != nil {
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
}

func TestShortestPath(t *testing.T) {
	g := pathGraph(4)
	if d := ShortestPath(g, 0, 3); d != 3 {
		t.Fatalf("ShortestPath = %d", d)
	}
	if d := ShortestPath(g, 3, 0); d != -1 {
		t.Fatalf("unreachable = %d, want -1", d)
	}
	if d := ShortestPath(g, 99, 0); d != -1 {
		t.Fatalf("missing src = %d", d)
	}
	if d := ShortestPath(g, 0, 99); d != -1 {
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
	dist := Dijkstra(g, 1, w)
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
	dist := Dijkstra(g, 1, func(a, b int64) float64 { return 1 })
	if _, ok := dist.Get(3); ok {
		t.Fatal("unreachable node present in Dijkstra result")
	}
	if Dijkstra(g, 99, func(a, b int64) float64 { return 1 }) != nil {
		t.Fatal("Dijkstra from missing node returned non-nil")
	}
}

func TestDijkstraMatchesBFSWithUnitWeights(t *testing.T) {
	g := pathGraph(8)
	g.AddEdge(2, 6)
	unit := func(a, b int64) float64 { return 1 }
	dd := Dijkstra(g, 0, unit)
	bd := BFS(g, 0, Out)
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
	c := WCC(g)
	if c.Count != 3 {
		t.Fatalf("WCC count = %d, want 3", c.Count)
	}
	if c.MaxSize != 3 {
		t.Fatalf("WCC max size = %d, want 3", c.MaxSize)
	}
	if c.Label[1] != c.Label[3] || c.Label[1] == c.Label[10] {
		t.Fatalf("labels = %v", c.Label)
	}
}

func TestWCCDirectionIgnored(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(3, 2) // converging arrows still connect weakly
	c := WCC(g)
	if c.Count != 1 {
		t.Fatalf("WCC count = %d, want 1", c.Count)
	}
}

func TestSCCCycleAndDAG(t *testing.T) {
	cyc := cycleGraph(5)
	c := SCC(cyc)
	if c.Count != 1 || c.MaxSize != 5 {
		t.Fatalf("cycle SCC = (%d comps, max %d)", c.Count, c.MaxSize)
	}
	dag := pathGraph(5)
	c = SCC(dag)
	if c.Count != 5 || c.MaxSize != 1 {
		t.Fatalf("path SCC = (%d comps, max %d)", c.Count, c.MaxSize)
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
	c := SCC(g)
	if c.Count != 3 {
		t.Fatalf("SCC count = %d, want 3", c.Count)
	}
	if c.Label[1] != c.Label[2] || c.Label[2] != c.Label[3] {
		t.Fatal("cycle A split")
	}
	if c.Label[4] != c.Label[5] {
		t.Fatal("cycle B split")
	}
	if c.Label[1] == c.Label[4] || c.Label[4] == c.Label[6] || c.Label[1] == c.Label[6] {
		t.Fatal("distinct components merged")
	}
	if c.MaxSize != 3 {
		t.Fatalf("max size = %d", c.MaxSize)
	}
}

func TestSCCDeepGraphNoStackOverflow(t *testing.T) {
	// A 200k-node path would overflow a recursive Tarjan.
	g := pathGraph(200_000)
	c := SCC(g)
	if c.Count != 200_000 {
		t.Fatalf("deep path SCC count = %d", c.Count)
	}
}

func TestLargestWCC(t *testing.T) {
	g := graph.NewDirected()
	// Component A: 4 nodes; component B: 2 nodes; isolated: 1.
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 4)
	g.AddEdge(10, 11)
	g.AddNode(99)
	sub := LargestWCC(g)
	if sub.NumNodes() != 4 {
		t.Fatalf("largest WCC nodes = %d", sub.NumNodes())
	}
	if sub.NumEdges() != 3 {
		t.Fatalf("largest WCC edges = %d", sub.NumEdges())
	}
	if sub.HasNode(10) || sub.HasNode(99) {
		t.Fatal("other components leaked")
	}
	if err := sub.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestWCCUndirected(t *testing.T) {
	g := graph.NewUndirected()
	g.AddEdge(1, 2)
	g.AddEdge(3, 4)
	c := WCCUndirected(g)
	if c.Count != 2 || c.MaxSize != 2 {
		t.Fatalf("undirected WCC = (%d,%d)", c.Count, c.MaxSize)
	}
}
