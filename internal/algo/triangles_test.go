package algo

import (
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

func completeUndirected(n int) *graph.Undirected {
	g := graph.NewUndirected()
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			g.AddEdge(int64(i), int64(j))
		}
	}
	return g
}

func TestTrianglesKnownCounts(t *testing.T) {
	cases := []struct {
		g    *graph.Undirected
		want int64
		name string
	}{
		{completeUndirected(3), 1, "K3"},
		{completeUndirected(4), 4, "K4"},
		{completeUndirected(5), 10, "K5"},
		{completeUndirected(6), 20, "K6"},
	}
	for _, c := range cases {
		if got := TrianglesView(graph.BuildUView(c.g)); got != c.want {
			t.Fatalf("%s: Triangles = %d, want %d", c.name, got, c.want)
		}
	}
}

func TestTrianglesPathHasNone(t *testing.T) {
	g := graph.NewUndirected()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, i+1)
	}
	if got := TrianglesView(graph.BuildUView(g)); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
}

func TestTrianglesIgnoreSelfLoops(t *testing.T) {
	g := completeUndirected(3)
	g.AddEdge(0, 0)
	if got := TrianglesView(graph.BuildUView(g)); got != 1 {
		t.Fatalf("triangles with self-loop = %d, want 1", got)
	}
}

func TestNodeTrianglesSumIsThreeTimesTotal(t *testing.T) {
	g := completeUndirected(5)
	g.AddEdge(10, 11) // isolated edge, no triangles
	per := NodeTrianglesView(graph.BuildUView(g))
	var sum int64
	for _, c := range per {
		sum += c
	}
	total := TrianglesView(graph.BuildUView(g))
	if sum != 3*total {
		t.Fatalf("sum of per-node counts %d != 3×%d", sum, total)
	}
	if per[10] != 0 || per[11] != 0 {
		t.Fatal("isolated edge nodes have triangles")
	}
	// In K5, every node is in C(4,2) = 6 triangles.
	if per[0] != 6 {
		t.Fatalf("K5 node triangle count = %d, want 6", per[0])
	}
}

// brute-force reference: count triples with all three edges.
func bruteTriangles(g *graph.Undirected) int64 {
	nodes := g.Nodes()
	var count int64
	for i := 0; i < len(nodes); i++ {
		for j := i + 1; j < len(nodes); j++ {
			if !g.HasEdge(nodes[i], nodes[j]) {
				continue
			}
			for k := j + 1; k < len(nodes); k++ {
				if g.HasEdge(nodes[j], nodes[k]) && g.HasEdge(nodes[i], nodes[k]) {
					count++
				}
			}
		}
	}
	return count
}

func TestTrianglesMatchBruteForceProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := graph.NewUndirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%12), int64(e[1]%12))
		}
		want := bruteTriangles(g)
		return TrianglesView(graph.BuildUView(g)) == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficientComplete(t *testing.T) {
	g := completeUndirected(6)
	if cc := ClusteringCoefficientView(graph.BuildUView(g)); !approxEq(cc, 1, 1e-12) {
		t.Fatalf("clustering of K6 = %v, want 1", cc)
	}
}

func TestClusteringCoefficientStarIsZero(t *testing.T) {
	g := graph.NewUndirected()
	for i := int64(1); i <= 6; i++ {
		g.AddEdge(0, i)
	}
	if cc := ClusteringCoefficientView(graph.BuildUView(g)); cc != 0 {
		t.Fatalf("clustering of star = %v", cc)
	}
}

func TestClusteringCoefficientTrianglePlusTail(t *testing.T) {
	// Triangle {0,1,2} plus tail 2-3. Nodes 0,1 have cc 1; node 2 has
	// cc = 1/3 (one of three neighbor pairs connected); node 3 deg 1 → 0.
	g := graph.NewUndirected()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	g.AddEdge(0, 2)
	g.AddEdge(2, 3)
	want := (1.0 + 1.0 + 1.0/3.0 + 0.0) / 4.0
	if cc := ClusteringCoefficientView(graph.BuildUView(g)); !approxEq(cc, want, 1e-12) {
		t.Fatalf("clustering = %v, want %v", cc, want)
	}
}

func TestClusteringEmptyGraph(t *testing.T) {
	if cc := ClusteringCoefficientView(graph.BuildUView(graph.NewUndirected())); cc != 0 {
		t.Fatalf("clustering of empty graph = %v", cc)
	}
}
