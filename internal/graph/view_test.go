package graph

import (
	"math/rand"
	"slices"
	"testing"
)

// randomDirected builds a directed graph with AddEdge (so slot order differs
// from id order) and a few node deletions (so the slot space has tombstones).
func randomDirected(t *testing.T, n, m int, seed int64) *Directed {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	g := NewDirected()
	for i := 0; i < m; i++ {
		g.AddEdge(int64(rng.Intn(n)), int64(rng.Intn(n)))
	}
	// Delete a handful of nodes to exercise tombstoned slots.
	for i := 0; i < n/10; i++ {
		g.DelNode(int64(rng.Intn(n)))
	}
	return g
}

func TestBuildViewMatchesDirected(t *testing.T) {
	g := randomDirected(t, 200, 800, 1)
	v := BuildView(g)
	if v.NumNodes() != g.NumNodes() {
		t.Fatalf("view has %d nodes, graph %d", v.NumNodes(), g.NumNodes())
	}
	if v.NumEdges() != g.NumEdges() {
		t.Fatalf("view has %d edges, graph %d", v.NumEdges(), g.NumEdges())
	}
	if !slices.IsSorted(v.IDs()) {
		t.Fatalf("view ids not ascending")
	}
	for i, id := range v.IDs() {
		di, ok := v.Index(id)
		if !ok || di != int32(i) {
			t.Fatalf("Index(%d) = %d,%v; want %d", id, di, ok, i)
		}
		wantOut := g.OutNeighbors(id)
		gotOut := v.Out(int32(i))
		if len(wantOut) != len(gotOut) {
			t.Fatalf("node %d: out degree %d vs %d", id, len(gotOut), len(wantOut))
		}
		if !slices.IsSorted(gotOut) {
			t.Fatalf("node %d: out vector not sorted", id)
		}
		for j, di := range gotOut {
			if v.ID(di) != wantOut[j] {
				t.Fatalf("node %d out[%d]: got id %d want %d", id, j, v.ID(di), wantOut[j])
			}
		}
		wantIn := g.InNeighbors(id)
		gotIn := v.In(int32(i))
		if len(wantIn) != len(gotIn) {
			t.Fatalf("node %d: in degree %d vs %d", id, len(gotIn), len(wantIn))
		}
		for j, di := range gotIn {
			if v.ID(di) != wantIn[j] {
				t.Fatalf("node %d in[%d]: got id %d want %d", id, j, v.ID(di), wantIn[j])
			}
		}
		if v.OutDeg(int32(i)) != len(wantOut) || v.InDeg(int32(i)) != len(wantIn) {
			t.Fatalf("node %d: degree accessors disagree with vectors", id)
		}
	}
}

func TestBuildViewEmptyAndLoops(t *testing.T) {
	v := BuildView(NewDirected())
	if v.NumNodes() != 0 || v.NumEdges() != 0 {
		t.Fatalf("empty graph view not empty")
	}
	g := NewDirected()
	g.AddEdge(5, 5)
	g.AddEdge(5, 2)
	v = BuildView(g)
	if v.NumEdges() != 2 {
		t.Fatalf("self-loop lost: %d edges", v.NumEdges())
	}
	i, _ := v.Index(5)
	if _, found := slices.BinarySearch(v.Out(i), i); !found {
		t.Fatalf("self-loop not in out vector")
	}
}

func TestBuildUViewMatchesUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	g := NewUndirectedCap(0)
	for i := 0; i < 800; i++ {
		g.AddEdge(int64(rng.Intn(200)), int64(rng.Intn(200)))
	}
	for i := 0; i < 20; i++ {
		g.DelNode(int64(rng.Intn(200)))
	}
	v := buildUView(g)
	if v.NumNodes() != g.NumNodes() {
		t.Fatalf("uview has %d nodes, graph %d", v.NumNodes(), g.NumNodes())
	}
	if v.NumEdges() != g.NumEdges() {
		t.Fatalf("uview has %d edges, graph %d", v.NumEdges(), g.NumEdges())
	}
	for i, id := range v.IDs() {
		want := g.Neighbors(id)
		got := v.Adj(int32(i))
		if len(want) != len(got) {
			t.Fatalf("node %d: degree %d vs %d", id, len(got), len(want))
		}
		if !slices.IsSorted(got) {
			t.Fatalf("node %d: adjacency not sorted", id)
		}
		for j, di := range got {
			if v.ID(di) != want[j] {
				t.Fatalf("node %d adj[%d]: got id %d want %d", id, j, v.ID(di), want[j])
			}
		}
	}
}

func BenchmarkBuildView(b *testing.B) {
	rng := rand.New(rand.NewSource(3))
	g := NewDirected()
	for i := 0; i < 200_000; i++ {
		g.AddEdge(int64(rng.Intn(50_000)), int64(rng.Intn(50_000)))
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		BuildView(g)
	}
}
