package algo

import (
	"maps"
	"math"
	"path/filepath"
	"testing"

	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// The mapped tier has no kernels of its own: loadgraph serves an RNGM
// image as a *graph.View and every verb runs the heap kernel over it. The
// tests below are that tier's oracle — each kernel over the mapped view
// must give exactly the answer it gives over the heap view.

// mapView round-trips v through an RNGM file and returns the mapped view,
// so the tests exercise the real storage tier (binary-searched Index,
// aliased arenas), not just a second heap view.
func mapView(t testing.TB, v *graph.View) *graph.View {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(path, v); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	mg, err := extmem.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg.View()
}

// extTestGraphs yields the awkward shapes for the mapped tier: random
// graphs, isolated nodes, tombstoned (deleted) slots, and a graph of two
// components far apart in the dense ordering.
func extTestGraphs() map[string]*graph.Directed {
	gs := map[string]*graph.Directed{
		"gnm":  gen.GNM(500, 4000, 3),
		"ring": gen.Ring(257),
		"star": gen.Star(300),
	}
	withIso := gen.GNM(300, 1500, 5)
	for id := int64(300); id < 320; id++ {
		withIso.AddNode(id)
	}
	gs["isolated"] = withIso

	tomb := gen.GNM(400, 2500, 9)
	for id := int64(0); id < 120; id += 2 {
		tomb.DelNode(id)
	}
	gs["tombstoned"] = tomb

	two := gen.GNM(200, 900, 13)
	far := gen.Ring(100)
	far.ForEdges(func(src, dst int64) { two.AddEdge(src+10000, dst+10000) })
	gs["two-components"] = two
	return gs
}

// sameComponents reports whether two labelings agree on labels, count and
// largest size.
func sameComponents(a, b Components) bool {
	return a.Count == b.Count && a.MaxSize == b.MaxSize && maps.Equal(a.Label(), b.Label())
}

func TestMappedPageRankBitIdentical(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want := PageRankView(v, DefaultDamping, 10)
		got := PageRankView(mapView(t, v), DefaultDamping, 10)
		if len(got) != len(want) {
			t.Fatalf("%s: mapped PageRank scored %d nodes, heap %d", name, len(got), len(want))
		}
		for i := range want {
			if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
				t.Fatalf("%s: mapped PageRank[%d] = (%d, %x), heap (%d, %x)", name, i,
					got[i].ID, math.Float64bits(got[i].Score), want[i].ID, math.Float64bits(want[i].Score))
			}
		}
	}
}

func TestMappedWCCMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want, got := WCCView(v), WCCView(mapView(t, v))
		if !sameComponents(want, got) {
			t.Errorf("%s: mapped WCC differs from heap (count %d vs %d, max %d vs %d)",
				name, got.Count, want.Count, got.MaxSize, want.MaxSize)
		}
	}
}

func TestMappedSCCMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want, got := SCCView(v), SCCView(mapView(t, v))
		if !sameComponents(want, got) {
			t.Errorf("%s: mapped SCC differs from heap (count %d vs %d, max %d vs %d)",
				name, got.Count, want.Count, got.MaxSize, want.MaxSize)
		}
	}
}

func TestMappedBFSMatchesHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		if v.NumNodes() == 0 {
			continue
		}
		mv := mapView(t, v)
		srcs := []int64{v.ID(0), v.ID(int32(v.NumNodes() / 2)), v.ID(int32(v.NumNodes() - 1))}
		for _, src := range srcs {
			for _, dir := range []EdgeDir{Out, In, Both} {
				want, got := BFSView(v, src, dir), BFSView(mv, src, dir)
				if !maps.Equal(want, got) {
					t.Errorf("%s: mapped BFS(src=%d, dir=%d) differs from heap (%d vs %d reached)",
						name, src, dir, len(got), len(want))
				}
			}
		}
	}
}

func TestMappedBFSUnknownSource(t *testing.T) {
	mv := mapView(t, graph.BuildView(gen.GNM(50, 200, 1)))
	if got := BFSView(mv, 1<<40, Out); got != nil {
		t.Fatalf("mapped BFS from an absent source = %v, want nil", got)
	}
}

func TestMappedTrianglesMatchHeap(t *testing.T) {
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		want := TrianglesView(graph.ProjectUView(v))
		got := TrianglesView(graph.ProjectUView(mapView(t, v)))
		if got != want {
			t.Errorf("%s: mapped triangles = %d, heap %d", name, got, want)
		}
	}
}

// BenchmarkPageRankMapped runs PageRank over a mapped RNGM image — the
// number to put against an in-heap run of the same kernel and the CI
// smoke that keeps the mapped pipeline compiling end to end.
func BenchmarkPageRankMapped(b *testing.B) {
	g := gen.GNM(1<<15, 1<<18, 42)
	mv := mapView(b, graph.BuildView(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRankView(mv, DefaultDamping, 5)
	}
}
