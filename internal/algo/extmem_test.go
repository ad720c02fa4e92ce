package algo

import (
	"maps"
	"path/filepath"
	"slices"
	"testing"

	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// mapView round-trips v through an RNGM file and returns the mapped view,
// so the equivalence tests exercise the real storage tier (binary-searched
// Index, aliased arenas), not just a second heap view.
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

// shrinkBlocks forces multi-block semi-external schedules on test-sized
// graphs so the skip logic actually runs.
func shrinkBlocks(t *testing.T, size int) {
	t.Helper()
	old := extBlockSize
	extBlockSize = size
	t.Cleanup(func() { extBlockSize = old })
}

// extTestGraphs yields the awkward shapes the equality contract names:
// random graphs, isolated nodes, tombstoned (deleted) slots, and a
// multi-component graph where BFS leaves most blocks inactive.
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

func TestPageRankExtMatchesView(t *testing.T) {
	shrinkBlocks(t, 37)
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		mv := mapView(t, v)
		want := PageRankView(v, DefaultDamping, 10)
		got := PageRankExt(mv, DefaultDamping, 10)
		if !slices.Equal(want, got) {
			t.Errorf("%s: PageRankExt scores differ from PageRankView (want %d scores, got %d)", name, len(want), len(got))
		}
	}
}

func TestWCCExtMatchesView(t *testing.T) {
	shrinkBlocks(t, 41)
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		mv := mapView(t, v)
		want := WCCView(v)
		got := WCCExt(mv)
		if want.Count != got.Count || want.MaxSize != got.MaxSize || !maps.Equal(want.Label, got.Label) {
			t.Errorf("%s: WCCExt labeling differs from WCCView (count %d vs %d, max %d vs %d)",
				name, want.Count, got.Count, want.MaxSize, got.MaxSize)
		}
	}
}

func TestBFSExtMatchesView(t *testing.T) {
	shrinkBlocks(t, 29)
	for name, g := range extTestGraphs() {
		v := graph.BuildView(g)
		if v.NumNodes() == 0 {
			continue
		}
		mv := mapView(t, v)
		srcs := []int64{v.ID(0), v.ID(int32(v.NumNodes() / 2)), v.ID(int32(v.NumNodes() - 1))}
		for _, src := range srcs {
			for _, dir := range []EdgeDir{Out, In, Both} {
				want := BFSView(v, src, dir)
				got := BFSExt(mv, src, dir)
				if !maps.Equal(want, got) {
					t.Errorf("%s: BFSExt(src=%d, dir=%d) differs from BFSView (%d vs %d reached)",
						name, src, dir, len(want), len(got))
				}
			}
		}
	}
}

func TestBFSExtUnknownSource(t *testing.T) {
	v := graph.BuildView(gen.GNM(50, 200, 1))
	if got := BFSExt(v, 1<<40, Out); got != nil {
		t.Fatalf("BFSExt from absent source = %v, want nil", got)
	}
}

func TestExtBlockStatsAdvance(t *testing.T) {
	shrinkBlocks(t, 16)
	// A two-component graph where one component is far from the other in
	// the dense ordering: BFS from inside one component must skip the
	// other's blocks.
	g := gen.Ring(128)
	far := gen.Ring(128)
	far.ForEdges(func(src, dst int64) { g.AddEdge(src+100000, dst+100000) })
	v := graph.BuildView(g)

	s0, k0 := ExtBlockStats()
	BFSExt(v, v.ID(0), Out)
	s1, k1 := ExtBlockStats()
	if s1 <= s0 {
		t.Fatalf("scanned counter did not advance (%d -> %d)", s0, s1)
	}
	if k1 <= k0 {
		t.Fatalf("skipped counter did not advance (%d -> %d): selective scheduling scanned every block", k0, k1)
	}
}

// BenchmarkPageRankExt runs semi-external PageRank over a mapped RNGM
// image — the number to put against BenchmarkPageRank-style in-heap runs
// and the CI smoke that keeps the mapped pipeline compiling end to end.
func BenchmarkPageRankExt(b *testing.B) {
	g := gen.GNM(1<<15, 1<<18, 42)
	mv := mapView(b, graph.BuildView(g))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		PageRankExt(mv, DefaultDamping, 5)
	}
}
