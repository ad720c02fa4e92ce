package core

import (
	"bytes"
	"math/rand"
	"testing"

	"ringo/internal/graph"
)

// heldProjection returns the undirected projection name's binding holds
// and the version it reflects (nil when it holds none).
func heldProjection(ws *Workspace, name string) (*graph.UView, uint64) {
	ws.mu.RLock()
	defer ws.mu.RUnlock()
	o := ws.objs[name]
	return o.proj, o.projVer
}

// projectionSequence drives one graph binding through a seeded mix of
// delta-logged mutation batches, wholesale touches and directed or
// undirected queries, checking after every undirected query that the
// binding holds the projection it was served, at its current version. It
// returns the patch and rebuild counts.
func projectionSequence(t *testing.T, seed int64, ratio float64) (patches, rebuilds uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ws := NewWorkspace()
	ws.patchRatio = ratio
	ws.Set("g", Object{View: testGraph(60, 240, seed).view()})
	query := func(undir bool) {
		if !undir {
			if _, err := ws.DirectedView("g"); err != nil {
				t.Fatal(err)
			}
			return
		}
		uv, err := ws.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		ver, _ := ws.Version("g")
		if p, pv := heldProjection(ws, "g"); p != uv || pv != ver {
			t.Fatalf("seed %d: binding at version %d holds a projection at %d, not the one served", seed, ver, pv)
		}
	}
	for step := 0; step < 80; step++ {
		if rng.Intn(20) == 0 {
			ws.Touch("g")
		}
		for i := 0; i < 1+rng.Intn(12); i++ {
			s, d := rng.Int63n(70), rng.Int63n(70)
			switch rng.Intn(5) {
			case 0:
				ws.AddGraphNode("g", s)
			case 1:
				ws.DelGraphEdge("g", s, d)
			default:
				ws.AddGraphEdge("g", s, d)
			}
		}
		switch rng.Intn(4) {
		case 0:
			query(false)
		case 1:
			query(true)
		case 2:
			query(false)
			query(true)
		}
	}
	return ws.PatchStats()
}

// TestHeldProjectionPatchCounts: on seeded single-binding sequences the
// one projection a binding holds is patched and rebuilt exactly as often
// as a view cache that kept every older projection resident would patch
// and rebuild: holding only the freshest loses no patch.
func TestHeldProjectionPatchCounts(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		ratio             float64
		patches, rebuilds uint64
	}{
		{1, DefaultPatchRatio, 96, 5},
		{2, DefaultPatchRatio, 103, 4},
		{3, 0.02, 78, 13},
		{4, 0.02, 83, 10},
		{5, 0.05, 101, 4},
	} {
		p, r := projectionSequence(t, tc.seed, tc.ratio)
		if p != tc.patches || r != tc.rebuilds {
			t.Errorf("seed %d ratio %v: patches/rebuilds %d/%d, want %d/%d", tc.seed, tc.ratio, p, r, tc.patches, tc.rebuilds)
		}
	}
}

// TestDirectedQueryKeepsHeldProjection: a mutation and the directed query
// that folds it leave the binding's older projection held, and keep the
// deltas it needs; the next undirected query patches it forward and the
// log empties. Another binding's projection, including one whose name
// extends this one's, is untouched throughout.
func TestDirectedQueryKeepsHeldProjection(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{View: testGraph(40, 150, 9).view()})
	ws.Set("g#1", Object{View: testGraph(40, 150, 10).view()})
	for _, name := range []string{"g", "g#1"} {
		if _, err := ws.UndirectedView(name); err != nil {
			t.Fatal(err)
		}
	}
	old, _ := ws.Version("g")
	sibling, sibVer := heldProjection(ws, "g#1")
	if ok, err := ws.AddGraphEdge("g", 100, 101); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if p, pv := heldProjection(ws, "g"); p == nil || pv != old {
		t.Fatalf("after a directed query g holds a projection at %d, want the one at %d", pv, old)
	}
	if n := ws.DeltaEdges(); n != 1 {
		t.Fatalf("the log holds %d deltas past the fold, want the one the projection needs", n)
	}
	uv, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	ver, _ := ws.Version("g")
	if p, pv := heldProjection(ws, "g"); p != uv || pv != ver {
		t.Fatalf("g holds a projection at %d, want the patched one at %d", pv, ver)
	}
	if p, r := ws.PatchStats(); p != 2 || r != 2 {
		t.Fatalf("patches/rebuilds %d/%d, want 2/2: two projections, a fold and a patch", p, r)
	}
	if n := ws.DeltaEdges(); n != 0 {
		t.Fatalf("the log holds %d deltas once every view reflects them", n)
	}
	if p, pv := heldProjection(ws, "g#1"); p != sibling || pv != sibVer {
		t.Fatal("g's queries disturbed g#1's projection")
	}
}

// TestProjectionLifecycle pins what keeps and what drops the projection a
// binding holds: Rename of a settled binding carries it to the new name
// (the next undirected query is a hit, nothing rebuilt), Touch, Set,
// Delete and Restore drop it, and a projection the log's overflow restart
// leaves behind is projected afresh, not patched.
func TestProjectionLifecycle(t *testing.T) {
	ws := NewWorkspace()
	bind := func(name string) *graph.UView {
		t.Helper()
		ws.Set(name, Object{View: testGraph(50, 200, 3).view()})
		uv, err := ws.UndirectedView(name)
		if err != nil {
			t.Fatal(err)
		}
		return uv
	}
	held := func(ctx string, want int) {
		t.Helper()
		if _, _, n, _ := ws.ViewCacheStats(); n != want {
			t.Fatalf("%s: %d projections held, want %d", ctx, n, want)
		}
	}

	uv := bind("a")
	if err := ws.Rename("a", "b"); err != nil {
		t.Fatal(err)
	}
	held("rename", 1)
	h0, m0, _, _ := ws.ViewCacheStats()
	p0, r0 := ws.PatchStats()
	if got, err := ws.UndirectedView("b"); err != nil || got != uv {
		t.Fatalf("the renamed binding's undirected query was not served its projection (err %v)", err)
	}
	if h, m, _, _ := ws.ViewCacheStats(); h != h0+1 || m != m0 {
		t.Fatalf("hits/misses %d/%d -> %d/%d, want one hit", h0, m0, h, m)
	}
	if p, r := ws.PatchStats(); p != p0 || r != r0 {
		t.Fatalf("the renamed binding's query patched or rebuilt (%d/%d -> %d/%d)", p0, r0, p, r)
	}

	ws.Touch("b")
	held("touch", 0)
	bind("b")
	ws.Set("b", Object{View: testGraph(50, 200, 4).view()})
	held("set", 0)
	bind("b")
	ws.Delete("b")
	held("delete", 0)
	bind("b")
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ws.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	held("restore", 0)

	// Rename of a binding whose projection is behind drops it: the log it
	// would patch forward across goes with the old name.
	bind("c")
	if ok, err := ws.AddGraphEdge("c", 1000, 1001); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if err := ws.Rename("c", "d"); err != nil {
		t.Fatal(err)
	}
	held("rename behind", 0)

	// One mutation past the log's cap restarts the log; the projection it
	// was kept for is dropped and re-projected.
	bind("e")
	for i := int64(0); i <= maxDeltaLog; i++ {
		if ok, err := ws.AddGraphEdge("e", 10_000+i%97, 20_000+i); err != nil || !ok {
			t.Fatalf("AddGraphEdge(%d): ok=%v err=%v", i, ok, err)
		}
		if i%4096 == 4095 {
			if _, err := ws.DirectedView("e"); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p, _ := heldProjection(ws, "e"); p != nil {
		t.Fatal("the overflow restart kept a projection its log no longer covers")
	}
	p0, r0 = ws.PatchStats()
	uv, err := ws.UndirectedView("e")
	if err != nil {
		t.Fatal(err)
	}
	if p, r := ws.PatchStats(); r != r0+1 || p != p0+1 {
		t.Fatalf("after the restart: patches %d -> %d, rebuilds %d -> %d; want a fold and a projection", p0, p, r0, r)
	}
	v, err := ws.DirectedView("e")
	if err != nil {
		t.Fatal(err)
	}
	sameUViewArrays(t, "after the restart", uv, projectionRef(v))
}
