package core

import (
	"fmt"
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/graph"
)

// incrShapes builds the graph shapes the oracle suite mutates, mirroring
// the graph-level patch tests: G(n,m), ring, star, isolated nodes, and a
// graph whose slot table carries tombstones from pre-binding deletions.
func incrShapes(rng *rand.Rand) map[string]*graph.Directed {
	gnm := graph.NewDirected()
	for i := 0; i < 150; i++ {
		gnm.AddEdge(rng.Int63n(45), rng.Int63n(45))
	}
	ring := graph.NewDirected()
	for i := int64(0); i < 32; i++ {
		ring.AddEdge(i, (i+1)%32)
	}
	star := graph.NewDirected()
	for i := int64(1); i <= 24; i++ {
		star.AddEdge(0, i)
	}
	isolated := graph.NewDirected()
	for i := int64(0); i < 18; i++ {
		isolated.AddNode(i * 5)
	}
	tombstoned := graph.NewDirected()
	for i := int64(0); i < 36; i++ {
		tombstoned.AddEdge(i, (i*5)%36)
	}
	for i := int64(0); i < 36; i += 4 {
		tombstoned.DelNode(i)
	}
	return map[string]*graph.Directed{
		"gnm": gnm, "ring": ring, "star": star,
		"isolated": isolated, "tombstoned": tombstoned,
	}
}

func sameViewT(t *testing.T, ctx string, got, want *graph.View) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() || got.NumEdges() != want.NumEdges() {
		t.Fatalf("%s: view shape differs: got %d/%d nodes/edges, want %d/%d",
			ctx, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
	for u := int32(0); int(u) < want.NumNodes(); u++ {
		if got.ID(u) != want.ID(u) {
			t.Fatalf("%s: id at dense %d differs: %d vs %d", ctx, u, got.ID(u), want.ID(u))
		}
		if !reflect.DeepEqual(got.Out(u), want.Out(u)) || !reflect.DeepEqual(got.In(u), want.In(u)) {
			t.Fatalf("%s: adjacency of node %d differs", ctx, want.ID(u))
		}
	}
}

func sameUViewT(t *testing.T, ctx string, got, want *graph.UView) {
	t.Helper()
	if got.NumNodes() != want.NumNodes() {
		t.Fatalf("%s: uview node counts differ: %d vs %d", ctx, got.NumNodes(), want.NumNodes())
	}
	for u := int32(0); int(u) < want.NumNodes(); u++ {
		if got.ID(u) != want.ID(u) {
			t.Fatalf("%s: id at dense %d differs: %d vs %d", ctx, u, got.ID(u), want.ID(u))
		}
		if !reflect.DeepEqual(got.Adj(u), want.Adj(u)) {
			t.Fatalf("%s: adjacency of node %d differs", ctx, want.ID(u))
		}
	}
}

// TestIncrementalOracle is the archetype headline: randomized
// interleavings of mutations and queries against a workspace binding,
// asserting after every step that the folded and patched views are
// structurally identical to from-scratch builds of a hash graph that took
// the same mutations, and that the incremental algorithms agree with
// their cold oracles. Run with -race in CI.
func TestIncrementalOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for name, g := range incrShapes(rng) {
		t.Run(name, func(t *testing.T) {
			ws := NewWorkspace()
			ws.Set("g", Object{Graph: g})

			dv, err := ws.DirectedView("g")
			if err != nil {
				t.Fatal(err)
			}
			uv, _ := ws.UndirectedView("g")
			wcc := algo.WCCView(dv)
			tri := algo.TrianglesView(uv)

			for step := 0; step < 15; step++ {
				ctx := fmt.Sprintf("%s step %d", name, step)
				var deltas []graph.Delta
				for i := 0; i < 1+rng.Intn(6); i++ {
					switch rng.Intn(6) {
					case 0:
						id := rng.Int63n(80)
						if ok, err := ws.AddGraphNode("g", id); err != nil {
							t.Fatal(err)
						} else if ok != g.AddNode(id) {
							t.Fatalf("%s: addnode %d changed=%v", ctx, id, ok)
						} else if ok {
							deltas = append(deltas, graph.Delta{Op: graph.DeltaAddNode, Src: id})
						}
					case 1, 2:
						s, d := rng.Int63n(60), rng.Int63n(60)
						if ok, _ := ws.DelGraphEdge("g", s, d); ok != delEdge(g, s, d) {
							t.Fatalf("%s: deledge %d->%d changed=%v", ctx, s, d, ok)
						} else if ok {
							deltas = append(deltas, graph.Delta{Op: graph.DeltaDelEdge, Src: s, Dst: d})
						}
					default:
						s, d := rng.Int63n(80), rng.Int63n(80)
						if ok, _ := ws.AddGraphEdge("g", s, d); ok != g.AddEdge(s, d) {
							t.Fatalf("%s: addedge %d->%d changed=%v", ctx, s, d, ok)
						} else if ok {
							deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
						}
					}
				}

				newDV, err := ws.DirectedView("g")
				if err != nil {
					t.Fatal(err)
				}
				sameViewT(t, ctx, newDV, graph.BuildView(g))
				// The free function over the stale view lands on the same CSR.
				sameViewT(t, ctx+" (PatchView)", graph.PatchView(dv, g.HasNode, g.HasEdge, deltas), newDV)
				newUV, err := ws.UndirectedView("g")
				if err != nil {
					t.Fatal(err)
				}
				sameUViewT(t, ctx, newUV, graph.BuildUView(undirectedPerEdge(g)))

				// Incremental algorithms against their cold oracles.
				coldWCC := algo.WCCView(newDV)
				if incrWCC, ok := algo.WCCIncr(newDV, wcc, deltas); ok {
					if !reflect.DeepEqual(incrWCC, coldWCC) {
						t.Fatalf("%s: incremental WCC differs from cold", ctx)
					}
				} else {
					hasDel := false
					for _, d := range deltas {
						if d.Op == graph.DeltaDelEdge {
							hasDel = true
						}
					}
					if !hasDel {
						t.Fatalf("%s: WCCIncr fell back without a deletion in the batch", ctx)
					}
				}
				incrTri := algo.TrianglesIncr(uv, newUV, tri, deltas)
				if coldTri := algo.TrianglesView(newUV); incrTri != coldTri {
					t.Fatalf("%s: incremental triangles %d, cold says %d", ctx, incrTri, coldTri)
				}

				dv, uv = newDV, newUV
				wcc, tri = coldWCC, incrTri
			}

			patches, rebuilds := ws.PatchStats()
			if patches == 0 {
				t.Fatalf("%s: no query was served by patching (rebuilds=%d)", name, rebuilds)
			}
		})
	}
}

// TestIncrementalOracleUndirected runs the interleaving against a native
// undirected binding.
func TestIncrementalOracleUndirected(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	g := graph.NewUndirectedCap(0)
	for i := 0; i < 80; i++ {
		g.AddEdge(rng.Int63n(30), rng.Int63n(30))
	}
	ws := NewWorkspace()
	ws.Set("u", Object{UView: graph.BuildUView(g)})
	uv, err := ws.UndirectedView("u")
	if err != nil {
		t.Fatal(err)
	}
	tri := algo.TrianglesView(uv)
	var folds uint64
	for step := 0; step < 12; step++ {
		var deltas []graph.Delta
		for i := 0; i < 1+rng.Intn(5); i++ {
			s, d := rng.Int63n(40), rng.Int63n(40)
			if rng.Intn(3) == 0 {
				if ok, _ := ws.DelGraphEdge("u", s, d); ok != delUEdge(g, s, d) {
					t.Fatalf("step %d: deledge {%d,%d} changed=%v", step, s, d, ok)
				} else if ok {
					deltas = append(deltas, graph.Delta{Op: graph.DeltaDelEdge, Src: s, Dst: d})
				}
			} else if ok, _ := ws.AddGraphEdge("u", s, d); ok != g.AddEdge(s, d) {
				t.Fatalf("step %d: addedge {%d,%d} changed=%v", step, s, d, ok)
			} else if ok {
				deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
			}
		}
		if len(deltas) > 0 {
			folds++
		}
		newUV, err := ws.UndirectedView("u")
		if err != nil {
			t.Fatal(err)
		}
		sameUViewT(t, fmt.Sprintf("step %d", step), newUV, graph.BuildUView(g))
		incrTri := algo.TrianglesIncr(uv, newUV, tri, deltas)
		if coldTri := algo.TrianglesView(newUV); incrTri != coldTri {
			t.Fatalf("step %d: incremental triangles %d, cold says %d", step, incrTri, coldTri)
		}
		uv, tri = newUV, incrTri
	}
	if patches, rebuilds := ws.PatchStats(); patches != folds || rebuilds != 0 {
		t.Fatalf("patches/rebuilds %d/%d, want %d folds (one per step that changed the graph) and no rebuild", patches, rebuilds, folds)
	}
}

// TestPatchThresholdBoundary pins the patch-vs-project cutoff for a
// directed binding's undirected view exactly: with a base of V+E = 100 and
// ratio 0.1, a 10-delta batch patches the cached projection and an
// 11-delta batch projects afresh. The binding's own view folds either way.
func TestPatchThresholdBoundary(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 40; i++ {
		g.AddEdge(i, (i+1)%40) // ring: 40 nodes, 40 edges
	}
	for i := int64(40); i < 60; i++ {
		g.AddNode(i) // 20 isolated nodes -> V+E = 100
	}
	ws := NewWorkspace()
	ws.patchRatio = 0.1
	ws.Set("g", Object{View: graph.BuildView(g)})
	if _, err := ws.UndirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if p, r := ws.PatchStats(); p != 0 || r != 1 {
		t.Fatalf("after warm build: patches=%d rebuilds=%d, want 0/1", p, r)
	}
	mutate := func(ok bool, err error) {
		t.Helper()
		if err != nil || !ok {
			t.Fatalf("mutation: ok=%v err=%v", ok, err)
		}
	}

	// Exactly at the cutoff: 5 deletes + 5 adds keeps V+E at 100.
	for i := int64(0); i < 5; i++ {
		delEdge(g, 2*i, 2*i+1)
		mutate(ws.DelGraphEdge("g", 2*i, 2*i+1))
		g.AddEdge(40+2*i, 41+2*i)
		mutate(ws.AddGraphEdge("g", 40+2*i, 41+2*i))
	}
	v, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	sameUViewT(t, "at cutoff", v, graph.BuildUView(undirectedPerEdge(g)))
	if p, r := ws.PatchStats(); p != 2 || r != 1 {
		t.Fatalf("batch at cutoff: patches=%d rebuilds=%d, want 2/1 (a fold and a patch)", p, r)
	}

	// One past the cutoff: 11 effective deltas against the freshly cached
	// base (still V+E = 100) must project afresh.
	for i := int64(5); i < 10; i++ {
		delEdge(g, 2*i, 2*i+1)
		mutate(ws.DelGraphEdge("g", 2*i, 2*i+1))
		g.AddEdge(40+2*i, 41+2*i)
		mutate(ws.AddGraphEdge("g", 40+2*i, 41+2*i))
	}
	g.AddEdge(40, 42)
	mutate(ws.AddGraphEdge("g", 40, 42))
	v, err = ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	sameUViewT(t, "past cutoff", v, graph.BuildUView(undirectedPerEdge(g)))
	if p, r := ws.PatchStats(); p != 3 || r != 2 {
		t.Fatalf("batch past cutoff: patches=%d rebuilds=%d, want 3/2 (a fold and a projection)", p, r)
	}
}

// TestMutationKeepsSiblingViews is the purge-granularity regression: a
// mutation of binding X must not disturb the warm views of binding Y —
// whether the mutation is a delta-logged edge update or a wholesale Touch
// — and X's own pre-mutation undirected view must stay resident as the
// patch base.
func TestMutationKeepsSiblingViews(t *testing.T) {
	mkRing := func(n int64) *graph.Directed {
		g := graph.NewDirected()
		for i := int64(0); i < n; i++ {
			g.AddEdge(i, (i+1)%n)
		}
		return g
	}
	ws := NewWorkspace()
	ws.Set("x", Object{View: graph.BuildView(mkRing(20))})
	ws.Set("y", Object{View: graph.BuildView(mkRing(12))})

	uy, err := ws.UndirectedView("y")
	if err != nil {
		t.Fatal(err)
	}
	ux, err := ws.UndirectedView("x")
	if err != nil {
		t.Fatal(err)
	}
	hits0, _, entries0, _ := ws.ViewCacheStats()
	if entries0 != 2 {
		t.Fatalf("expected 2 warm views, have %d", entries0)
	}

	// Delta-logged mutation of x: y's view must still hit, and x's old
	// view must survive as the patch base.
	if ok, err := ws.AddGraphEdge("x", 100, 101); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != entries0 {
		t.Fatalf("mutation of x changed resident view count: %d -> %d", entries0, entries)
	}
	uy2, err := ws.UndirectedView("y")
	if err != nil {
		t.Fatal(err)
	}
	if uy2 != uy {
		t.Fatal("warm view of y did not survive a mutation of x")
	}
	hits1, _, _, _ := ws.ViewCacheStats()
	if hits1 != hits0+1 {
		t.Fatalf("y's re-query was not a cache hit: hits %d -> %d", hits0, hits1)
	}
	ux2, err := ws.UndirectedView("x")
	if err != nil {
		t.Fatal(err)
	}
	if ux2 == ux {
		t.Fatal("x's view was not refreshed after its mutation")
	}
	if p, r := ws.PatchStats(); p != 2 || r != 2 {
		t.Fatalf("x's refresh should fold x and patch its retained base: patches=%d rebuilds=%d, want 2/2", p, r)
	}

	// Wholesale Touch of x: y still untouched.
	ws.Touch("x")
	uy3, err := ws.UndirectedView("y")
	if err != nil {
		t.Fatal(err)
	}
	if uy3 != uy {
		t.Fatal("warm view of y did not survive a Touch of x")
	}
}

// TestMutateGraphErrors pins the error surface of the mutation API.
func TestMutateGraphErrors(t *testing.T) {
	ws := NewWorkspace()
	if _, err := ws.AddGraphEdge("nope", 1, 2); err == nil {
		t.Fatal("expected error for unknown binding")
	}
	ws.Set("s", Object{Scores: algo.Scores{{ID: 1, Score: 1}}})
	if _, err := ws.AddGraphEdge("s", 1, 2); err == nil {
		t.Fatal("expected error for non-graph binding")
	}
	ws.Set("g", Object{Graph: graph.NewDirected()})
	if _, err := ws.AddGraphNode("g", graph.ReservedNodeID); err == nil {
		t.Fatal("expected error for reserved node id")
	}
	if ok, err := ws.AddGraphEdge("g", 1, 2); err != nil || !ok {
		t.Fatalf("first add: ok=%v err=%v", ok, err)
	}
	if ok, err := ws.AddGraphEdge("g", 1, 2); err != nil || ok {
		t.Fatalf("duplicate add should be a logged no-op: ok=%v err=%v", ok, err)
	}
	if ok, err := ws.DelGraphEdge("g", 7, 8); err != nil || ok {
		t.Fatalf("deleting a missing edge should be a no-op: ok=%v err=%v", ok, err)
	}
	if n := ws.DeltaEdges(); n != 1 {
		t.Fatalf("only the effective mutation should be logged, DeltaEdges=%d", n)
	}
	if d := ws.PendingDeltas("g"); len(d) != 1 || d[0].Op != graph.DeltaAddEdge {
		t.Fatalf("unexpected pending deltas: %+v", d)
	}
}

// TestIncrementalConcurrentReaders exercises the patch machinery under the
// race detector with the server's access pattern: mutations happen in
// exclusive phases (the session lock), then many goroutines concurrently
// materialize and read patched views of both orientations.
func TestIncrementalConcurrentReaders(t *testing.T) {
	rng := rand.New(rand.NewSource(41))
	g := graph.NewDirected()
	for i := 0; i < 300; i++ {
		g.AddEdge(rng.Int63n(80), rng.Int63n(80))
	}
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g})
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	for round := 0; round < 6; round++ {
		for i := 0; i < 4; i++ {
			s, d := rng.Int63n(90), rng.Int63n(90)
			g.AddEdge(s, d)
			ws.AddGraphEdge("g", s, d)
		}
		want := graph.BuildView(g)
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				v, err := ws.DirectedView("g")
				if err != nil {
					t.Error(err)
					return
				}
				if v.NumNodes() != want.NumNodes() || v.NumEdges() != want.NumEdges() {
					t.Errorf("concurrent reader saw wrong view shape: %d/%d vs %d/%d",
						v.NumNodes(), v.NumEdges(), want.NumNodes(), want.NumEdges())
				}
				if _, err := ws.UndirectedView("g"); err != nil {
					t.Error(err)
				}
			}()
		}
		wg.Wait()
	}
}
