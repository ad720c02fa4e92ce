package core

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"

	"ringo/internal/algo"
)

func testGraph(n, m int, seed int64) model {
	rng := rand.New(rand.NewSource(seed))
	g := newModel(false)
	for i := 0; i < m; i++ {
		g.addEdge(int64(rng.Intn(n)), int64(rng.Intn(n)))
	}
	return g
}

func TestDirectedViewCachedUntilMutation(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(100, 400, 1).graph()})

	v1, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if v2, _ := ws.DirectedView("g"); v1 != v2 {
		t.Fatal("second DirectedView on unchanged graph built another view")
	}
	u1, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if u2, _ := ws.UndirectedView("g"); u1 != u2 {
		t.Fatal("second UndirectedView on unchanged graph rebuilt the view")
	}
	hits, misses, entries, bytes := ws.ViewCacheStats()
	if hits != 1 || misses != 1 || entries != 1 {
		t.Fatalf("stats = %d hits, %d misses, %d entries; want 1/1/1", hits, misses, entries)
	}
	if bytes <= 0 {
		t.Fatalf("held projection bytes = %d, want > 0", bytes)
	}

	// Touch evicts the projection; a mutation yields a fresh view that
	// sees the new edge.
	ws.Touch("g")
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 0 {
		t.Fatalf("Touch left %d view entries", entries)
	}
	if ok, err := ws.AddGraphEdge("g", 1000, 2000); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	v3, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if v3 == v1 {
		t.Fatal("view served after mutation is the stale snapshot")
	}
	if _, ok := v3.Index(2000); !ok {
		t.Fatal("post-mutation view does not contain the new node")
	}
}

func TestViewPurgeOnSetDeleteRename(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("a", Object{Graph: testGraph(50, 200, 2).graph()})
	ws.Set("b", Object{Graph: testGraph(50, 200, 3).graph()})
	if _, err := ws.UndirectedView("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := ws.UndirectedView("b"); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 2 {
		t.Fatalf("want 2 entries, got %d", entries)
	}
	// Rebinding a purges its view only.
	ws.Set("a", Object{Graph: testGraph(50, 200, 4).graph()})
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("rebind: want 1 entry left, got %d", entries)
	}
	// Renaming b carries its projection along: the graph is unchanged.
	if err := ws.Rename("b", "c"); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("rename: want 1 entry, got %d", entries)
	}
	if !ws.Delete("c") {
		t.Fatal("delete failed")
	}
	if _, _, entries, bytes := ws.ViewCacheStats(); entries != 0 || bytes != 0 {
		t.Fatalf("delete: want no projection held, got %d, %d bytes", entries, bytes)
	}
}

func TestViewPurgeOnRestore(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(50, 200, 5).graph()})
	u1, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := ws.Snapshot(&buf); err != nil {
		t.Fatal(err)
	}
	if err := ws.Restore(&buf); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 0 {
		t.Fatalf("restore left %d view entries", entries)
	}
	u2, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if u2 == u1 {
		t.Fatal("view of restored object is the pre-restore snapshot")
	}
}

func TestUndirectedViewOfDirectedGraph(t *testing.T) {
	ws := NewWorkspace()
	g := testGraph(60, 300, 6)
	ws.Set("g", Object{Graph: g.graph()})
	uv, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	u := g.uview()
	if uv.NumNodes() != u.NumNodes() || uv.NumEdges() != u.NumEdges() {
		t.Fatalf("uview %d/%d, projection %d/%d",
			uv.NumNodes(), uv.NumEdges(), u.NumNodes(), u.NumEdges())
	}
	uv2, err := ws.UndirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if uv2 != uv {
		t.Fatal("undirected view rebuilt on unchanged graph")
	}
	// The binding's directed view is its own: it holds no second entry.
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("want 1 entry (the projection), got %d", entries)
	}

	// An undirected binding serves its own view through the same call.
	bound := u
	ws.Set("u", Object{UView: bound})
	if uv3, err := ws.UndirectedView("u"); err != nil || uv3 != bound {
		t.Fatalf("uview of undirected binding is not its own view (err %v)", err)
	}
}

// TestAlgorithmsCachedVsBypassed is the cache-correctness gate: every
// algorithm must return identical results whether its view came from the
// binding (twice, to cover the held projection) or was built fresh in a
// new workspace each round.
func TestAlgorithmsCachedVsBypassed(t *testing.T) {
	g := testGraph(80, 400, 7)
	cached := NewWorkspace()
	cached.Set("g", Object{Graph: g.graph()})

	for round := 0; round < 2; round++ { // round 1 is served what round 0 built
		bypass := NewWorkspace()
		bypass.Set("g", Object{Graph: g.graph()})
		cv, err := cached.DirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		bv, err := bypass.DirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		if round == 1 && bv == cv {
			t.Fatal("bypass workspace served a cached view")
		}
		prC := algo.PageRankView(cv, algo.DefaultDamping, 10)
		prB := algo.PageRankView(bv, algo.DefaultDamping, 10)
		dv := g.view() // the workspace-free oracle
		prDirect := algo.PageRankView(dv, algo.DefaultDamping, 10)
		// One kernel over structurally identical views: bit-equal results.
		if !slices.Equal(prC, prDirect) {
			t.Fatalf("round %d: cached pagerank diverges", round)
		}
		if !slices.Equal(prB, prDirect) {
			t.Fatalf("round %d: bypassed pagerank diverges", round)
		}
		wC, wB, wD := algo.WCCView(cv), algo.WCCView(bv), algo.WCCView(dv)
		if wC.Count != wD.Count || wB.Count != wD.Count || wC.MaxSize != wD.MaxSize {
			t.Fatalf("round %d: wcc diverges: %d/%d/%d", round, wC.Count, wB.Count, wD.Count)
		}
		sC, sD := algo.SCCView(cv), algo.SCCView(dv)
		if sC.Count != sD.Count || sC.MaxSize != sD.MaxSize {
			t.Fatalf("round %d: scc diverges", round)
		}

		cu, err := cached.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		bu, err := bypass.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		u := g.uview()
		if tc, tb, td := algo.TrianglesView(cu), algo.TrianglesView(bu), algo.TrianglesView(u); tc != td || tb != td {
			t.Fatalf("round %d: triangles diverge: %d/%d/%d", round, tc, tb, td)
		}
		nodes, edges := algo.KCoreStatsView(cu, 3)
		k := algo.KCore(u, 3)
		if nodes != k.NumNodes() || edges != k.NumEdges() {
			t.Fatalf("round %d: 3-core stats %d/%d, subgraph %d/%d",
				round, nodes, edges, k.NumNodes(), k.NumEdges())
		}
	}
}

// TestViewPurgeExactName guards the key scheme: purging one binding must
// not touch another whose name merely shares a prefix — including names
// containing '#', which a string-fingerprint prefix match would confuse.
func TestViewPurgeExactName(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(40, 150, 9).graph()})
	ws.Set("g#1", Object{Graph: testGraph(40, 150, 10).graph()})
	if _, err := ws.UndirectedView("g"); err != nil {
		t.Fatal(err)
	}
	u1, err := ws.UndirectedView("g#1")
	if err != nil {
		t.Fatal(err)
	}
	ws.Touch("g")
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("purging %q left %d entries, want 1 (%q untouched)", "g", entries, "g#1")
	}
	u2, err := ws.UndirectedView("g#1")
	if err != nil {
		t.Fatal(err)
	}
	if u1 != u2 {
		t.Fatalf("view of %q was rebuilt after mutating %q", "g#1", "g")
	}
}

// TestWarmViewAllocs pins the acceptance criterion: a warm view lookup must
// not rebuild anything — a binding's own view is served in place, and so
// is the projection it holds.
func TestWarmViewAllocs(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: testGraph(200, 1000, 8).graph()})
	if _, err := ws.UndirectedView("g"); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := ws.DirectedView("g"); err != nil {
			t.Fatal(err)
		}
		if _, err := ws.UndirectedView("g"); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 6 {
		t.Fatalf("warm DirectedView + UndirectedView do %v allocs/op; the O(V+E) build is not being skipped", allocs)
	}
}
