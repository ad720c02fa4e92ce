package core

import (
	"bytes"
	"slices"
	"sync"
	"testing"

	"ringo/internal/graph"
)

// sameViewArrays requires got to equal want array for array.
func sameViewArrays(t *testing.T, ctx string, got, want *graph.View) {
	t.Helper()
	ids, outOff, inOff, out, in := got.ViewParts()
	wids, wOutOff, wInOff, wOut, wIn := want.ViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(outOff, wOutOff) || !slices.Equal(inOff, wInOff) ||
		!slices.Equal(out, wOut) || !slices.Equal(in, wIn) {
		t.Fatalf("%s: view of %d nodes, %d edges differs from the model's %d, %d",
			ctx, got.NumNodes(), got.NumEdges(), want.NumNodes(), want.NumEdges())
	}
}

// sameUViewArrays is sameViewArrays for undirected views.
func sameUViewArrays(t *testing.T, ctx string, got, want *graph.UView) {
	t.Helper()
	ids, off, arena := got.UViewParts()
	wids, woff, warena := want.UViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(off, woff) || !slices.Equal(arena, warena) {
		t.Fatalf("%s: undirected view of %d nodes differs from the model's %d", ctx, got.NumNodes(), want.NumNodes())
	}
}

// FuzzBindingFold holds the fold — a graph binding's pending deltas
// patched into its view by the next query — to a per-edge model. The
// input's first byte picks how a directed binding "d" and an undirected
// one "u" start (Set of a hash graph, Set of a view, or Restore of a
// snapshot), the next bytes their initial edges, and the rest a script:
// AddGraphNode, AddGraphEdge and DelGraphEdge on both bindings (each must
// report the change the model reports, so no-op mutations occur as the
// model dictates), directed and undirected queries, Get, Snapshot +
// Restore, a Rename round trip and Touch. After every query the directed
// binding's view must equal the view of the model's edge columns array for
// array and its undirected view the model's symmetric columns'; so must
// the undirected binding's view, of its own model. Every script runs twice: at
// DefaultPatchRatio, and at ratio 0, where a projection that is behind is
// always projected afresh — the reference that holds no projection.
func FuzzBindingFold(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 2, 3, 3, 1, 9, 17, 4, 5, 25, 33, 12, 4, 5})
	f.Add([]byte{1, 2, 0, 0, 5, 6, 11, 19, 27, 35, 6, 4, 5, 3, 18, 4, 5})
	f.Add([]byte{2, 4, 1, 1, 2, 2, 3, 3, 4, 4, 9, 9, 10, 10, 4, 12, 13, 5, 6, 5, 4})
	f.Add([]byte{0, 0, 8, 16, 24, 40, 48, 56, 4, 5, 7, 6, 4, 5})
	// The lazy patch: an undirected query, mutations, directed queries
	// that fold them, then an undirected query that patches the held
	// projection forward; then the same with a Rename round trip between,
	// and a Touch that drops the projection before a Rename that keeps it.
	f.Add([]byte{1, 7, 4, 5, 5, 6, 6, 7, 7, 8, 8, 9, 9, 10, 10, 4, 5, 0, 0, 1, 4, 6, 4, 0, 0, 3, 4, 5, 4, 0, 0, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{0, 4, 5, 6, 6, 7, 7, 8, 8, 5, 5, 0, 0, 2, 9, 10, 4, 0, 0, 8, 0, 0, 5, 0, 0, 1, 11, 12, 4, 0, 0, 4, 0, 0, 5, 0, 0})
	f.Add([]byte{2, 2, 5, 6, 6, 7, 5, 0, 0, 2, 7, 9, 4, 0, 0, 9, 0, 0, 2, 9, 5, 4, 0, 0, 5, 0, 0, 8, 0, 0, 5, 0, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		for _, ratio := range []float64{DefaultPatchRatio, 0} {
			foldScript(t, data, ratio)
		}
	})
}

// foldScript runs one FuzzBindingFold input in a workspace whose
// patch-vs-project threshold is ratio.
func foldScript(t *testing.T, data []byte, ratio float64) {
	t.Helper()
	id := func(b byte) int64 { return int64(b%16) - 4 }
	md, mu := newModel(false), newModel(true)
	rest := data[2:]
	for i := 0; i < int(data[1]%8) && len(rest) >= 2; i++ {
		md.addEdge(id(rest[0]), id(rest[1]))
		mu.addEdge(id(rest[0]), id(rest[1]))
		rest = rest[2:]
	}
	ws := NewWorkspace()
	ws.patchRatio = ratio
	switch data[0] % 3 {
	case 0:
		ws.Set("d", Object{Graph: md.graph()})
		ws.Set("u", Object{UView: mu.uview()})
	case 1:
		ws.Set("d", Object{View: md.view()})
		ws.Set("u", Object{UView: mu.uview()})
	default:
		src := NewWorkspace()
		src.Set("d", Object{Graph: md.graph()})
		src.Set("u", Object{UView: mu.uview()})
		var buf bytes.Buffer
		if err := src.Snapshot(&buf); err != nil {
			t.Fatal(err)
		}
		if err := ws.Restore(&buf); err != nil {
			t.Fatal(err)
		}
	}
	check := func(ctx string, changed bool, err error, want bool) {
		t.Helper()
		if err != nil || changed != want {
			t.Fatalf("%s: changed=%v err=%v, the model says %v", ctx, changed, err, want)
		}
	}
	for len(rest) >= 3 {
		op, s, d := rest[0]%10, id(rest[1]), id(rest[2])
		rest = rest[3:]
		switch op {
		case 0:
			ok, err := ws.AddGraphNode("d", s)
			check("addnode d", ok, err, md.addNode(s))
			ok, err = ws.AddGraphNode("u", s)
			check("addnode u", ok, err, mu.addNode(s))
		case 1, 2:
			ok, err := ws.AddGraphEdge("d", s, d)
			check("addedge d", ok, err, md.addEdge(s, d))
			ok, err = ws.AddGraphEdge("u", s, d)
			check("addedge u", ok, err, mu.addEdge(s, d))
		case 3:
			ok, err := ws.DelGraphEdge("d", s, d)
			check("deledge d", ok, err, md.delEdge(s, d))
			ok, err = ws.DelGraphEdge("u", s, d)
			check("deledge u", ok, err, mu.delEdge(s, d))
		case 4:
			v, err := ws.DirectedView("d")
			if err != nil {
				t.Fatal(err)
			}
			sameViewArrays(t, "directed query", v, md.view())
		case 5:
			uv, err := ws.UndirectedView("d")
			if err != nil {
				t.Fatal(err)
			}
			v, err := ws.DirectedView("d")
			if err != nil {
				t.Fatal(err)
			}
			sameViewArrays(t, "undirected query", v, md.view())
			sameUViewArrays(t, "undirected query", uv, md.uview())
			uu, err := ws.UndirectedView("u")
			if err != nil {
				t.Fatal(err)
			}
			sameUViewArrays(t, "undirected binding", uu, mu.uview())
		case 6:
			var buf bytes.Buffer
			if err := ws.Snapshot(&buf); err != nil {
				t.Fatal(err)
			}
			if err := ws.Restore(&buf); err != nil {
				t.Fatal(err)
			}
		case 8:
			for _, name := range []string{"d", "u"} {
				if err := ws.Rename(name, name+"2"); err != nil {
					t.Fatal(err)
				}
				if err := ws.Rename(name+"2", name); err != nil {
					t.Fatal(err)
				}
			}
		case 9:
			ws.Touch("d")
			ws.Touch("u")
		default:
			o, _ := ws.Get("d")
			ou, _ := ws.Get("u")
			if o.View == nil || o.Graph != nil || ou.UView == nil {
				t.Fatalf("Get bound %+v and %+v, want views", o, ou)
			}
			sameViewArrays(t, "Get", o.View, md.view())
			sameUViewArrays(t, "Get", ou.UView, mu.uview())
		}
	}
}

// TestDeltaLogOverflowFolds: a mutation that finds the log full folds the
// pending deltas into the binding's view and restarts the log, so the
// binding never rebuilds and the log stays bounded, and the view still
// equals the view of the mutated graph.
func TestDeltaLogOverflowFolds(t *testing.T) {
	g := newModel(false)
	g.addEdge(0, 1)
	ws := NewWorkspace()
	ws.Set("g", Object{View: g.view()})
	for i := int64(0); i <= maxDeltaLog; i++ {
		g.addEdge(i%97, i)
		if ok, err := ws.AddGraphEdge("g", i%97, i); err != nil || !ok {
			t.Fatalf("AddGraphEdge(%d): ok=%v err=%v", i, ok, err)
		}
	}
	if n := ws.DeltaEdges(); n != 1 {
		t.Fatalf("log holds %d deltas after the overflow, want the one past the fold", n)
	}
	if p, r := ws.PatchStats(); p != 1 || r != 0 {
		t.Fatalf("patches/rebuilds %d/%d, want the one fold", p, r)
	}
	v, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	sameViewArrays(t, "after the overflow", v, g.view())
}

// TestHashGraphBuildsOnFirstQuery: a binding set from a hash graph holds
// it only until its first query, which builds the view once however many
// readers race for it (one rebuild, no patch) and rebinds it at the same
// version; a mutation before any query builds first, then logs its delta
// for the next query to fold.
func TestHashGraphBuildsOnFirstQuery(t *testing.T) {
	g := testGraph(50, 200, 4)
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g.graph()})
	fp, _ := ws.Fingerprint("g")
	if p, r := ws.PatchStats(); p != 0 || r != 0 || ws.Kind("g") != "graph" {
		t.Fatalf("Set: %d patches, %d rebuilds, kind %q; want nothing built", p, r, ws.Kind("g"))
	}
	views := make([]*graph.View, 8)
	var wg sync.WaitGroup
	for i := range views {
		wg.Add(1)
		go func() {
			defer wg.Done()
			var err error
			if views[i], err = ws.DirectedView("g"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, v := range views[1:] {
		if v != views[0] {
			t.Fatal("racing first readers got different views")
		}
	}
	if p, r := ws.PatchStats(); p != 0 || r != 1 {
		t.Fatalf("first readers: %d patches, %d rebuilds; want one build", p, r)
	}
	if got, _ := ws.Fingerprint("g"); got != fp {
		t.Fatalf("the build moved the fingerprint: %s -> %s", fp, got)
	}
	if o, _ := ws.Get("g"); o.View != views[0] || o.Graph != nil {
		t.Fatal("the built view was not rebound")
	}
	sameViewArrays(t, "first query", views[0], g.view())

	ws.Set("h", Object{Graph: g.graph()})
	if ok, err := ws.AddGraphEdge("h", 1000, 1); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if p, r := ws.PatchStats(); p != 0 || r != 2 || len(ws.PendingDeltas("h")) != 1 {
		t.Fatalf("mutation before a query: %d patches, %d rebuilds, %d pending; want a build and one delta",
			p, r, len(ws.PendingDeltas("h")))
	}
	v, err := ws.DirectedView("h")
	if err != nil {
		t.Fatal(err)
	}
	g.addEdge(1000, 1)
	sameViewArrays(t, "after the mutation", v, g.view())
	if p, r := ws.PatchStats(); p != 1 || r != 2 {
		t.Fatalf("query after the mutation: %d patches, %d rebuilds; want one fold", p, r)
	}
}
