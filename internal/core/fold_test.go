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

// delUEdge removes {a,b} from a model graph, reporting whether it was
// there. Outside package graph a hash graph deletes only whole nodes, so
// it drops a with DelNode and adds back every other edge a had.
func delUEdge(g *graph.Undirected, a, b int64) bool {
	if !g.HasEdge(a, b) {
		return false
	}
	nbrs := slices.Clone(g.Neighbors(a))
	g.DelNode(a)
	g.AddNode(a)
	for _, n := range nbrs {
		if n != b {
			g.AddEdge(a, n)
		}
	}
	return true
}

// delEdge is delUEdge for a directed model graph: it drops src with
// DelNode and adds back every other edge into and out of src.
func delEdge(g *graph.Directed, src, dst int64) bool {
	if !g.HasEdge(src, dst) {
		return false
	}
	out, in := slices.Clone(g.OutNeighbors(src)), slices.Clone(g.InNeighbors(src))
	g.DelNode(src)
	g.AddNode(src)
	for _, d := range out {
		if d != dst {
			g.AddEdge(src, d)
		}
	}
	for _, s := range in {
		if s != src {
			g.AddEdge(s, src)
		}
	}
	return true
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
// model dictates), directed and undirected queries, Get, and Snapshot +
// Restore. After every query the directed binding's view must equal
// BuildView of the model array for array and its undirected view
// ProjectUView of that view; the undirected binding's must equal
// BuildUView of its model.
func FuzzBindingFold(f *testing.F) {
	f.Add([]byte{0, 3, 1, 2, 2, 3, 3, 1, 9, 17, 4, 5, 25, 33, 12, 4, 5})
	f.Add([]byte{1, 2, 0, 0, 5, 6, 11, 19, 27, 35, 6, 4, 5, 3, 18, 4, 5})
	f.Add([]byte{2, 4, 1, 1, 2, 2, 3, 3, 4, 4, 9, 9, 10, 10, 4, 12, 13, 5, 6, 5, 4})
	f.Add([]byte{0, 0, 8, 16, 24, 40, 48, 56, 4, 5, 7, 6, 4, 5})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		id := func(b byte) int64 { return int64(b%16) - 4 }
		md, mu := graph.NewDirected(), graph.NewUndirectedCap(0)
		rest := data[2:]
		for i := 0; i < int(data[1]%8) && len(rest) >= 2; i++ {
			md.AddEdge(id(rest[0]), id(rest[1]))
			mu.AddEdge(id(rest[0]), id(rest[1]))
			rest = rest[2:]
		}
		ws := NewWorkspace()
		switch data[0] % 3 {
		case 0:
			ws.Set("d", Object{Graph: md.Clone()})
			ws.Set("u", Object{UView: graph.BuildUView(mu)})
		case 1:
			ws.Set("d", Object{View: graph.BuildView(md)})
			ws.Set("u", Object{UView: graph.BuildUView(mu)})
		default:
			src := NewWorkspace()
			src.Set("d", Object{Graph: md.Clone()})
			src.Set("u", Object{UView: graph.BuildUView(mu)})
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
			op, s, d := rest[0]%8, id(rest[1]), id(rest[2])
			rest = rest[3:]
			switch op {
			case 0:
				ok, err := ws.AddGraphNode("d", s)
				check("addnode d", ok, err, md.AddNode(s))
				ok, err = ws.AddGraphNode("u", s)
				check("addnode u", ok, err, mu.AddNode(s))
			case 1, 2:
				ok, err := ws.AddGraphEdge("d", s, d)
				check("addedge d", ok, err, md.AddEdge(s, d))
				ok, err = ws.AddGraphEdge("u", s, d)
				check("addedge u", ok, err, mu.AddEdge(s, d))
			case 3:
				ok, err := ws.DelGraphEdge("d", s, d)
				check("deledge d", ok, err, delEdge(md, s, d))
				ok, err = ws.DelGraphEdge("u", s, d)
				check("deledge u", ok, err, delUEdge(mu, s, d))
			case 4:
				v, err := ws.DirectedView("d")
				if err != nil {
					t.Fatal(err)
				}
				sameViewArrays(t, "directed query", v, graph.BuildView(md))
			case 5:
				uv, err := ws.UndirectedView("d")
				if err != nil {
					t.Fatal(err)
				}
				v, err := ws.DirectedView("d")
				if err != nil {
					t.Fatal(err)
				}
				sameViewArrays(t, "undirected query", v, graph.BuildView(md))
				sameUViewArrays(t, "undirected query", uv, graph.ProjectUView(v))
				uu, err := ws.UndirectedView("u")
				if err != nil {
					t.Fatal(err)
				}
				sameUViewArrays(t, "undirected binding", uu, graph.BuildUView(mu))
			case 6:
				var buf bytes.Buffer
				if err := ws.Snapshot(&buf); err != nil {
					t.Fatal(err)
				}
				if err := ws.Restore(&buf); err != nil {
					t.Fatal(err)
				}
			default:
				o, _ := ws.Get("d")
				ou, _ := ws.Get("u")
				if o.View == nil || o.Graph != nil || ou.UView == nil {
					t.Fatalf("Get bound %+v and %+v, want views", o, ou)
				}
				sameViewArrays(t, "Get", o.View, graph.BuildView(md))
				sameUViewArrays(t, "Get", ou.UView, graph.BuildUView(mu))
			}
		}
	})
}

// TestDeltaLogOverflowFolds: a mutation that finds the log full folds the
// pending deltas into the binding's view and restarts the log, so the
// binding never rebuilds and the log stays bounded, and the view still
// equals BuildView of the mutated graph.
func TestDeltaLogOverflowFolds(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(0, 1)
	ws := NewWorkspace()
	ws.Set("g", Object{View: graph.BuildView(g)})
	for i := int64(0); i <= maxDeltaLog; i++ {
		g.AddEdge(i%97, i)
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
	sameViewArrays(t, "after the overflow", v, graph.BuildView(g))
}

// TestHashGraphBuildsOnFirstQuery: a binding set from a hash graph holds
// it only until its first query, which builds the view once however many
// readers race for it (one rebuild, no patch) and rebinds it at the same
// version; a mutation before any query builds first, then logs its delta
// for the next query to fold.
func TestHashGraphBuildsOnFirstQuery(t *testing.T) {
	g := testGraph(50, 200, 4)
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g.Clone()})
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
	sameViewArrays(t, "first query", views[0], graph.BuildView(g))

	ws.Set("h", Object{Graph: g.Clone()})
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
	g.AddEdge(1000, 1)
	sameViewArrays(t, "after the mutation", v, graph.BuildView(g))
	if p, r := ws.PatchStats(); p != 1 || r != 2 {
		t.Fatalf("query after the mutation: %d patches, %d rebuilds; want one fold", p, r)
	}
}
