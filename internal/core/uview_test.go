package core

import (
	"fmt"
	"math/rand"
	"testing"

	"ringo/internal/graph"
)

// undirectedPerEdge is the undirected projection as one AddEdge per
// directed edge, the reference every UndirectedView arm is held to.
func undirectedPerEdge(g *graph.Directed) *graph.Undirected {
	u := graph.NewUndirectedCap(0)
	g.ForNodes(func(id int64) { u.AddNode(id) })
	g.ForEdges(func(src, dst int64) { u.AddEdge(src, dst) })
	return u
}

// randProjectionGraph draws a directed graph with self-loops, reciprocal
// arcs, isolated nodes and tombstoned slots.
func randProjectionGraph(rng *rand.Rand) *graph.Directed {
	g := graph.NewDirected()
	for i := 0; i < 200; i++ {
		a, b := rng.Int63n(60), rng.Int63n(60)
		g.AddEdge(a, b)
		switch rng.Intn(8) {
		case 0:
			g.AddEdge(b, a)
		case 1:
			g.AddEdge(a, a)
		}
	}
	for id := int64(100); id < 106; id++ {
		g.AddNode(id)
	}
	for i := 0; i < 8; i++ {
		g.DelNode(rng.Int63n(60))
	}
	return g
}

// TestUndirectedViewMatchesPerEdge holds each way UndirectedView builds a
// directed binding's view to the per-edge projection, and pins what each
// way books: a patch for a resident undirected base, else one rebuild, and
// one cache entry either way. Every arm runs on a binding set from a hash
// graph (Object.Graph, bound as its view) and on one set from its view
// (Object.View, as tograph binds).
func TestUndirectedViewMatchesPerEdge(t *testing.T) {
	mutate := func(ws *Workspace, rng *rand.Rand) {
		for i := 0; i < 6; i++ {
			s, d := rng.Int63n(70), rng.Int63n(70)
			if rng.Intn(3) == 0 {
				ws.DelGraphEdge("g", s, d)
			} else {
				ws.AddGraphEdge("g", s, d)
			}
		}
		if _, err := ws.AddGraphEdge("g", 200, 201); err != nil { // at least one takes
			t.Fatal(err)
		}
	}
	directed := func(ws *Workspace) {
		if _, err := ws.DirectedView("g"); err != nil {
			t.Fatal(err)
		}
	}
	arms := []struct {
		name  string
		prep  func(ws *Workspace, rng *rand.Rand)
		patch bool
	}{
		{"cold", func(*Workspace, *rand.Rand) {}, false},
		{"resident directed", func(ws *Workspace, _ *rand.Rand) { directed(ws) }, false},
		{"patched undirected", func(ws *Workspace, rng *rand.Rand) {
			if _, err := ws.UndirectedView("g"); err != nil {
				t.Fatal(err)
			}
			mutate(ws, rng)
		}, true},
		{"patched directed", func(ws *Workspace, rng *rand.Rand) {
			directed(ws)
			mutate(ws, rng)
			directed(ws)
		}, false},
	}
	for seed := int64(1); seed <= 10; seed++ {
		for _, arm := range arms {
			frozen := seed%2 == 0
			ctx := fmt.Sprintf("seed %d, %s, set from a view %v", seed, arm.name, frozen)
			rng := rand.New(rand.NewSource(seed))
			ws := NewWorkspace()
			if g := randProjectionGraph(rng); frozen {
				ws.Set("g", Object{View: graph.BuildView(g)})
			} else {
				ws.Set("g", Object{Graph: g})
			}
			arm.prep(ws, rng)
			g, err := ws.Graph("g")
			if err != nil {
				t.Fatal(err)
			}
			p0, r0 := ws.PatchStats()
			_, _, n0, _ := ws.ViewCacheStats()
			uv, err := ws.UndirectedView("g")
			if err != nil {
				t.Fatal(err)
			}
			sameUViewT(t, ctx, uv, graph.BuildUView(undirectedPerEdge(g)))
			p1, r1 := ws.PatchStats()
			if arm.patch != (p1 == p0+1) || p1+r1 != p0+r0+1 {
				t.Fatalf("%s: patches %d→%d, rebuilds %d→%d", ctx, p0, p1, r0, r1)
			}
			want := n0 + 1
			if arm.patch {
				want = n0 // the patched view supersedes its base
			}
			if _, _, n1, _ := ws.ViewCacheStats(); n1 != want {
				t.Fatalf("%s: view cache entries %d→%d, want %d", ctx, n0, n1, want)
			}
		}
	}

	g := randProjectionGraph(rand.New(rand.NewSource(9)))
	ws := NewWorkspace()
	ws.Set("m", Object{Mapped: openMappedTestGraph(t, g)})
	uv, err := ws.UndirectedView("m")
	if err != nil {
		t.Fatal(err)
	}
	sameUViewT(t, "mapped", uv, graph.BuildUView(undirectedPerEdge(g)))
}
