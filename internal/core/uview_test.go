package core

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ringo/internal/graph"
)

// symmetricUView is the CSR view of the undirected graph with edges
// {srcs[i], dsts[i]} plus nodes, built from symmetric columns alone: the
// directed view BuildViewCols makes of both arcs of every edge has the
// undirected adjacency as its out-arrays, so no projection code is on the
// road of a reference built with it.
func symmetricUView(srcs, dsts, nodes []int64) *graph.UView {
	v, err := graph.BuildViewCols(append(slices.Clone(srcs), dsts...), append(slices.Clone(dsts), srcs...), nodes)
	if err != nil {
		panic(err)
	}
	ids, off, _, out, _ := v.ViewParts()
	u, err := graph.UViewFromArrays(ids, off, out, nil)
	if err != nil {
		panic(err)
	}
	return u
}

// projectionRef is the undirected projection of a directed view, built
// from its arcs by symmetricUView.
func projectionRef(v *graph.View) *graph.UView {
	var srcs, dsts []int64
	for u, id := range v.IDs() {
		for _, x := range v.Out(int32(u)) {
			srcs, dsts = append(srcs, id), append(dsts, v.ID(x))
		}
	}
	return symmetricUView(srcs, dsts, v.IDs())
}

// model is the per-edge model graph the binding tests mutate beside a
// workspace binding: its nodes, and its edges keyed (src, dst), or
// (min, max) when undirected. A node stays when its last edge goes.
type model struct {
	undirected bool
	nodes      map[int64]bool
	edges      map[[2]int64]bool
}

func newModel(undirected bool) model {
	return model{undirected, map[int64]bool{}, map[[2]int64]bool{}}
}

func (m model) key(a, b int64) [2]int64 {
	if m.undirected {
		return [2]int64{min(a, b), max(a, b)}
	}
	return [2]int64{a, b}
}

func (m model) hasNode(id int64) bool   { return m.nodes[id] }
func (m model) hasEdge(a, b int64) bool { return m.edges[m.key(a, b)] }

// addNode adds id, reporting whether it was new.
func (m model) addNode(id int64) bool {
	if m.nodes[id] {
		return false
	}
	m.nodes[id] = true
	return true
}

// addEdge adds the edge from a to b and its endpoints, reporting whether
// the edge was new.
func (m model) addEdge(a, b int64) bool {
	m.nodes[a], m.nodes[b] = true, true
	if m.edges[m.key(a, b)] {
		return false
	}
	m.edges[m.key(a, b)] = true
	return true
}

// delEdge deletes the edge from a to b, reporting whether it was there.
func (m model) delEdge(a, b int64) bool {
	if !m.edges[m.key(a, b)] {
		return false
	}
	delete(m.edges, m.key(a, b))
	return true
}

// delNode deletes id and its edges.
func (m model) delNode(id int64) {
	delete(m.nodes, id)
	for e := range m.edges {
		if e[0] == id || e[1] == id {
			delete(m.edges, e)
		}
	}
}

// cols returns the model's edge columns, one arc per edge, and its nodes.
func (m model) cols() (srcs, dsts, nodes []int64) {
	for e := range m.edges {
		srcs, dsts = append(srcs, e[0]), append(dsts, e[1])
	}
	return srcs, dsts, slices.Collect(maps.Keys(m.nodes))
}

// view is the directed view of the model's arcs.
func (m model) view() *graph.View {
	v, err := graph.BuildViewCols(m.cols())
	if err != nil {
		panic(err)
	}
	return v
}

// graph is the model as a fresh hash graph, the Object.Graph input form.
func (m model) graph() *graph.Directed { return graph.FromView(m.view()) }

// uview is the undirected view of the model, a directed model's
// projection: the reference every UndirectedView is held to, built by
// symmetricUView.
func (m model) uview() *graph.UView { return symmetricUView(m.cols()) }

// randProjectionGraph draws a directed graph with self-loops, reciprocal
// arcs, isolated nodes and deleted nodes.
func randProjectionGraph(rng *rand.Rand) model {
	g := newModel(false)
	for i := 0; i < 200; i++ {
		a, b := rng.Int63n(60), rng.Int63n(60)
		g.addEdge(a, b)
		switch rng.Intn(8) {
		case 0:
			g.addEdge(b, a)
		case 1:
			g.addEdge(a, a)
		}
	}
	for id := int64(100); id < 106; id++ {
		g.addNode(id)
	}
	for i := 0; i < 8; i++ {
		g.delNode(rng.Int63n(60))
	}
	return g
}

// TestUndirectedViewMatchesPerEdge holds each way UndirectedView builds a
// directed binding's view to the per-edge projection, and pins what each
// way books: a patch of the projection the binding holds, else one
// rebuild, and one held projection either way. Every arm runs on a binding set from a hash
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
				ws.Set("g", Object{View: g.view()})
			} else {
				ws.Set("g", Object{Graph: g.graph()})
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
			sameUViewT(t, ctx, uv, projectionRef(graph.BuildView(g)))
			p1, r1 := ws.PatchStats()
			if arm.patch != (p1 == p0+1) || p1+r1 != p0+r0+1 {
				t.Fatalf("%s: patches %d→%d, rebuilds %d→%d", ctx, p0, p1, r0, r1)
			}
			want := n0 + 1
			if arm.patch {
				want = n0 // the patched projection replaces the one held
			}
			if _, _, n1, _ := ws.ViewCacheStats(); n1 != want {
				t.Fatalf("%s: held projections %d→%d, want %d", ctx, n0, n1, want)
			}
		}
	}

	g := randProjectionGraph(rand.New(rand.NewSource(9)))
	ws := NewWorkspace()
	ws.Set("m", Object{Mapped: openMappedTestGraph(t, g.view())})
	uv, err := ws.UndirectedView("m")
	if err != nil {
		t.Fatal(err)
	}
	sameUViewT(t, "mapped", uv, g.uview())
}
