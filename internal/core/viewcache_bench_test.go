package core

import (
	"testing"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/graph"
)

// benchWorkspace binds one R-MAT graph in a fresh workspace.
func benchWorkspace(b *testing.B) (*Workspace, *graph.Directed) {
	b.Helper()
	spec := Spec{Name: "bench", RMATScale: 14, Edges: 120_000, Seed: 42}
	g, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		b.Fatal(err)
	}
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g})
	return ws, g
}

// BenchmarkDenseViewBuild is the cold path every query used to pay: one
// full O(V+E) CSR construction per invocation.
func BenchmarkDenseViewBuild(b *testing.B) {
	_, g := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		graph.BuildView(g)
	}
}

// BenchmarkDenseViewCached is the warm path: the binding is its view,
// served in place — no allocations, no O(V+E) work.
func BenchmarkDenseViewCached(b *testing.B) {
	ws, _ := benchWorkspace(b)
	if _, err := ws.DirectedView("g"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ws.DirectedView("g"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkPageRankCold measures a first query on a fresh graph: view
// construction plus ten power iterations.
func BenchmarkPageRankCold(b *testing.B) {
	_, g := benchWorkspace(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10)
	}
}

// BenchmarkPageRankWarm measures every query on the bound graph: its view
// goes straight to flat-array compute.
func BenchmarkPageRankWarm(b *testing.B) {
	ws, _ := benchWorkspace(b)
	if _, err := ws.DirectedView("g"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v, err := ws.DirectedView("g")
		if err != nil {
			b.Fatal(err)
		}
		algo.PageRankView(v, algo.DefaultDamping, 10)
	}
}

// BenchmarkMutateThenQuery times the undirected projection a directed
// binding holds, on an R-MAT 2^16 graph of 400K edges. One op is one
// cycle:
//   - undirected: an addedge, then the undirected query, which folds the
//     binding's view and patches the projection forward;
//   - directed-after-undirected: after one undirected query, an addedge
//     and a directed query, whose fold keeps the deltas the projection
//     still needs;
//   - rename: an undirected query, a Rename, and the undirected query
//     under the new name.
func BenchmarkMutateThenQuery(b *testing.B) {
	spec := Spec{Name: "mutate", RMATScale: 16, Edges: 400_000, Seed: 42}
	g, err := conv.ToDirected(spec.CachedEdgeTable(), "src", "dst")
	if err != nil {
		b.Fatal(err)
	}
	base := graph.BuildView(g)
	bind := func() *Workspace {
		ws := NewWorkspace()
		ws.Set("g", Object{View: base})
		return ws
	}
	// addEdge adds an edge no earlier cycle added, so every cycle logs one.
	addEdge := func(ws *Workspace, name string, i int) {
		if ok, err := ws.AddGraphEdge(name, int64(1<<20+i), int64(i%(1<<16))); err != nil || !ok {
			b.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
		}
	}
	query := func(ws *Workspace, name string, undirected bool) {
		var err error
		if undirected {
			_, err = ws.UndirectedView(name)
		} else {
			_, err = ws.DirectedView(name)
		}
		if err != nil {
			b.Fatal(err)
		}
	}
	b.Run("undirected", func(b *testing.B) {
		ws := bind()
		query(ws, "g", true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addEdge(ws, "g", i)
			query(ws, "g", true)
		}
	})
	b.Run("directed-after-undirected", func(b *testing.B) {
		ws := bind()
		query(ws, "g", true)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			addEdge(ws, "g", i)
			query(ws, "g", false)
		}
	})
	b.Run("rename", func(b *testing.B) {
		ws := bind()
		from, to := "g", "h"
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			query(ws, from, true)
			if err := ws.Rename(from, to); err != nil {
				b.Fatal(err)
			}
			query(ws, to, true)
			from, to = to, from
		}
	})
}
