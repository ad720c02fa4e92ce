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

// BenchmarkDenseViewCached is the warm path: the fingerprint-keyed cache
// answers with the resident view — near-zero allocations, no O(V+E) work.
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

// BenchmarkPageRankWarm measures every later query on the unchanged graph:
// the cached view goes straight to flat-array compute.
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
