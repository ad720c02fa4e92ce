package graph_test

import (
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// BenchmarkAsUndirected is the undirected projection of a heap graph, the
// input of Table 3's triangle row and Table 6's 3-core, at the
// update-query workload's graph size: R-MAT 2^15 with 200 000 edges.
func BenchmarkAsUndirected(b *testing.B) {
	src, dst := gen.RMATEdges(15, 200000, 0.57, 0.19, 0.19, 1)
	g, err := graph.BuildDirectedCols(src, dst)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := graph.AsUndirected(g); u.NumNodes() != g.NumNodes() {
			b.Fatal(u.NumNodes())
		}
	}
}
