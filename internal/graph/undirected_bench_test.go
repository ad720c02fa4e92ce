package graph_test

import (
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// BenchmarkProjectUView is the undirected projection of a directed view,
// the input of Table 3's triangle row and Table 6's 3-core, at the
// update-query workload's graph size: R-MAT 2^15 with 200 000 edges.
func BenchmarkProjectUView(b *testing.B) {
	src, dst := gen.RMATEdges(15, 200000, 0.57, 0.19, 0.19, 1)
	v, err := graph.BuildViewCols(src, dst, nil)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if u := graph.ProjectUView(v); u.NumNodes() != v.NumNodes() {
			b.Fatal(u.NumNodes())
		}
	}
}
