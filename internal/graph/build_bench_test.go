package graph_test

import (
	"fmt"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// BenchmarkBuildViewCols times the table-to-CSR build tograph binds, at the
// cold-pipeline workload's size (R-MAT 2^12, 25 000 edges) and the
// update-query workload's (2^15, 200 000).
func BenchmarkBuildViewCols(b *testing.B) {
	for _, sz := range []struct {
		scale int
		edges int64
	}{{12, 25000}, {15, 200000}} {
		src, dst := gen.RMATEdges(sz.scale, sz.edges, 0.57, 0.19, 0.19, 1)
		b.Run(fmt.Sprintf("rmat%d", sz.scale), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := graph.BuildViewCols(src, dst); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
