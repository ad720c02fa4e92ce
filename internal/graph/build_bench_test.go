package graph_test

import (
	"bytes"
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
				if _, err := graph.BuildViewCols(src, dst, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkLoadBinary times the RNGO decode loadgraph and restore run, at
// R-MAT 2^15 with 200 000 edges and 2^16 with 400 000: view is LoadBinary,
// streaming the records into columns for BuildViewCols, and hash is the
// hash-of-nodes reference decoder it replaced (binaryref_test.go).
func BenchmarkLoadBinary(b *testing.B) {
	for _, sz := range []struct {
		scale int
		edges int64
	}{{15, 200000}, {16, 400000}} {
		src, dst := gen.RMATEdges(sz.scale, sz.edges, 0.57, 0.19, 0.19, 1)
		v, err := graph.BuildViewCols(src, dst, nil)
		if err != nil {
			b.Fatal(err)
		}
		var buf bytes.Buffer
		if err := graph.SaveBinary(&buf, v); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		for _, dec := range []struct {
			name string
			load func() error
		}{
			{"view", func() error { _, err := graph.LoadBinary(bytes.NewReader(data)); return err }},
			{"hash", func() error { _, err := graph.LoadBinaryHash(bytes.NewReader(data)); return err }},
		} {
			b.Run(fmt.Sprintf("rmat%d/%s", sz.scale, dec.name), func(b *testing.B) {
				b.SetBytes(int64(len(data)))
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if err := dec.load(); err != nil {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
