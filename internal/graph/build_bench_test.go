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

// The paper's §2.2 argument: CSR deletion is linear in the total edge
// count; the hash-of-nodes design is linear in node degree. The CSR side is
// the code that maintains CSR views under mutation, graph.PatchView, timed
// at R-MAT 2^16 with 400 000 edges, one edge of the first 4096 per op.

// deletionBench returns the benchmark graph and the edges the deletion
// ablation cycles through.
func deletionBench(b *testing.B) (*graph.Directed, [][2]int64) {
	src, dst := gen.RMATEdges(16, 400000, 0.57, 0.19, 0.19, 1)
	v, err := graph.BuildViewCols(src, dst, nil)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.FromView(v)
	var edges [][2]int64
	g.ForEdges(func(s, d int64) {
		if len(edges) < 4096 {
			edges = append(edges, [2]int64{s, d})
		}
	})
	return g, edges
}

func BenchmarkAblationDeleteEdgeHashGraph(b *testing.B) {
	g, edges := deletionBench(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.DelEdge(e[0], e[1])
		g.AddEdge(e[0], e[1])
	}
}

func BenchmarkAblationDeleteEdgeCSR(b *testing.B) {
	g, edges := deletionBench(b)
	base := graph.BuildView(g)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		g.DelEdge(e[0], e[1])
		graph.PatchView(base, g.HasNode, g.HasEdge, []graph.Delta{{Op: graph.DeltaDelEdge, Src: e[0], Dst: e[1]}})
		g.AddEdge(e[0], e[1])
	}
}
