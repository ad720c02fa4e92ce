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
				if _, err := graph.BuildViewCols(src, dst, nil); err != nil {
					b.Fatal(err)
				}
			}
		})
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

// BenchmarkAblationTraverse walks every edge of R-MAT 2^15 with 200 000
// edges, the update-query workload's graph, in the hash-of-nodes form
// (ForEdges over per-node vectors, a thaw of the view) and in the CSR
// view every kernel runs over.
func BenchmarkAblationTraverse(b *testing.B) {
	src, dst := gen.RMATEdges(15, 200000, 0.57, 0.19, 0.19, 1)
	v, err := graph.BuildViewCols(src, dst, nil)
	if err != nil {
		b.Fatal(err)
	}
	g := graph.FromView(v)
	b.Run("hash", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			g.ForEdges(func(_, dst int64) { sum += dst })
			if sum == 0 {
				b.Fatal("no edges traversed")
			}
		}
	})
	b.Run("csr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			var sum int64
			for u := int32(0); u < int32(v.NumNodes()); u++ {
				for _, nbr := range v.Out(u) {
					sum += int64(nbr)
				}
			}
			if sum == 0 {
				b.Fatal("no edges traversed")
			}
		}
	})
}
