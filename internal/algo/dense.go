// Package algo implements the graph algorithms Ringo exposes through SNAP
// (§2.2, §3 of Perez et al., SIGMOD 2015): PageRank, HITS, triangle
// counting, clustering coefficients, BFS and shortest paths, connected
// components (weak and strong), k-core decomposition, degree statistics,
// centrality measures, community detection, and random walks. The
// algorithms benchmarked in the paper (Tables 3 and 6) come in both
// sequential and parallel variants.
//
// Every algorithm runs over the flat CSR snapshot of the graph
// (graph.View / graph.UView): node ids mapped to dense indices, adjacency
// translated into arena-backed flat arrays, so iterative kernels index
// arrays instead of hashing. Each algorithm has one exported name: the CSR
// kernels take a prebuilt view (PageRankView, TrianglesView, ...) — the
// form the fingerprint-keyed view cache in internal/core feeds, so repeated
// queries on an unchanged graph skip the O(V+E) conversion entirely — and a
// caller holding a graph writes XxxView(graph.BuildView(g)).
package algo

import "ringo/internal/par"

// parFill sets every element of a to v in parallel.
func parFill(a []float64, v float64) {
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}
