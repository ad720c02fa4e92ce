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
// arrays instead of hashing. Each algorithm is exported twice: a
// view-taking variant (PageRankView, TrianglesView, ...) that runs
// directly over a snapshot — the form the fingerprint-keyed view cache in
// internal/core feeds, so repeated queries on an unchanged graph skip the
// O(V+E) conversion entirely — and a thin wrapper with the historical
// graph-taking signature that builds a throwaway view first.
package algo

import (
	"slices"

	"ringo/internal/par"
)

// sortInt32 sorts a dense-index vector: insertion sort for short vectors —
// adjacency vectors are overwhelmingly short in power-law graphs — and
// slices.Sort (pdqsort: O(n log n) worst case, bounded recursion) beyond,
// instead of the old hand-rolled quicksort whose unbalanced pivots could
// recurse without bound and hit O(n²) on adversarial adjacency.
func sortInt32(a []int32) {
	if len(a) < 24 {
		for i := 1; i < len(a); i++ {
			v := a[i]
			j := i - 1
			for j >= 0 && a[j] > v {
				a[j+1] = a[j]
				j--
			}
			a[j+1] = v
		}
		return
	}
	slices.Sort(a)
}

// parFill sets every element of a to v in parallel.
func parFill(a []float64, v float64) {
	par.For(len(a), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			a[i] = v
		}
	})
}
