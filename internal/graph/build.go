package graph

import (
	"fmt"

	"ringo/internal/par"
)

// Bulk graph construction: the paper's "sort-first" algorithm (§2.4) applied
// to raw edge pairs instead of table columns. Both orientations of the edge
// list are sorted in parallel, exact deduplicated degrees are counted per
// node, and every adjacency vector is carved out of one flat arena
// allocation — no per-edge sorted inserts, no contention between workers,
// and no guessing of vector sizes. This is the construction path behind the
// parallel text-ingest pipeline (LoadEdgeListParallel) and the table-to-graph
// conversions in internal/conv.

// BuildDirected constructs a directed graph from raw (src, dst) edge pairs.
// Duplicate pairs collapse to a single edge; self-loops are kept. The result
// is indistinguishable from feeding every pair through AddEdge — same node
// set, same sorted duplicate-free adjacency vectors — but construction is
// parallel and costs O(E log E) total instead of O(E · deg) sorted inserts.
func BuildDirected(edges [][2]int64) (*Directed, error) {
	n := len(edges)
	k1 := make([]int64, n)
	v1 := make([]int64, n)
	k2 := make([]int64, n)
	v2 := make([]int64, n)
	par.For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			k1[i], v1[i] = edges[i][0], edges[i][1]
			k2[i], v2[i] = edges[i][1], edges[i][0]
		}
	})
	return buildDirectedSorted(k1, v1, k2, v2)
}

// BuildDirectedCols is BuildDirected taking the edge list as two parallel
// columns, the form edge tables store; it copies the columns straight into
// the sort buffers with no intermediate pair slice.
func BuildDirectedCols(srcs, dsts []int64) (*Directed, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: bulk build column length mismatch: %d srcs, %d dsts", len(srcs), len(dsts))
	}
	n := len(srcs)
	k1 := make([]int64, n)
	v1 := make([]int64, n)
	k2 := make([]int64, n)
	v2 := make([]int64, n)
	par.For(n, func(lo, hi int) {
		copy(k1[lo:hi], srcs[lo:hi])
		copy(v1[lo:hi], dsts[lo:hi])
		copy(k2[lo:hi], dsts[lo:hi])
		copy(v2[lo:hi], srcs[lo:hi])
	})
	return buildDirectedSorted(k1, v1, k2, v2)
}

// buildDirectedSorted finishes a bulk build from unsorted orientation
// buffers, which it owns and sorts in place: (k1, v1) holds (src, dst) and
// (k2, v2) holds (dst, src).
func buildDirectedSorted(k1, v1, k2, v2 []int64) (*Directed, error) {
	par.Do(
		func() { par.SortPairs(k1, v1) },
		func() { par.SortPairs(k2, v2) },
	)
	ids := mergeUniqueSorted(k1, k2)
	if len(ids) > 0 && ids[0] == tombstone {
		return nil, fmt.Errorf("graph: node id %d reserved", int64(tombstone))
	}
	var out, in [][]int64
	par.Do(
		func() { out = arenaVectors(ids, k1, v1) },
		func() { in = arenaVectors(ids, k2, v2) },
	)
	return BuildDirectedBulk(ids, in, out)
}

// BuildUndirectedCols constructs an undirected graph from an edge list
// given as two parallel columns, with the same sort-first approach as
// BuildDirectedCols; duplicates and reverse duplicates collapse, self-loops
// are kept (stored once, as AddEdge stores them).
func BuildUndirectedCols(srcs, dsts []int64) (*Undirected, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: bulk build column length mismatch: %d srcs, %d dsts", len(srcs), len(dsts))
	}
	n := len(srcs)
	keys := make([]int64, 2*n)
	vals := make([]int64, 2*n)
	par.For(n, func(lo, hi int) {
		copy(keys[lo:hi], srcs[lo:hi])
		copy(vals[lo:hi], dsts[lo:hi])
		copy(keys[n+lo:n+hi], dsts[lo:hi])
		copy(vals[n+lo:n+hi], srcs[lo:hi])
	})
	return buildUndirectedSorted(keys, vals)
}

// buildUndirectedSorted finishes an undirected bulk build from the unsorted
// symmetrized (keys, vals) buffers, which it owns and sorts in place.
func buildUndirectedSorted(keys, vals []int64) (*Undirected, error) {
	par.SortPairs(keys, vals)
	ids := uniqueSorted(keys)
	if len(ids) > 0 && ids[0] == tombstone {
		return nil, fmt.Errorf("graph: node id %d reserved", int64(tombstone))
	}
	return BuildUndirectedBulk(ids, arenaVectors(ids, keys, vals))
}

// arenaVectors materializes one adjacency direction: for each id (sorted,
// unique) it deduplicates the id's run in the sorted (keys, vals) pairs and
// copies it into a slice of one shared arena. Exact deduplicated counts are
// computed first so the arena is allocated once and workers write disjoint
// ranges. Each vector is capped with a full slice expression, so a later
// AddEdge on one node reallocates that vector instead of clobbering its
// arena neighbors.
func arenaVectors(ids, keys, vals []int64) [][]int64 {
	runs := runOffsets(ids, keys)
	offs := make([]int64, len(ids)+1)
	par.ForEach(len(ids), func(i int) {
		seg := vals[runs[i][0]:runs[i][1]]
		c := int64(0)
		for j, v := range seg {
			if j == 0 || v != seg[j-1] {
				c++
			}
		}
		offs[i+1] = c
	})
	for i := 0; i < len(ids); i++ {
		offs[i+1] += offs[i]
	}
	arena := make([]int64, offs[len(ids)])
	vecs := make([][]int64, len(ids))
	par.ForEach(len(ids), func(i int) {
		lo, hi := offs[i], offs[i+1]
		if lo == hi {
			return // empty vectors stay nil, carrying no allocation
		}
		dst := arena[lo:lo:hi]
		seg := vals[runs[i][0]:runs[i][1]]
		for j, v := range seg {
			if j == 0 || v != seg[j-1] {
				dst = append(dst, v)
			}
		}
		vecs[i] = dst
	})
	return vecs
}

// mergeUniqueSorted returns the sorted union of the distinct values of two
// sorted slices.
func mergeUniqueSorted(a, b []int64) []int64 {
	out := make([]int64, 0, len(a)/2+len(b)/2)
	i, j := 0, 0
	for i < len(a) || j < len(b) {
		var v int64
		switch {
		case j >= len(b) || (i < len(a) && a[i] <= b[j]):
			v = a[i]
			i++
		default:
			v = b[j]
			j++
		}
		for i < len(a) && a[i] == v {
			i++
		}
		for j < len(b) && b[j] == v {
			j++
		}
		out = append(out, v)
	}
	return out
}

// uniqueSorted returns the distinct values of a sorted slice.
func uniqueSorted(a []int64) []int64 {
	out := make([]int64, 0, len(a)/2)
	for i := 0; i < len(a); {
		v := a[i]
		out = append(out, v)
		for i < len(a) && a[i] == v {
			i++
		}
	}
	return out
}

// runOffsets returns, for each id in ids (sorted unique), the [start, end)
// range of its run in the sorted keys slice. Ids with no run get an empty
// range.
func runOffsets(ids, keys []int64) [][2]int {
	runs := make([][2]int, len(ids))
	p := 0
	for i, id := range ids {
		for p < len(keys) && keys[p] < id {
			p++
		}
		start := p
		for p < len(keys) && keys[p] == id {
			p++
		}
		runs[i] = [2]int{start, p}
	}
	return runs
}
