package algo

import (
	"slices"
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// forward is the degree-oriented form of an undirected view that every
// triangle-shaped kernel enumerates through: each edge kept once, at the
// end that ranks lower by (degree, index). A triangle is then found exactly
// once, at its lowest-ranked corner, and a hub's long list is merged only
// against the few neighbors that outrank it — the standard orientation of
// the multicore triangle literature (Schank & Wagner 2005).
type forward struct {
	off   []int64
	arena []int32
}

// orient builds the forward lists of v. Self-loops are dropped and each
// list keeps the index order of the sorted adjacency it filters.
func orient(v *graph.UView) *forward {
	n := v.NumNodes()
	above := func(u, x int32) bool {
		du, dx := v.Deg(u), v.Deg(x)
		return du < dx || du == dx && u < x
	}
	f := &forward{off: make([]int64, n+1)}
	par.ForEach(n, func(u int) {
		for _, x := range v.Adj(int32(u)) {
			if above(int32(u), x) {
				f.off[u+1]++
			}
		}
	})
	for u := 0; u < n; u++ {
		f.off[u+1] += f.off[u]
	}
	f.arena = make([]int32, f.off[n])
	par.ForEach(n, func(u int) {
		at := f.off[u]
		for _, x := range v.Adj(int32(u)) {
			if above(int32(u), x) {
				f.arena[at] = x
				at++
			}
		}
	})
	return f
}

func (f *forward) adj(u int32) []int32 { return f.arena[f.off[u]:f.off[u+1]] }

// at counts the triangles whose lowest-ranked corner is u. When fn is
// non-nil it calls fn(x, w) for each, x and w being the other two corners,
// x ranked below w.
func (f *forward) at(u int32, fn func(x, w int32)) int64 {
	fu := f.adj(u)
	var x int32
	var each func(w int32)
	if fn != nil {
		each = func(w int32) { fn(x, w) }
	}
	var count int64
	for _, x = range fu {
		count += intersect(fu, f.adj(x), each)
	}
	return count
}

// intersect counts the values present in both sorted slices, calling fn for
// each when fn is non-nil. Both hold dense indices, so the sign bit of
// their difference says which side to advance (both on a match) without a
// branch the merge of two unrelated lists would mispredict at every step.
func intersect(a, b []int32, fn func(w int32)) int64 {
	var count int64
	for i, j := 0, 0; i < len(a) && j < len(b); {
		x, y := a[i], b[j]
		le := int(uint32(y-x)>>31 ^ 1) // x <= y
		ge := int(uint32(x-y)>>31 ^ 1) // x >= y
		if fn != nil && le&ge == 1 {
			fn(x)
		}
		count += int64(le & ge)
		i += le
		j += ge
	}
	return count
}

// TrianglesView counts undirected triangles in parallel. It is the algorithm
// benchmarked in Table 3: an edge iterator with sorted adjacency-vector
// intersection ("similar to [6]" in the paper), over the degree-oriented
// lists, in dynamically handed-out node chunks so the hubs' merges spread
// over every worker. Self-loops close no triangles.
func TrianglesView(v *graph.UView) int64 {
	defer report(timed("triangles"))
	f := orient(v)
	var total atomic.Int64
	par.ForDynamic(v.NumNodes(), func(lo, hi int) {
		var count int64
		for u := lo; u < hi; u++ {
			count += f.at(int32(u), nil)
		}
		total.Add(count)
	})
	return total.Load()
}

// nodeTriangles counts, per dense index, the triangles the node is a corner
// of.
func nodeTriangles(v *graph.UView) []atomic.Int64 {
	f := orient(v)
	counts := make([]atomic.Int64, v.NumNodes())
	par.ForDynamic(len(counts), func(lo, hi int) {
		corners := func(x, w int32) {
			counts[x].Add(1)
			counts[w].Add(1)
		}
		for u := lo; u < hi; u++ {
			counts[u].Add(f.at(int32(u), corners))
		}
	})
	return counts
}

// degNoLoop is the degree of dense index u without its self-loop.
func degNoLoop(v *graph.UView, u int32) int64 {
	d := int64(v.Deg(u))
	if _, loop := slices.BinarySearch(v.Adj(u), u); loop {
		d--
	}
	return d
}

// NodeTrianglesView returns, for every node, the number of triangles the node
// participates in (each triangle counted at all three corners).
func NodeTrianglesView(v *graph.UView) map[int64]int64 {
	counts := nodeTriangles(v)
	out := make(map[int64]int64, len(counts))
	for i, id := range v.IDs() {
		out[id] = counts[i].Load()
	}
	return out
}

// ClusteringCoefficientView returns the average local clustering coefficient:
// for each node, the fraction of its neighbor pairs that are connected,
// 2·t(u)/(d(d−1)) with d counted without the self-loop, averaged over all
// nodes with those of degree < 2 contributing 0, as in SNAP's GetClustCf.
func ClusteringCoefficientView(v *graph.UView) float64 {
	defer report(timed("clustering"))
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	t := nodeTriangles(v)
	total := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for u := lo; u < hi; u++ {
			if d := degNoLoop(v, int32(u)); d >= 2 {
				s += float64(2*t[u].Load()) / float64(d*(d-1))
			}
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	return total / float64(n)
}
