package algo

import (
	"ringo/internal/graph"
	"ringo/internal/par"
)

// TrianglesView counts undirected triangles in parallel. It is the algorithm
// benchmarked in Table 3: a straightforward edge-iterator with sorted
// adjacency-vector intersection ("similar to [6]" in the paper),
// parallelized by splitting the node range across workers. Each triangle
// {a,b,c} with a<b<c is counted exactly once, at its smallest-index vertex.
func TrianglesView(v *graph.UView) int64 {
	defer report(timed("triangles"))
	return par.SumInt(v.NumNodes(), func(lo, hi int) int64 {
		var count int64
		for u := lo; u < hi; u++ {
			count += trianglesAt(v, int32(u))
		}
		return count
	})
}

// trianglesAt counts triangles whose smallest dense index is u: for every
// neighbor x > u, the common neighbors w of u and x with w > x each close
// one triangle. Adjacency vectors are sorted, so common neighbors come from
// a linear merge.
func trianglesAt(v *graph.UView, u int32) int64 {
	adjU := v.Adj(u)
	// Skip to neighbors > u.
	i := upperBound(adjU, u)
	var count int64
	for ; i < len(adjU); i++ {
		x := adjU[i]
		count += countCommonAbove(adjU, v.Adj(x), x)
	}
	return count
}

// countCommonAbove counts values present in both sorted slices that are
// strictly greater than floor.
func countCommonAbove(a, b []int32, floor int32) int64 {
	i := upperBound(a, floor)
	j := upperBound(b, floor)
	var count int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			count++
			i++
			j++
		}
	}
	return count
}

// upperBound returns the index of the first element > v in sorted a.
func upperBound(a []int32, v int32) int {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] <= v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// NodeTrianglesView returns, for every node, the number of triangles the node
// participates in (each triangle counted at all three corners).
func NodeTrianglesView(v *graph.UView) map[int64]int64 {
	n := v.NumNodes()
	counts := make([]int64, n)
	// Sequential accumulation: each triangle updates three corners, which
	// would race under the node-partitioned scheme.
	for u := 0; u < n; u++ {
		adjU := v.Adj(int32(u))
		i := upperBound(adjU, int32(u))
		for ; i < len(adjU); i++ {
			x := adjU[i]
			forEachCommonAbove(adjU, v.Adj(x), x, func(w int32) {
				counts[u]++
				counts[x]++
				counts[w]++
			})
		}
	}
	out := make(map[int64]int64, n)
	for i, id := range v.IDs() {
		out[id] = counts[i]
	}
	return out
}

func forEachCommonAbove(a, b []int32, floor int32, fn func(w int32)) {
	i := upperBound(a, floor)
	j := upperBound(b, floor)
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// ClusteringCoefficientView returns the average local clustering coefficient:
// for each node, the fraction of its neighbor pairs that are connected,
// averaged over nodes with degree >= 2 contributing their ratio and others
// contributing 0, as in SNAP's GetClustCf.
func ClusteringCoefficientView(v *graph.UView) float64 {
	defer report(timed("clustering"))
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	total := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for u := lo; u < hi; u++ {
			adjU := v.Adj(int32(u))
			deg := 0
			for _, x := range adjU {
				if x != int32(u) {
					deg++
				}
			}
			if deg < 2 {
				continue
			}
			var closed int64
			for _, x := range adjU {
				if x == int32(u) {
					continue
				}
				closed += countCommonExcluding(adjU, v.Adj(x), int32(u), x)
			}
			// closed counted each connected pair twice (once per order).
			s += float64(closed) / float64(deg*(deg-1))
		}
		return s
	}, func(a, b float64) float64 { return a + b })
	return total / float64(n)
}

// countCommonExcluding counts common elements of the two sorted slices,
// excluding the two endpoint values themselves (self-loop guard).
func countCommonExcluding(a, b []int32, x, y int32) int64 {
	i, j := 0, 0
	var count int64
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] != x && a[i] != y {
				count++
			}
			i++
			j++
		}
	}
	return count
}
