package algo

import "ringo/internal/graph"

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// OutDegreeStats returns out-degree statistics of a directed view.
func OutDegreeStats(v *graph.View) DegreeStats { return degreeStats(v.NumNodes(), v.OutDeg) }

// InDegreeStats returns in-degree statistics of a directed view.
func InDegreeStats(v *graph.View) DegreeStats { return degreeStats(v.NumNodes(), v.InDeg) }

// degreeStats summarizes deg over the dense indices [0, n): the offset
// differences of one CSR direction.
func degreeStats(n int, deg func(u int32) int) DegreeStats {
	if n == 0 {
		return DegreeStats{}
	}
	st := DegreeStats{Min: int(^uint(0) >> 1)}
	var total int64
	for u := int32(0); int(u) < n; u++ {
		d := deg(u)
		st.Min = min(st.Min, d)
		st.Max = max(st.Max, d)
		total += int64(d)
	}
	st.Mean = float64(total) / float64(n)
	return st
}

// DegreeHistogram returns (degree, node count) pairs in ascending degree
// order for the out-degrees of a directed view — SNAP's GetOutDegCnt.
func DegreeHistogram(v *graph.View) [][2]int64 {
	counts := make([]int64, v.NumNodes()+1) // by degree; distinct targets bound it by n
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		counts[v.OutDeg(u)]++
	}
	var out [][2]int64
	for d, c := range counts {
		if c > 0 {
			out = append(out, [2]int64{int64(d), c})
		}
	}
	return out
}

// DegreeCentrality returns deg(v)/(n-1) per node of an undirected view,
// the normalized degree centrality measure.
func DegreeCentrality(v *graph.UView) Scores {
	n := v.NumNodes()
	out := make(Scores, n)
	for i, id := range v.IDs() {
		out[i].ID = id
		if n > 1 {
			out[i].Score = float64(v.Deg(int32(i))) / float64(n-1)
		}
	}
	return out
}

// MaxDegreeNode returns the node with the highest out-degree, breaking ties
// toward the smaller id; ok is false on an empty view.
func MaxDegreeNode(v *graph.View) (id int64, deg int, ok bool) {
	if v.NumNodes() == 0 {
		return 0, 0, false
	}
	best := int32(0)
	for u := int32(1); int(u) < v.NumNodes(); u++ {
		if v.OutDeg(u) > v.OutDeg(best) { // ascending ids: the first maximum is the smallest
			best = u
		}
	}
	return v.ID(best), v.OutDeg(best), true
}
