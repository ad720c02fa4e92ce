package algo

import (
	"sort"

	"ringo/internal/graph"
)

// DegreeStats summarizes a degree distribution.
type DegreeStats struct {
	Min, Max int
	Mean     float64
}

// OutDegreeStats returns out-degree statistics of a directed graph.
func OutDegreeStats(g *graph.Directed) DegreeStats {
	return degreeStats(g, func(id int64) int { return g.OutDeg(id) })
}

// InDegreeStats returns in-degree statistics of a directed graph.
func InDegreeStats(g *graph.Directed) DegreeStats {
	return degreeStats(g, func(id int64) int { return g.InDeg(id) })
}

func degreeStats(g *graph.Directed, deg func(id int64) int) DegreeStats {
	st := DegreeStats{Min: int(^uint(0) >> 1)}
	n := 0
	var total int64
	g.ForNodes(func(id int64) {
		d := deg(id)
		if d < st.Min {
			st.Min = d
		}
		if d > st.Max {
			st.Max = d
		}
		total += int64(d)
		n++
	})
	if n == 0 {
		return DegreeStats{}
	}
	st.Mean = float64(total) / float64(n)
	return st
}

// DegreeHistogram returns (degree, node count) pairs in ascending degree
// order for the out-degrees of a directed graph — SNAP's GetOutDegCnt.
func DegreeHistogram(g *graph.Directed) [][2]int64 {
	counts := map[int]int64{}
	g.ForNodes(func(id int64) {
		counts[g.OutDeg(id)]++
	})
	degrees := make([]int, 0, len(counts))
	for d := range counts {
		degrees = append(degrees, d)
	}
	sort.Ints(degrees)
	out := make([][2]int64, len(degrees))
	for i, d := range degrees {
		out[i] = [2]int64{int64(d), counts[d]}
	}
	return out
}

// DegreeCentrality returns deg(v)/(n-1) per node of an undirected graph,
// the normalized degree centrality measure.
func DegreeCentrality(g *graph.Undirected) Scores {
	ids := g.Nodes()
	out := make(Scores, len(ids))
	for i, id := range ids {
		out[i].ID = id
		if len(ids) > 1 {
			out[i].Score = float64(g.Deg(id)) / float64(len(ids)-1)
		}
	}
	return out
}

// MaxDegreeNode returns the node with the highest out-degree, breaking ties
// toward the smaller id; ok is false on an empty graph.
func MaxDegreeNode(g *graph.Directed) (id int64, deg int, ok bool) {
	best := int64(0)
	bestDeg := -1
	g.ForNodes(func(n int64) {
		d := g.OutDeg(n)
		if d > bestDeg || (d == bestDeg && n < best) {
			best, bestDeg = n, d
		}
	})
	if bestDeg < 0 {
		return 0, 0, false
	}
	return best, bestDeg, true
}
