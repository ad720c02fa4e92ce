package algo

import (
	"slices"

	"ringo/internal/graph"
)

// GreedyColoring colors the nodes of an undirected view so no edge is
// monochromatic, using the Welsh-Powell heuristic: visit nodes in
// descending degree order (ties by id) and give each the smallest color
// unused by its neighbors. Returns the coloring and the number of colors.
// Self-loops are ignored.
func GreedyColoring(v *graph.UView) (map[int64]int, int) {
	n := v.NumNodes()
	color := make([]int, n)
	for i := range color {
		color[i] = -1
	}
	maxColor := 0
	used := []bool{}
	for _, u := range degreeOrder(v, true) {
		clear(used)
		for _, x := range v.Adj(u) {
			if x == u {
				continue
			}
			if c := color[x]; c >= 0 {
				for c >= len(used) {
					used = append(used, false)
				}
				used[c] = true
			}
		}
		c := 0
		for c < len(used) && used[c] {
			c++
		}
		color[u] = c
		maxColor = max(maxColor, c+1)
	}
	out := make(map[int64]int, n)
	for i, id := range v.IDs() {
		out[id] = color[i]
	}
	return out, maxColor
}

// degreeOrder returns the dense indices of v by degree, descending or
// ascending, ties by index (which is id order).
func degreeOrder(v *graph.UView, descending bool) []int32 {
	order := make([]int32, v.NumNodes())
	for i := range order {
		order[i] = int32(i)
	}
	slices.SortStableFunc(order, func(a, b int32) int {
		if descending {
			return v.Deg(b) - v.Deg(a)
		}
		return v.Deg(a) - v.Deg(b)
	})
	return order
}

// MaximalMatching returns a maximal matching of the undirected view:
// greedy over edges in (src, dst) order, so the result is deterministic.
// The matching is maximal (no edge can be added), not necessarily maximum.
// Self-loops are skipped.
func MaximalMatching(v *graph.UView) [][2]int64 {
	matched := make([]bool, v.NumNodes())
	var out [][2]int64
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		if matched[u] {
			continue
		}
		for _, x := range v.Adj(u) {
			if x == u || matched[x] {
				continue
			}
			matched[u], matched[x] = true, true
			a, b := min(u, x), max(u, x)
			out = append(out, [2]int64{v.ID(a), v.ID(b)})
			break
		}
	}
	return out
}

// IndependentSetGreedy returns a maximal independent set: visit nodes in
// ascending degree order and take every node none of whose neighbors is
// already taken.
func IndependentSetGreedy(v *graph.UView) []int64 {
	blocked := make([]bool, v.NumNodes())
	var taken []int32
	for _, u := range degreeOrder(v, false) {
		if _, loop := slices.BinarySearch(v.Adj(u), u); blocked[u] || loop {
			continue
		}
		taken = append(taken, u)
		for _, x := range v.Adj(u) {
			blocked[x] = true
		}
	}
	slices.Sort(taken)
	out := make([]int64, len(taken))
	for i, u := range taken {
		out[i] = v.ID(u)
	}
	return out
}
