package algo

import (
	"fmt"
	"sort"

	"ringo/internal/graph"
)

// ArticulationPointsView returns the cut vertices of an undirected graph:
// nodes whose removal increases the number of connected components.
// Iterative Tarjan lowlink computation, safe on deep graphs.
func ArticulationPointsView(v *graph.UView) []int64 {
	defer report(timed("cuts"))
	n := v.NumNodes()
	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	isCut := make([]bool, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	var timer int32
	type frame struct {
		node int32
		pos  int
	}
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		rootChildren := 0
		stack := []frame{{int32(root), 0}}
		disc[root] = timer
		low[root] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			adjU := v.Adj(u)
			if f.pos < len(adjU) {
				x := adjU[f.pos]
				f.pos++
				if x == u {
					continue // self-loop
				}
				if disc[x] == -1 {
					parent[x] = u
					if u == int32(root) {
						rootChildren++
					}
					disc[x] = timer
					low[x] = timer
					timer++
					stack = append(stack, frame{x, 0})
				} else if x != parent[u] && disc[x] < low[u] {
					low[u] = disc[x]
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[u]; p != -1 {
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if p != int32(root) && low[u] >= disc[p] {
					isCut[p] = true
				}
			}
		}
		if rootChildren > 1 {
			isCut[root] = true
		}
	}
	var out []int64
	for i, cut := range isCut {
		if cut {
			out = append(out, v.ID(int32(i)))
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// BridgesView returns the cut edges of an undirected graph (edges whose
// removal disconnects their endpoints), each as {smaller id, larger id},
// sorted.
func BridgesView(v *graph.UView) [][2]int64 {
	defer report(timed("bridges"))
	n := v.NumNodes()
	disc := make([]int32, n)
	low := make([]int32, n)
	parent := make([]int32, n)
	for i := range disc {
		disc[i] = -1
		parent[i] = -1
	}
	var timer int32
	var out [][2]int64
	type frame struct {
		node    int32
		pos     int
		skipped bool // one parallel-edge-back-to-parent allowance used
	}
	for root := 0; root < n; root++ {
		if disc[root] != -1 {
			continue
		}
		stack := []frame{{int32(root), 0, false}}
		disc[root] = timer
		low[root] = timer
		timer++
		for len(stack) > 0 {
			f := &stack[len(stack)-1]
			u := f.node
			adjU := v.Adj(u)
			if f.pos < len(adjU) {
				x := adjU[f.pos]
				f.pos++
				if x == u {
					continue
				}
				if disc[x] == -1 {
					parent[x] = u
					disc[x] = timer
					low[x] = timer
					timer++
					stack = append(stack, frame{x, 0, false})
				} else if x != parent[u] || f.skipped {
					if disc[x] < low[u] {
						low[u] = disc[x]
					}
				} else {
					// First sighting of the tree edge back to the parent:
					// not a cycle edge. (Simple graphs: at most one.)
					f.skipped = true
				}
				continue
			}
			stack = stack[:len(stack)-1]
			if p := parent[u]; p != -1 {
				if low[u] < low[p] {
					low[p] = low[u]
				}
				if low[u] > disc[p] {
					a, b := v.ID(p), v.ID(u)
					if a > b {
						a, b = b, a
					}
					out = append(out, [2]int64{a, b})
				}
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i][0] != out[j][0] {
			return out[i][0] < out[j][0]
		}
		return out[i][1] < out[j][1]
	})
	return out
}

// TopoSortView returns a topological order of a directed acyclic graph (Kahn's
// algorithm). It errors if the graph contains a cycle.
func TopoSortView(v *graph.View) ([]int64, error) {
	defer report(timed("toposort"))
	n := v.NumNodes()
	indeg := make([]int32, n)
	for u := 0; u < n; u++ {
		indeg[u] = int32(v.InDeg(int32(u)))
	}
	// Ready nodes kept id-sorted for deterministic output.
	ready := make([]int32, 0, n)
	for u := 0; u < n; u++ {
		if indeg[u] == 0 {
			ready = append(ready, int32(u))
		}
	}
	sort.Slice(ready, func(i, j int) bool { return v.ID(ready[i]) < v.ID(ready[j]) })
	order := make([]int64, 0, n)
	for len(ready) > 0 {
		u := ready[0]
		ready = ready[1:]
		order = append(order, v.ID(u))
		for _, x := range v.Out(u) {
			indeg[x]--
			if indeg[x] == 0 {
				ready = append(ready, x)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("algo: graph has a cycle; no topological order")
	}
	return order, nil
}

// BipartitionView two-colors an undirected graph. ok is false if the graph
// contains an odd cycle (not bipartite); otherwise side maps every node to
// 0 or 1 with no monochromatic edge.
func BipartitionView(v *graph.UView) (side map[int64]int, ok bool) {
	n := v.NumNodes()
	color := make([]int8, n)
	for i := range color {
		color[i] = -1
	}
	for root := 0; root < n; root++ {
		if color[root] != -1 {
			continue
		}
		color[root] = 0
		queue := []int32{int32(root)}
		for len(queue) > 0 {
			u := queue[0]
			queue = queue[1:]
			for _, x := range v.Adj(u) {
				if x == u {
					return nil, false // self-loop is an odd cycle
				}
				if color[x] == -1 {
					color[x] = 1 - color[u]
					queue = append(queue, x)
				} else if color[x] == color[u] {
					return nil, false
				}
			}
		}
	}
	side = make(map[int64]int, n)
	for i, id := range v.IDs() {
		side[id] = int(color[i])
	}
	return side, true
}

// MSTEdge is one edge of a minimum spanning forest.
type MSTEdge struct {
	Src, Dst int64
	Weight   float64
}

// MinimumSpanningForest computes a minimum spanning forest of an undirected
// view under the given edge weights, called with node ids (Kruskal with
// union-find). Self-loops are ignored. The total weight and the chosen
// edges are returned; for a connected graph the forest is a spanning tree.
func MinimumSpanningForest(v *graph.UView, w func(a, b int64) float64) (edges []MSTEdge, total float64) {
	// Dense indices ascend with ids, so (weight, u, x) is the
	// (Weight, Src, Dst) order.
	type arc struct {
		u, x int32
		w    float64
	}
	var all []arc
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		for _, x := range v.Adj(u) {
			if x > u {
				all = append(all, arc{u, x, w(v.ID(u), v.ID(x))})
			}
		}
	}
	sort.Slice(all, func(i, j int) bool {
		a, b := all[i], all[j]
		if a.w != b.w {
			return a.w < b.w
		}
		return a.u < b.u || a.u == b.u && a.x < b.x
	})
	parent := make([]int32, v.NumNodes())
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		if parent[x] != x {
			parent[x] = find(parent[x])
		}
		return parent[x]
	}
	for _, a := range all {
		if ra, rb := find(a.u), find(a.x); ra != rb {
			parent[ra] = rb
			edges = append(edges, MSTEdge{v.ID(a.u), v.ID(a.x), a.w})
			total += a.w
		}
	}
	return edges, total
}
