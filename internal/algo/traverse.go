package algo

import (
	"container/heap"
	"math"

	"ringo/internal/graph"
)

// EdgeDir selects which edges a traversal follows on a directed graph.
type EdgeDir int

// Traversal directions.
const (
	// Out follows edges in their direction.
	Out EdgeDir = iota
	// In follows edges against their direction.
	In
	// Both ignores edge direction.
	Both
)

// BFSView runs a breadth-first search over v from src following dir edges
// and returns hop distances keyed by node id for every reached node
// (including src at distance 0). It returns nil if src is not a node.
func BFSView(v *graph.View, src int64, dir EdgeDir) map[int64]int {
	s, ok := v.Index(src)
	if !ok {
		return nil
	}
	dist := bfsFlat(v, s, dir)
	out := make(map[int64]int)
	for i, dv := range dist {
		if dv >= 0 {
			out[v.ID(int32(i))] = int(dv)
		}
	}
	return out
}

// bfsFlat runs BFS over the CSR view, returning -1 for unreached nodes.
func bfsFlat(v *graph.View, src int32, dir EdgeDir) []int32 {
	n := v.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[src] = 0
	queue := make([]int32, 0, 256)
	queue = append(queue, src)
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		du := dist[u]
		expand := func(nbrs []int32) {
			for _, w := range nbrs {
				if dist[w] < 0 {
					dist[w] = du + 1
					queue = append(queue, w)
				}
			}
		}
		if dir == Out || dir == Both {
			expand(v.Out(u))
		}
		if dir == In || dir == Both {
			expand(v.In(u))
		}
	}
	return dist
}

// ShortestPathView returns the hop distance from src to dst following
// out-edges, or -1 if dst is unreachable.
func ShortestPathView(v *graph.View, src, dst int64) int {
	s, ok := v.Index(src)
	if !ok {
		return -1
	}
	t, ok := v.Index(dst)
	if !ok {
		return -1
	}
	dist := bfsFlat(v, s, Out)
	return int(dist[t])
}

// WeightFunc supplies the length of the edge src->dst; it must be
// non-negative for Dijkstra.
type WeightFunc func(src, dst int64) float64

// DijkstraView computes weighted single-source shortest paths from src
// following out-edges, with edge lengths from w. Unreachable nodes are
// absent from the result. It returns nil if src is not a node.
func DijkstraView(v *graph.View, src int64, w WeightFunc) Scores {
	s, ok := v.Index(src)
	if !ok {
		return nil
	}
	n := v.NumNodes()
	dist := make([]float64, n)
	for i := range dist {
		dist[i] = math.Inf(1)
	}
	dist[s] = 0
	pq := &distHeap{{s, 0}}
	for pq.Len() > 0 {
		top := heap.Pop(pq).(distEntry)
		u := top.node
		if top.dist > dist[u] {
			continue // stale entry
		}
		for _, x := range v.Out(u) {
			nd := dist[u] + w(v.ID(u), v.ID(x))
			if nd < dist[x] {
				dist[x] = nd
				heap.Push(pq, distEntry{x, nd})
			}
		}
	}
	out := Scores{}
	for i, dv := range dist {
		if !math.IsInf(dv, 1) {
			out = append(out, Scored{v.ID(int32(i)), dv})
		}
	}
	return out
}

type distEntry struct {
	node int32
	dist float64
}

type distHeap []distEntry

func (h distHeap) Len() int            { return len(h) }
func (h distHeap) Less(i, j int) bool  { return h[i].dist < h[j].dist }
func (h distHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *distHeap) Push(x interface{}) { *h = append(*h, x.(distEntry)) }
func (h *distHeap) Pop() interface{} {
	old := *h
	n := len(old)
	x := old[n-1]
	*h = old[:n-1]
	return x
}
