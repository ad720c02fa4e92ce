package algo

import (
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// BFSParallelView is a level-synchronous parallel breadth-first search: each
// level's frontier is split across workers, workers claim unvisited nodes
// with compare-and-swap, and per-worker output buffers are concatenated
// into the next frontier — no locks on the hot path. The paper names
// expanding Ringo's set of parallel algorithms as ongoing work (§3); this
// is the parallel counterpart of the sequential BFS benchmarked in Table 6.
// Results are identical to BFSView.
func BFSParallelView(v *graph.View, src int64, dir EdgeDir) map[int64]int {
	defer report(timed("parbfs"))
	s, ok := v.Index(src)
	if !ok {
		return nil
	}
	n := v.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0
	frontier := []int32{s}
	level := int32(0)
	for len(frontier) > 0 {
		level++
		workers := par.Workers()
		ranges := par.Split(len(frontier), workers)
		nextParts := make([][]int32, len(ranges))
		par.ForEach(len(ranges), func(w int) {
			var out []int32
			visit := func(x int32) {
				// Claim x for this level; exactly one worker wins.
				if atomic.CompareAndSwapInt32(&dist[x], -1, level) {
					out = append(out, x)
				}
			}
			for fi := ranges[w].Lo; fi < ranges[w].Hi; fi++ {
				u := frontier[fi]
				if dir == Out || dir == Both {
					for _, x := range v.Out(u) {
						visit(x)
					}
				}
				if dir == In || dir == Both {
					for _, x := range v.In(u) {
						visit(x)
					}
				}
			}
			nextParts[w] = out
		})
		frontier = frontier[:0]
		for _, p := range nextParts {
			frontier = append(frontier, p...)
		}
	}
	out := make(map[int64]int)
	for i, dv := range dist {
		if dv >= 0 {
			out[v.ID(int32(i))] = int(dv)
		}
	}
	return out
}
