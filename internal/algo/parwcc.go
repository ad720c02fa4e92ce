package algo

import (
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// WCCParallelView computes weakly connected components with parallel label
// propagation (hash-min): every node starts labeled with its own index, and
// each round every node atomically lowers its neighbors' labels to the
// minimum seen, until no label changes. Results are identical to WCCView.
func WCCParallelView(v *graph.View) Components {
	defer report(timed("parwcc"))
	n := v.NumNodes()
	label := make([]int32, n)
	for i := range label {
		label[i] = int32(i)
	}
	// lowerTo atomically lowers label[x] to at most val, reporting change.
	lowerTo := func(x int32, val int32) bool {
		for {
			cur := atomic.LoadInt32(&label[x])
			if cur <= val {
				return false
			}
			if atomic.CompareAndSwapInt32(&label[x], cur, val) {
				return true
			}
		}
	}
	for {
		changed := par.SumInt(n, func(lo, hi int) int64 {
			var c int64
			for u := lo; u < hi; u++ {
				lu := atomic.LoadInt32(&label[u])
				min := lu
				for _, x := range v.Out(int32(u)) {
					if lx := atomic.LoadInt32(&label[x]); lx < min {
						min = lx
					}
				}
				for _, x := range v.In(int32(u)) {
					if lx := atomic.LoadInt32(&label[x]); lx < min {
						min = lx
					}
				}
				if min < lu {
					if lowerTo(int32(u), min) {
						c++
					}
				}
				// Push the minimum outward too, halving convergence rounds
				// on long chains.
				for _, x := range v.Out(int32(u)) {
					if lowerTo(x, min) {
						c++
					}
				}
				for _, x := range v.In(int32(u)) {
					if lowerTo(x, min) {
						c++
					}
				}
			}
			return c
		})
		if changed == 0 {
			break
		}
	}
	return labelComponents(v.IDs(), func(i int32) int32 { return label[i] })
}
