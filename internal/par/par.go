// Package par provides the parallelism substrate used throughout the Ringo
// reproduction: static range-partitioned parallel loops, parallel reduction,
// and parallel sorting — each worker's range sorted on its own (a radix
// sort for the (key, value) pairs of the sort-first graph build), then the
// ranges merged pairwise. It plays the role OpenMP plays in the original C++
// implementation (Perez et al., SIGMOD 2015, §2.5): a handful of primitives
// that parallelize the critical loops of table and graph processing — the
// sort-first bulk graph construction, the text-ingest pipeline, the CSR
// view builders (graph.BuildView/BuildUView) and the parallel algorithm
// variants all run on these loops.
//
// The primitives mirror OpenMP's static schedule deliberately: work splits
// into at most Workers() contiguous ranges up front, workers touch
// disjoint index ranges (no locks, no work stealing), and every call
// blocks until the loop completes. Callers own all cross-range
// synchronization — typically by writing to disjoint slices sized in
// advance. The one exception is ForDynamic, OpenMP's dynamic schedule:
// workers take fixed 1024-index chunks from a shared counter until the
// range runs out, for loops whose per-index cost is too skewed to split up
// front (the triangle kernels over a power-law graph's hubs).
package par

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Workers reports the degree of parallelism used by this package, which is
// runtime.GOMAXPROCS(0). All loop primitives split work into at most this
// many contiguous ranges, mirroring OpenMP's static schedule.
func Workers() int {
	return runtime.GOMAXPROCS(0)
}

// Range is a half-open index interval [Lo, Hi).
type Range struct {
	Lo, Hi int
}

// Split partitions [0, n) into at most parts contiguous ranges of nearly
// equal size. It never returns empty ranges; for n == 0 it returns nil.
func Split(n, parts int) []Range {
	if n <= 0 || parts <= 0 {
		return nil
	}
	if parts > n {
		parts = n
	}
	out := make([]Range, 0, parts)
	chunk := n / parts
	rem := n % parts
	lo := 0
	for i := 0; i < parts; i++ {
		hi := lo + chunk
		if i < rem {
			hi++
		}
		out = append(out, Range{lo, hi})
		lo = hi
	}
	return out
}

// For runs fn over [0, n) split into contiguous ranges, one goroutine per
// worker. fn must be safe to call concurrently on disjoint ranges. For
// blocks until all ranges complete.
func For(n int, fn func(lo, hi int)) {
	ranges := Split(n, Workers())
	switch len(ranges) {
	case 0:
		return
	case 1:
		fn(ranges[0].Lo, ranges[0].Hi)
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for _, r := range ranges {
		go func(r Range) {
			defer wg.Done()
			fn(r.Lo, r.Hi)
		}(r)
	}
	wg.Wait()
}

// dynamicChunk is ForDynamic's grain: small enough that a run of costly
// indices spreads over every worker, large enough that taking one costs
// nothing next to its work.
const dynamicChunk = 1024

// ForDynamic runs fn over [0, n) in 1024-index chunks that up to Workers()
// goroutines take in turn from a shared counter, OpenMP's dynamic schedule:
// a worker that drew cheap indices comes back for more, so a run of costly
// ones (the hubs of a skewed graph) cannot hold the loop up the way it
// holds one of For's static ranges. fn must be safe to call concurrently
// on disjoint ranges. ForDynamic blocks until every chunk completes.
func ForDynamic(n int, fn func(lo, hi int)) {
	workers := min(Workers(), (n+dynamicChunk-1)/dynamicChunk)
	if workers <= 1 {
		if n > 0 {
			fn(0, n)
		}
		return
	}
	var next atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for range workers {
		go func() {
			defer wg.Done()
			for {
				lo := int(next.Add(dynamicChunk)) - dynamicChunk
				if lo >= n {
					return
				}
				fn(lo, min(lo+dynamicChunk, n))
			}
		}()
	}
	wg.Wait()
}

// ForEach runs fn for every index in [0, n) using For's range partitioning.
// It is a convenience wrapper for per-element loops.
func ForEach(n int, fn func(i int)) {
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			fn(i)
		}
	})
}

// Do runs all fns concurrently and waits for them to finish.
func Do(fns ...func()) {
	if len(fns) == 1 {
		fns[0]()
		return
	}
	var wg sync.WaitGroup
	wg.Add(len(fns))
	for _, fn := range fns {
		go func(fn func()) {
			defer wg.Done()
			fn()
		}(fn)
	}
	wg.Wait()
}

// Reduce maps contiguous ranges of [0, n) through mapRange in parallel and
// folds the per-range results with combine. combine must be associative;
// results are folded in range order, so it need not be commutative. For
// n == 0 the identity value is returned.
func Reduce[T any](n int, identity T, mapRange func(lo, hi int) T, combine func(a, b T) T) T {
	ranges := Split(n, Workers())
	switch len(ranges) {
	case 0:
		return identity
	case 1:
		return combine(identity, mapRange(ranges[0].Lo, ranges[0].Hi))
	}
	parts := make([]T, len(ranges))
	var wg sync.WaitGroup
	wg.Add(len(ranges))
	for i, r := range ranges {
		go func(i int, r Range) {
			defer wg.Done()
			parts[i] = mapRange(r.Lo, r.Hi)
		}(i, r)
	}
	wg.Wait()
	acc := identity
	for _, p := range parts {
		acc = combine(acc, p)
	}
	return acc
}

// SumInt is Reduce specialized to summing int64 contributions, the most
// common reduction in the benchmarks (e.g. counting selected rows).
func SumInt(n int, mapRange func(lo, hi int) int64) int64 {
	return Reduce(n, 0, mapRange, func(a, b int64) int64 { return a + b })
}
