package par

import (
	"runtime"
	"slices"
	"sync/atomic"
	"testing"
)

// withWorkers forces a worker count so the genuinely parallel code paths
// (multi-range splits, pairwise merges) execute even on single-CPU hosts.
func withWorkers(t *testing.T, n int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(n)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

func TestForMultiWorkerPath(t *testing.T) {
	withWorkers(t, 4, func() {
		if Workers() != 4 {
			t.Skip("GOMAXPROCS not adjustable")
		}
		const n = 10_000
		var sum atomic.Int64
		For(n, func(lo, hi int) {
			var local int64
			for i := lo; i < hi; i++ {
				local += int64(i)
			}
			sum.Add(local)
		})
		if want := int64(n) * (n - 1) / 2; sum.Load() != want {
			t.Fatalf("sum = %d, want %d", sum.Load(), want)
		}
	})
}

func TestReduceMultiWorkerPath(t *testing.T) {
	withWorkers(t, 4, func() {
		got := SumInt(100_000, func(lo, hi int) int64 {
			var s int64
			for i := lo; i < hi; i++ {
				s += int64(i)
			}
			return s
		})
		if want := int64(100_000) * 99_999 / 2; got != want {
			t.Fatalf("SumInt = %d, want %d", got, want)
		}
	})
}

func TestSortInt64sParallelMergePath(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, n := range []int{parallelSortMin + 1, 3*parallelSortMin + 17} {
			a := make([]int64, n)
			rngFill(a, uint64(n))
			want := slices.Clone(a)
			slices.Sort(want)
			SortInt64s(a)
			if !slices.Equal(a, want) {
				t.Fatalf("n=%d: SortInt64s differs from slices.Sort", n)
			}
		}
	})
}

// TestSortPairsParallelMergePath runs the parallel merge at 3, 4 and 5
// workers: at an odd count the last run of a round has no partner and is
// copied across whole (the odd-run copy branch). The name dates from the
// (key, value) pair sort that once shared this merge with SortInt64s.
func TestSortPairsParallelMergePath(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, workers := range []int{3, 4, 5} {
			prev := runtime.GOMAXPROCS(workers)
			n := 2*parallelSortMin + 311
			a := make([]int64, n)
			rngFill(a, 7)
			want := slices.Clone(a)
			slices.Sort(want)
			SortInt64s(a)
			runtime.GOMAXPROCS(prev)
			if !slices.Equal(a, want) {
				t.Fatalf("workers=%d: SortInt64s differs from slices.Sort", workers)
			}
		}
	})
}

func TestDoSingleFunction(t *testing.T) {
	ran := false
	Do(func() { ran = true })
	if !ran {
		t.Fatal("Do(single) did not run")
	}
}

func TestForDynamicVisitsEachIndexOnce(t *testing.T) {
	withWorkers(t, 4, func() {
		for _, n := range []int{0, 1, dynamicChunk, 3*dynamicChunk + 17} {
			seen := make([]atomic.Int32, n)
			ForDynamic(n, func(lo, hi int) {
				if hi-lo > dynamicChunk {
					t.Errorf("n=%d: chunk [%d, %d) exceeds %d", n, lo, hi, dynamicChunk)
				}
				for i := lo; i < hi; i++ {
					seen[i].Add(1)
				}
			})
			for i := range seen {
				if c := seen[i].Load(); c != 1 {
					t.Fatalf("n=%d: index %d visited %d times", n, i, c)
				}
			}
		}
	})
}
