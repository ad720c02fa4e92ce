package par

import (
	"slices"
	"sync/atomic"
	"testing"
	"testing/quick"
)

func TestSplitCoversExactly(t *testing.T) {
	cases := []struct{ n, parts int }{
		{0, 4}, {1, 4}, {4, 4}, {5, 4}, {100, 7}, {7, 100}, {1, 1}, {3, 2},
	}
	for _, c := range cases {
		ranges := Split(c.n, c.parts)
		covered := 0
		prev := 0
		for _, r := range ranges {
			if r.Lo != prev {
				t.Fatalf("Split(%d,%d): range %v does not start at previous end %d", c.n, c.parts, r, prev)
			}
			if r.Hi <= r.Lo {
				t.Fatalf("Split(%d,%d): empty range %v", c.n, c.parts, r)
			}
			covered += r.Hi - r.Lo
			prev = r.Hi
		}
		if covered != c.n {
			t.Fatalf("Split(%d,%d): covered %d indices", c.n, c.parts, covered)
		}
		if c.n > 0 && len(ranges) > c.parts {
			t.Fatalf("Split(%d,%d): %d ranges exceeds parts", c.n, c.parts, len(ranges))
		}
	}
}

func TestSplitBalance(t *testing.T) {
	ranges := Split(103, 10)
	min, max := 1<<30, 0
	for _, r := range ranges {
		sz := r.Hi - r.Lo
		if sz < min {
			min = sz
		}
		if sz > max {
			max = sz
		}
	}
	if max-min > 1 {
		t.Fatalf("unbalanced split: min %d max %d", min, max)
	}
}

func TestForVisitsEachIndexOnce(t *testing.T) {
	const n = 10_000
	counts := make([]int32, n)
	For(n, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			atomic.AddInt32(&counts[i], 1)
		}
	})
	for i, c := range counts {
		if c != 1 {
			t.Fatalf("index %d visited %d times", i, c)
		}
	}
}

func TestForZeroAndOne(t *testing.T) {
	ran := false
	For(0, func(lo, hi int) { ran = true })
	if ran {
		t.Fatal("For(0) invoked fn")
	}
	For(1, func(lo, hi int) {
		if lo != 0 || hi != 1 {
			t.Fatalf("For(1) got range [%d,%d)", lo, hi)
		}
		ran = true
	})
	if !ran {
		t.Fatal("For(1) did not invoke fn")
	}
}

func TestForEach(t *testing.T) {
	const n = 1000
	var sum atomic.Int64
	ForEach(n, func(i int) { sum.Add(int64(i)) })
	want := int64(n * (n - 1) / 2)
	if sum.Load() != want {
		t.Fatalf("ForEach sum = %d, want %d", sum.Load(), want)
	}
}

func TestDo(t *testing.T) {
	var a, b, c atomic.Int32
	Do(func() { a.Store(1) }, func() { b.Store(2) }, func() { c.Store(3) })
	if a.Load() != 1 || b.Load() != 2 || c.Load() != 3 {
		t.Fatal("Do did not run all functions")
	}
}

func TestReduceSum(t *testing.T) {
	const n = 12345
	got := SumInt(n, func(lo, hi int) int64 {
		var s int64
		for i := lo; i < hi; i++ {
			s += int64(i)
		}
		return s
	})
	want := int64(n) * int64(n-1) / 2
	if got != want {
		t.Fatalf("SumInt = %d, want %d", got, want)
	}
}

func TestReduceIdentityOnEmpty(t *testing.T) {
	got := Reduce(0, 42, func(lo, hi int) int { return 0 }, func(a, b int) int { return a + b })
	if got != 42 {
		t.Fatalf("Reduce over empty range = %d, want identity 42", got)
	}
}

func TestReduceOrdered(t *testing.T) {
	// combine is associative but not commutative (string concat analogue via
	// ordered pair folding): verify range-order folding.
	type seq struct{ lo, hi int }
	got := Reduce(100, seq{0, 0}, func(lo, hi int) seq { return seq{lo, hi} },
		func(a, b seq) seq {
			if a.hi != b.lo && !(a.lo == 0 && a.hi == 0) {
				t.Fatalf("out of order combine: %v then %v", a, b)
			}
			return seq{a.lo, b.hi}
		})
	if got.lo != 0 || got.hi != 100 {
		t.Fatalf("Reduce folded to %v", got)
	}
}

func rngFill(a []int64, seed uint64) {
	x := seed | 1
	for i := range a {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		a[i] = int64(x % 1000) // many duplicates
	}
}

func TestSortInt64sSmallAndLarge(t *testing.T) {
	for _, n := range []int{0, 1, 2, 10, 1000, parallelSortMin + 1234} {
		a := make([]int64, n)
		rngFill(a, uint64(n)+7)
		SortInt64s(a)
		for i := 1; i < n; i++ {
			if a[i-1] > a[i] {
				t.Fatalf("n=%d: unsorted at %d: %d > %d", n, i, a[i-1], a[i])
			}
		}
	}
}

func TestSortInt64sQuick(t *testing.T) {
	f := func(in []int16) bool {
		a := make([]int64, len(in))
		for i, x := range in {
			a[i] = int64(x)
		}
		SortInt64s(a)
		return slices.IsSorted(a)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
