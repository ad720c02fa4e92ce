package bitmap

import (
	"math/rand"
	"testing"
)

// refBitmap mirrors a Bitmap as a []bool, the oracle for the word-level ops.
func randomPair(n int, seed int64) (*Bitmap, []bool) {
	rng := rand.New(rand.NewSource(seed))
	b := New(n)
	ref := make([]bool, n)
	for i := 0; i < n; i++ {
		if rng.Intn(2) == 1 {
			b.Set(i)
			ref[i] = true
		}
	}
	return b, ref
}

func checkAgainst(t *testing.T, b *Bitmap, ref []bool, ctx string) {
	t.Helper()
	if b.Len() != len(ref) {
		t.Fatalf("%s: len = %d, want %d", ctx, b.Len(), len(ref))
	}
	want := 0
	for i, r := range ref {
		if b.Get(i) != r {
			t.Fatalf("%s: bit %d = %v, want %v", ctx, i, b.Get(i), r)
		}
		if r {
			want++
		}
	}
	if got := b.Count(); got != want {
		t.Fatalf("%s: Count = %d, want %d", ctx, got, want)
	}
	// Tail invariant: bits past Len are zero in the last word.
	if w := b.Words(); len(w) > 0 && b.Len()&63 != 0 {
		if w[len(w)-1]&^((1<<uint(b.Len()&63))-1) != 0 {
			t.Fatalf("%s: tail bits past Len are set", ctx)
		}
	}
}

func TestSetGetClear(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 1000} {
		b := New(n)
		if b.Count() != 0 {
			t.Fatalf("n=%d: fresh bitmap has %d set bits", n, b.Count())
		}
		for i := 0; i < n; i += 7 {
			b.Set(i)
		}
		for i := 0; i < n; i++ {
			if b.Get(i) != (i%7 == 0) {
				t.Fatalf("n=%d: bit %d wrong", n, i)
			}
		}
		for i := 0; i < n; i += 7 {
			b.Clear(i)
		}
		if b.Count() != 0 {
			t.Fatalf("n=%d: Clear left %d bits", n, b.Count())
		}
	}
}

func TestWordOpsAgainstReference(t *testing.T) {
	for _, n := range []int{1, 64, 65, 127, 128, 500, 4096 + 17} {
		a, ra := randomPair(n, int64(n))
		c, rc := randomPair(n, int64(n)*31+7)

		and := a.Clone()
		and.And(c)
		wantAnd := make([]bool, n)
		for i := range wantAnd {
			wantAnd[i] = ra[i] && rc[i]
		}
		checkAgainst(t, and, wantAnd, "And")

		or := a.Clone()
		or.Or(c)
		wantOr := make([]bool, n)
		for i := range wantOr {
			wantOr[i] = ra[i] || rc[i]
		}
		checkAgainst(t, or, wantOr, "Or")

		not := a.Clone()
		not.Not()
		wantNot := make([]bool, n)
		for i := range wantNot {
			wantNot[i] = !ra[i]
		}
		checkAgainst(t, not, wantNot, "Not")

		// Double complement restores the original, including the tail.
		not.Not()
		checkAgainst(t, not, ra, "Not twice")
	}
}

func TestSetAllReset(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 200} {
		b := New(n)
		b.SetAll()
		if b.Count() != n {
			t.Fatalf("n=%d: SetAll counts %d", n, b.Count())
		}
		b.Not()
		if b.Count() != 0 {
			t.Fatalf("n=%d: complement of all-ones counts %d", n, b.Count())
		}
		b.SetAll()
		b.Reset()
		if b.Count() != 0 {
			t.Fatalf("n=%d: Reset left %d bits", n, b.Count())
		}
	}
}

func TestCountRange(t *testing.T) {
	n := 513
	b, ref := randomPair(n, 42)
	for _, r := range [][2]int{{0, 0}, {0, n}, {0, 1}, {63, 65}, {64, 128}, {1, 512}, {100, 101}, {511, 513}, {200, 150}} {
		lo, hi := r[0], r[1]
		want := 0
		for i := lo; i < hi && i < n; i++ {
			if ref[i] {
				want++
			}
		}
		if got := b.CountRange(lo, hi); got != want {
			t.Fatalf("CountRange(%d,%d) = %d, want %d", lo, hi, got, want)
		}
	}
}

func TestRangeIteration(t *testing.T) {
	n := 300
	b, ref := randomPair(n, 7)
	var got []int
	b.Range(func(i int) { got = append(got, i) })
	var want []int
	for i, r := range ref {
		if r {
			want = append(want, i)
		}
	}
	if len(got) != len(want) {
		t.Fatalf("Range yielded %d bits, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("Range[%d] = %d, want %d", i, got[i], want[i])
		}
	}
	// Sub-range iteration respects both bounds.
	got = got[:0]
	b.RangeBits(65, 129, func(i int) { got = append(got, i) })
	for _, i := range got {
		if i < 65 || i >= 129 {
			t.Fatalf("RangeBits(65,129) yielded out-of-range bit %d", i)
		}
	}
	count := 0
	for i := 65; i < 129; i++ {
		if ref[i] {
			count++
		}
	}
	if len(got) != count {
		t.Fatalf("RangeBits(65,129) yielded %d bits, want %d", len(got), count)
	}
}

func TestParFill(t *testing.T) {
	n := 10_000
	b := New(n)
	// Fill even bits via the parallel word-range helper.
	b.ParFill(func(lo, hi int) {
		for w := lo; w < hi; w++ {
			base := w << 6
			end := base + WordBits
			if end > n {
				end = n
			}
			var word uint64
			for i := base; i < end; i++ {
				if i%2 == 0 {
					word |= 1 << uint(i-base)
				}
			}
			b.Words()[w] = word
		}
	})
	if got, want := b.Count(), (n+1)/2; got != want {
		t.Fatalf("ParFill count = %d, want %d", got, want)
	}
	for i := 0; i < n; i++ {
		if b.Get(i) != (i%2 == 0) {
			t.Fatalf("ParFill bit %d wrong", i)
		}
	}
}

func TestLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("And on mismatched lengths did not panic")
		}
	}()
	New(10).And(New(11))
}
