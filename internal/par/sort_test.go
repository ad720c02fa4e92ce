package par

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// checkSortInt64s sorts a copy of a with SortInt64s and fails on any
// difference from the reference, slices.Sort.
func checkSortInt64s(t *testing.T, name string, a []int64) {
	t.Helper()
	want := slices.Clone(a)
	slices.Sort(want)
	a = slices.Clone(a)
	SortInt64s(a)
	for i := range want {
		if a[i] != want[i] {
			t.Fatalf("%s: element %d is %d, want %d", name, i, a[i], want[i])
		}
	}
}

// TestSortInt64sMatchesReference compares SortInt64s with slices.Sort over
// the id shapes the sort meets: dense node ids, negative ids, heavy
// duplication, all-equal input and full-range ids including the graph
// tombstone (MinInt64) and MaxInt64 — on the sequential path and on the
// parallel split-and-merge path.
func TestSortInt64sMatchesReference(t *testing.T) {
	shapes := map[string]func(r *rand.Rand) int64{
		"all-equal":  func(*rand.Rand) int64 { return 42 },
		"dense-12":   func(r *rand.Rand) int64 { return r.Int63n(1 << 12) },
		"negative":   func(r *rand.Rand) int64 { return r.Int63n(10_000) - 9_000 },
		"duplicates": func(r *rand.Rand) int64 { return r.Int63n(4) },
		"full-range": func(r *rand.Rand) int64 {
			switch r.Intn(8) {
			case 0:
				return math.MinInt64
			case 1:
				return math.MaxInt64
			}
			return int64(r.Uint64())
		},
	}
	sizes := []int{0, 1, 2, 25, parallelSortMin - 1, parallelSortMin + 1, 100_000}
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			for name, gen := range shapes {
				for _, n := range sizes {
					r := rand.New(rand.NewSource(int64(n)))
					a := make([]int64, n)
					for i := range a {
						a[i] = gen(r)
					}
					checkSortInt64s(t, fmt.Sprintf("workers=%d %s n=%d", workers, name, n), a)
				}
			}
		})
	}
}

// FuzzSortInt64s decodes data as little-endian int64s, each shifted right
// by shift%64 so narrow, dense spans are explored as well as full-width
// ones, and holds SortInt64s to slices.Sort.
func FuzzSortInt64s(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), math.MaxInt64), uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdef"), uint8(52))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		a := make([]int64, len(data)/8)
		for i := range a {
			a[i] = int64(binary.LittleEndian.Uint64(data[8*i:])) >> (shift % 64)
		}
		checkSortInt64s(t, "fuzz", a)
	})
}

// BenchmarkSortInt64s sizes the sort on the inputs a view build feeds it:
// dense node ids at analyst scale (25K) and at a million, and a million
// random 63-bit ids, the widest spans the sort can meet.
func BenchmarkSortInt64s(b *testing.B) {
	cases := []struct {
		name string
		n    int
		gen  func(r *rand.Rand, n int) int64
	}{
		{"dense-25K", 25_000, func(r *rand.Rand, n int) int64 { return r.Int63n(int64(n)) }},
		{"dense-1M", 1 << 20, func(r *rand.Rand, n int) int64 { return r.Int63n(int64(n)) }},
		{"wide-1M", 1 << 20, func(r *rand.Rand, _ int) int64 { return r.Int63() }},
	}
	for _, c := range cases {
		b.Run(c.name, func(b *testing.B) {
			r := rand.New(rand.NewSource(1))
			in := make([]int64, c.n)
			for i := range in {
				in[i] = c.gen(r, c.n)
			}
			a := make([]int64, c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(a, in)
				SortInt64s(a)
			}
		})
	}
}
