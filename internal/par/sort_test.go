package par

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"testing"
)

// sortPairsRef is the reference SortPairs is held to: the pairs sorted
// lexicographically by the standard library.
func sortPairsRef(keys, vals []int64) [][2]int64 {
	ref := make([][2]int64, len(keys))
	for i := range keys {
		ref[i] = [2]int64{keys[i], vals[i]}
	}
	slices.SortFunc(ref, func(a, b [2]int64) int {
		return cmp.Or(cmp.Compare(a[0], b[0]), cmp.Compare(a[1], b[1]))
	})
	return ref
}

// checkSortPairs sorts a copy of (keys, vals) with SortPairs and fails on
// any difference from the reference.
func checkSortPairs(t *testing.T, name string, keys, vals []int64) {
	t.Helper()
	want := sortPairsRef(keys, vals)
	keys, vals = slices.Clone(keys), slices.Clone(vals)
	SortPairs(keys, vals)
	for i, p := range want {
		if keys[i] != p[0] || vals[i] != p[1] {
			t.Fatalf("%s: pair %d is (%d,%d), want (%d,%d)", name, i, keys[i], vals[i], p[0], p[1])
		}
	}
}

// TestSortPairsMatchesReference compares SortPairs with slices.SortFunc
// over the id shapes the sort meets: dense node ids, negative ids, heavy
// duplication, all-equal input and full-range ids including the graph
// tombstone (MinInt64) and MaxInt64 — on the sequential path and on the
// parallel split-and-merge path.
func TestSortPairsMatchesReference(t *testing.T) {
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
					keys, vals := make([]int64, n), make([]int64, n)
					for i := range keys {
						keys[i], vals[i] = gen(r), gen(r)
					}
					checkSortPairs(t, fmt.Sprintf("workers=%d %s n=%d", workers, name, n), keys, vals)
				}
			}
		})
	}
}

// FuzzSortPairs decodes data as (key, val) pairs of little-endian int64s,
// each shifted right by shift%64 so narrow, dense spans are explored as
// well as full-width ones, and holds SortPairs to the reference.
func FuzzSortPairs(f *testing.F) {
	f.Add([]byte{}, uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), math.MaxInt64), uint8(0))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdef"), uint8(52))
	f.Fuzz(func(t *testing.T, data []byte, shift uint8) {
		n := len(data) / 16
		keys, vals := make([]int64, n), make([]int64, n)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(data[16*i:])) >> (shift % 64)
			vals[i] = int64(binary.LittleEndian.Uint64(data[16*i+8:])) >> (shift % 64)
		}
		checkSortPairs(t, "fuzz", keys, vals)
	})
}

// BenchmarkSortPairs sizes the pair sort on the inputs tograph feeds it:
// dense node ids at analyst scale (25K) and at a million edges, and a
// million random 63-bit ids, the widest spans the sort can meet.
func BenchmarkSortPairs(b *testing.B) {
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
			inK, inV := make([]int64, c.n), make([]int64, c.n)
			for i := range inK {
				inK[i], inV[i] = c.gen(r, c.n), c.gen(r, c.n)
			}
			keys, vals := make([]int64, c.n), make([]int64, c.n)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				copy(keys, inK)
				copy(vals, inV)
				SortPairs(keys, vals)
			}
		})
	}
}
