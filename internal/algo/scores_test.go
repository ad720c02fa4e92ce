package algo

import (
	"cmp"
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// at returns s's score for id, or 0 when id is absent.
func at(s Scores, id int64) float64 {
	v, _ := s.Get(id)
	return v
}

func TestScoresGet(t *testing.T) {
	s := Scores{{-5, 1.5}, {0, 2.5}, {3, 0}, {1 << 40, 4.5}}
	for _, e := range s {
		if got, ok := s.Get(e.ID); !ok || got != e.Score {
			t.Errorf("Get(%d) = %v, %v; want %v, true", e.ID, got, ok, e.Score)
		}
	}
	// Below the first id, in every gap, above the last id.
	for _, id := range []int64{math.MinInt64, -6, -4, 1, 2, 4, 1<<40 - 1, 1<<40 + 1, math.MaxInt64} {
		if got, ok := s.Get(id); ok || got != 0 {
			t.Errorf("Get(%d) = %v, %v; want 0, false", id, got, ok)
		}
	}
	for _, empty := range []Scores{nil, {}} {
		if _, ok := empty.Get(0); ok {
			t.Errorf("Get on %#v reported a hit", empty)
		}
	}
}

// rankReference is the definition TopK must meet: sort a copy of
// everything by (score descending, id ascending) and keep k.
func rankReference(s Scores, k int) []Scored {
	want := slices.Clone([]Scored(s))
	slices.SortFunc(want, func(a, b Scored) int {
		return cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID))
	})
	return want[:max(0, min(k, len(s)))]
}

// sameScored compares entries by id and score bits, so NaN equals NaN and
// -0 differs from 0.
func sameScored(a, b []Scored) bool {
	return slices.EqualFunc(a, b, func(x, y Scored) bool {
		return x.ID == y.ID && math.Float64bits(x.Score) == math.Float64bits(y.Score)
	})
}

// TestTopKMatchesFullSort holds the selection to the definition it
// replaces. Scores are drawn from a handful of values so ties straddle the
// cut; NaN, ±Inf and ±0 are among them, so the order must stay strict
// weak where float comparison is not.
func TestTopKMatchesFullSort(t *testing.T) {
	values := []float64{math.NaN(), math.Inf(1), math.Inf(-1), 0, math.Copysign(0, -1), 0.25, 0.5, 0.75}
	rng := rand.New(rand.NewSource(15))
	for trial := 0; trial < 200; trial++ {
		n := rng.Intn(300)
		levels := values[:1+rng.Intn(len(values))]
		s := make(Scores, n)
		id := int64(rng.Intn(100)) - 50
		for i := range s {
			s[i] = Scored{id, levels[rng.Intn(len(levels))]}
			id += 1 + int64(rng.Intn(3))
		}
		before := slices.Clone(s)
		for _, k := range []int{1, 10, n - 1, n, n + 5} {
			if got, ref := TopK(s, k), rankReference(s, k); !sameScored(got, ref) {
				t.Fatalf("trial %d: TopK(n=%d, k=%d) = %v, want %v", trial, n, k, got, ref)
			}
		}
		if !sameScored(s, before) {
			t.Fatalf("trial %d: TopK modified its input", trial)
		}
	}
	if got := TopK(Scores{}, 10); len(got) != 0 {
		t.Fatalf("TopK of the empty vector = %v", got)
	}
}

// FuzzTopK holds TopK to the full-sort reference over arbitrary scores:
// each 9-byte record is a score's raw float64 bits (NaN payloads, ±0 and
// ±Inf included) and the gap to the next, strictly ascending, id.
func FuzzTopK(f *testing.F) {
	var seed []byte
	for _, v := range []float64{1, math.NaN(), 0, math.Inf(1), math.Copysign(0, -1), math.Inf(-1), 1, math.NaN()} {
		seed = append(binary.LittleEndian.AppendUint64(seed, math.Float64bits(v)), 0)
	}
	f.Add([]byte{}, 3)
	f.Add(seed, 3)
	f.Add(seed, 8)
	f.Fuzz(func(t *testing.T, data []byte, k int) {
		s := make(Scores, 0, len(data)/9)
		id := int64(-1000)
		for ; len(data) >= 9; data = data[9:] {
			s = append(s, Scored{id, math.Float64frombits(binary.LittleEndian.Uint64(data))})
			id += 1 + int64(data[8])
		}
		before := slices.Clone(s)
		if got, ref := TopK(s, k), rankReference(s, k); !sameScored(got, ref) {
			t.Fatalf("TopK(n=%d, k=%d) = %v, want %v", len(s), k, got, ref)
		}
		if !sameScored(s, before) {
			t.Fatal("TopK modified its input")
		}
	})
}

// pageRankPerEdge is the kernel as it stood before the division was
// hoisted out of the gather — one pr[src]/outDeg[src] per edge per
// iteration — kept as the bit-equality reference for spread + gather.
func pageRankPerEdge(v *graph.View, damping float64, iters int, parallel bool) []float64 {
	n := v.NumNodes()
	if n == 0 {
		return nil
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	outDeg := make([]int32, n)
	for i := range outDeg {
		outDeg[i] = int32(v.OutDeg(int32(i)))
		pr[i] = 1.0 / float64(n)
	}
	sumDangling := func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			if outDeg[i] == 0 {
				s += pr[i]
			}
		}
		return s
	}
	for it := 0; it < iters; it++ {
		dangling := sumDangling(0, n)
		if parallel {
			dangling = par.Reduce(n, 0.0, sumDangling, func(a, b float64) float64 { return a + b })
		}
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		for i := 0; i < n; i++ {
			var sum float64
			for _, src := range v.In(int32(i)) {
				sum += pr[src] / float64(outDeg[src])
			}
			next[i] = base + damping*sum
		}
		pr, next = next, pr
	}
	return pr
}

// TestPageRankBitIdentical pins PageRankView to the per-edge-division
// reference bit for bit, over the shape families of the oracle suites
// (G(n,m), ring, star, isolated nodes, deleted nodes), on one core and
// on four — the dangling-mass fold order follows the worker count, so each
// count is its own case.
func TestPageRankBitIdentical(t *testing.T) {
	graphs := extTestGraphs()
	graphs["rmat"] = rmatGraph(10, 6000, 3)
	for _, procs := range []int{1, 4} {
		old := runtime.GOMAXPROCS(procs)
		for name, v := range graphs {
			same := func(kernel string, got Scores, want []float64) {
				t.Helper()
				if len(got) != len(want) {
					t.Fatalf("%s procs=%d: %s scored %d nodes, want %d", name, procs, kernel, len(got), len(want))
				}
				for i, e := range got {
					if e.ID != v.ID(int32(i)) || math.Float64bits(e.Score) != math.Float64bits(want[i]) {
						t.Fatalf("%s procs=%d: %s[%d] = (%d, %x), reference (%d, %x)", name, procs, kernel, i,
							e.ID, math.Float64bits(e.Score), v.ID(int32(i)), math.Float64bits(want[i]))
					}
				}
			}
			want := pageRankPerEdge(v, DefaultDamping, 10, true)
			same("PageRankView", PageRankView(v, DefaultDamping, 10), want)
		}
		runtime.GOMAXPROCS(old)
	}
}

// rankedVector builds an id-sorted vector of n distinct-ish scores.
func rankedVector(n int) Scores {
	rng := rand.New(rand.NewSource(1))
	s := make(Scores, n)
	for i := range s {
		s[i] = Scored{int64(i) * 3, rng.ExpFloat64()}
	}
	return s
}

// BenchmarkTopK is the `top` verb's selection at the warm-read workload's
// vector size.
func BenchmarkTopK(b *testing.B) {
	s := rankedVector(1 << 16)
	for _, k := range []int{10, 100} {
		b.Run(fmt.Sprintf("k=%d", k), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if got := TopK(s, k); len(got) != k {
					b.Fatal(len(got))
				}
			}
		})
	}
}

// BenchmarkPageRankView is the `pagerank` verb's kernel plus result
// materialization at the update-query workload's graph size.
func BenchmarkPageRankView(b *testing.B) {
	v := rmatGraph(15, 200000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := PageRankView(v, DefaultDamping, 10); len(got) != v.NumNodes() {
			b.Fatal(len(got))
		}
	}
}

// BenchmarkHITSView is HITSView, the pull core over in- and out-edges, at
// the update-query workload's graph size.
func BenchmarkHITSView(b *testing.B) {
	v := rmatGraph(15, 200000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := HITSView(v, 10); len(got.Hub) != v.NumNodes() {
			b.Fatal(len(got.Hub))
		}
	}
}

// sumScores is the total of a score vector; a PageRank vector sums to 1.
func sumScores(scores Scores) float64 {
	var s float64
	for _, e := range scores {
		s += e.Score
	}
	return s
}
