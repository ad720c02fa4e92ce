package algo

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/par"
)

// The references below are the power-iteration kernels as they stood
// before the degree-ordered pull core: one node per loop, in index order,
// each summing its neighbours in list order. The pull core must reproduce
// them bit for bit at every worker count.

// gatherPerNode sums the contributions of node i's in-neighbors.
func gatherPerNode(v *graph.View, contrib []float64, i int) float64 {
	var sum float64
	for _, src := range v.In(int32(i)) {
		sum += contrib[src]
	}
	return sum
}

// spreadPerNode is spread as the per-node kernels called it.
func spreadPerNode(v *graph.View, contrib, x []float64) float64 {
	var dangling float64
	for i := range x {
		if d := v.OutDeg(int32(i)); d > 0 {
			contrib[i] = x[i] / float64(d)
		} else {
			dangling += x[i]
		}
	}
	return dangling
}

func pprPerNode(v *graph.View, seeds []int64, damping float64, iters int) Scores {
	n := v.NumNodes()
	seedIdx := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if i, ok := v.Index(s); ok {
			seedIdx = append(seedIdx, i)
		}
	}
	if len(seedIdx) == 0 {
		return Scores{}
	}
	teleport := make([]float64, n)
	for _, i := range seedIdx {
		teleport[i] += 1.0 / float64(len(seedIdx))
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	copy(pr, teleport)
	for it := 0; it < iters; it++ {
		dangling := spreadPerNode(v, contrib, pr)
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = (1-damping)*teleport[i] + damping*(gatherPerNode(v, contrib, i)+dangling*teleport[i])
			}
		})
		pr, next = next, pr
	}
	return newScores(v.IDs(), pr)
}

func hitsPerNode(v *graph.View, iters int) HITSScores {
	n := v.NumNodes()
	hub := make([]float64, n)
	auth := make([]float64, n)
	parFill(hub, 1)
	parFill(auth, 1)
	for it := 0; it < iters; it++ {
		// Authority: sum of hub scores of in-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, src := range v.In(int32(i)) {
					s += hub[src]
				}
				auth[i] = s
			}
		})
		normalizePerNode(auth)
		// Hub: sum of authority scores of out-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, dst := range v.Out(int32(i)) {
					s += auth[dst]
				}
				hub[i] = s
			}
		})
		normalizePerNode(hub)
	}
	return HITSScores{
		Hub:       newScores(v.IDs(), hub),
		Authority: newScores(v.IDs(), auth),
	}
}

func normalizePerNode(a []float64) {
	var sq float64
	for _, v := range a {
		sq += v * v
	}
	if sq == 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range a {
		a[i] *= inv
	}
}

// sameBits fails unless got and want score the same ids with the same
// float64 bits.
func sameBits(t *testing.T, what string, got, want Scores) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: scored %d nodes, reference %d", what, len(got), len(want))
	}
	for i := range want {
		if got[i].ID != want[i].ID || math.Float64bits(got[i].Score) != math.Float64bits(want[i].Score) {
			t.Fatalf("%s[%d] = (%d, %x), reference (%d, %x)", what, i,
				got[i].ID, math.Float64bits(got[i].Score), want[i].ID, math.Float64bits(want[i].Score))
		}
	}
}

// equalDegreeRuns has, for k = 1..7, a run of exactly k nodes sharing an
// in-degree no other run has, so the four-lane groups start, end and
// fall short at every offset; the sources' out-degrees vary as well.
func equalDegreeRuns() *graph.View {
	var edges [][2]int64
	src := int64(1000)
	for k := 1; k <= 7; k++ {
		for j := 0; j < k; j++ {
			dst := int64(100*k + j)
			for d := 0; d < 2*k+1; d++ {
				edges = append(edges, [2]int64{src + int64((j+d)%(3*k)), dst})
			}
		}
		src += 100
	}
	return directed(edges)
}

// pullTestGraphs is the mapped tier's shape set plus the shapes that stress
// the lanes: a skewed graph of many degree-sorted blocks and worker
// ranges, all degree 1, equal-degree runs of every length 1–7, one hub,
// no edges at all, and no nodes.
func pullTestGraphs() map[string]*graph.View {
	gs := extTestGraphs()
	gs["rmat"] = rmatGraph(10, 6000, 3)
	gs["rmat14"] = rmatGraph(14, 60000, 5)
	gs["ring1"] = gen.Ring(1)
	gs["ring7"] = gen.Ring(7)
	gs["runs"] = equalDegreeRuns()
	gs["hub"] = gen.Star(1)
	gs["all-dangling"] = directed(nil, 0, 7, 14, 21, 28, 35, 42, 49, 56)
	gs["empty"] = directed(nil)
	return gs
}

// TestPullKernelsBitIdentical holds every kernel on the pull core —
// PageRank, personalized PageRank and HITS — to their per-node forms bit
// for bit, at one, two and four workers.
func TestPullKernelsBitIdentical(t *testing.T) {
	graphs := pullTestGraphs()
	for _, procs := range []int{1, 2, 4} {
		old := runtime.GOMAXPROCS(procs)
		for name, v := range graphs {
			var seeds []int64
			if n := v.NumNodes(); n > 0 {
				seeds = []int64{v.ID(0), v.ID(int32(n / 2)), v.ID(int32(n - 1)), -1}
			}
			what := func(kernel string) string { return fmt.Sprintf("%s procs=%d: %s", name, procs, kernel) }
			sameBits(t, what("PageRankView"),
				PageRankView(v, DefaultDamping, 10), newScores(v.IDs(), pageRankPerEdge(v, DefaultDamping, 10, true)))
			sameBits(t, what("PersonalizedPageRankView"),
				PersonalizedPageRankView(v, seeds, DefaultDamping, 10), pprPerNode(v, seeds, DefaultDamping, 10))
			got, want := HITSView(v, 8), hitsPerNode(v, 8)
			sameBits(t, what("HITSView hub"), got.Hub, want.Hub)
			sameBits(t, what("HITSView authority"), got.Authority, want.Authority)
		}
		runtime.GOMAXPROCS(old)
	}
}

// FuzzPageRankBits decodes each byte pair into an edge between two of 48
// node ids, self-loops included (a first byte of 240 or more adds only the
// second's node, so isolated nodes occur), and holds PageRankView to the per-edge-division
// reference and HITSView to its per-node form, bit for bit, at one and
// four workers.
func FuzzPageRankBits(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 3, 3, 1, 4, 4, 250, 9})
	f.Add([]byte{0, 1, 2, 1, 3, 1, 4, 1, 5, 6, 7, 6, 8, 6, 9, 6, 10, 10})
	f.Fuzz(func(t *testing.T, data []byte) {
		var edges [][2]int64
		var nodes []int64
		for ; len(data) >= 2; data = data[2:] {
			src, dst := int64(data[0]%48), int64(data[1]%48)
			if data[0] >= 240 {
				nodes = append(nodes, dst)
				continue
			}
			edges = append(edges, [2]int64{src, dst})
		}
		v := directed(edges, nodes...)
		old := runtime.GOMAXPROCS(1)
		defer runtime.GOMAXPROCS(old)
		for _, procs := range []int{1, 4} {
			runtime.GOMAXPROCS(procs)
			want := newScores(v.IDs(), pageRankPerEdge(v, DefaultDamping, 10, true))
			sameBits(t, "PageRankView", PageRankView(v, DefaultDamping, 10), want)
			got, ref := HITSView(v, 5), hitsPerNode(v, 5)
			sameBits(t, "HITSView hub", got.Hub, ref.Hub)
			sameBits(t, "HITSView authority", got.Authority, ref.Authority)
		}
	})
}
