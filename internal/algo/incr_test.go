package algo

import (
	"math"
	"math/rand"
	"reflect"
	"testing"

	"ringo/internal/graph"
)

func randGraph(rng *rand.Rand, nodes int64, edges int) *graph.Directed {
	g := graph.NewDirected()
	for i := 0; i < edges; i++ {
		g.AddEdge(rng.Int63n(nodes), rng.Int63n(nodes))
	}
	// A few guaranteed dangling and isolated nodes.
	g.AddEdge(nodes, nodes+1)
	g.AddNode(nodes + 2)
	return g
}

func maxScoreDiff(a, b Scores) float64 {
	var worst float64
	for _, e := range a {
		if d := math.Abs(e.Score - at(b, e.ID)); d > worst {
			worst = d
		}
	}
	for _, e := range b {
		if _, ok := a.Get(e.ID); !ok && math.Abs(e.Score) > worst {
			worst = math.Abs(e.Score)
		}
	}
	return worst
}

// TestPageRankViewTolConverges checks the tolerance-based oracle against a
// long fixed-iteration run of the standard redistribute formulation: the
// dangling-discard model it iterates is proportional, so after
// normalization the two must agree tightly.
func TestPageRankViewTolConverges(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	g := randGraph(rng, 200, 800)
	v := graph.BuildView(g)
	tol := PageRankViewTol(v, DefaultDamping, 1e-12)
	fixed := PageRankView(v, DefaultDamping, 300)
	if d := maxScoreDiff(tol, fixed); d > 1e-9 {
		t.Fatalf("tolerance-based PageRank diverges from converged power iteration: max diff %g", d)
	}
	if sum := sumScores(tol); math.Abs(sum-1) > 1e-9 {
		t.Fatalf("scores do not sum to 1: %g", sum)
	}
}

// TestPageRankIncrMatchesCold is the PageRank oracle test: warm-started
// residual pushing over the mutated graph must agree with the cold
// tolerance-based run at the shared tolerance, across add/delete batches.
func TestPageRankIncrMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	g := randGraph(rng, 150, 600)
	prev := PageRankViewTol(graph.BuildView(g), DefaultDamping, 1e-10)
	for round := 0; round < 6; round++ {
		for i := 0; i < 10; i++ {
			switch rng.Intn(3) {
			case 0:
				g.DelEdge(rng.Int63n(150), rng.Int63n(150))
			case 1:
				g.AddNode(rng.Int63n(300))
			default:
				g.AddEdge(rng.Int63n(300), rng.Int63n(300))
			}
		}
		v := graph.BuildView(g)
		incr := PageRankIncr(v, prev, DefaultDamping, 1e-10)
		cold := PageRankViewTol(v, DefaultDamping, 1e-10)
		if d := maxScoreDiff(incr, cold); d > 1e-7 {
			t.Fatalf("round %d: incremental PageRank diverges from cold oracle: max diff %g", round, d)
		}
		prev = incr
	}
}

// TestPageRankIncrColdStart seeds from an empty previous vector: the push
// method must still converge to the oracle (it just does more work).
func TestPageRankIncrColdStart(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	g := randGraph(rng, 80, 300)
	v := graph.BuildView(g)
	incr := PageRankIncr(v, nil, DefaultDamping, 1e-10)
	cold := PageRankViewTol(v, DefaultDamping, 1e-10)
	if d := maxScoreDiff(incr, cold); d > 1e-7 {
		t.Fatalf("cold-started incremental PageRank diverges: max diff %g", d)
	}
}

// TestWCCIncrMatchesCold grows a graph edge by edge and requires the
// incremental components to be *identical* to the cold result — labels,
// count and max size — at every step.
func TestWCCIncrMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.NewDirected()
	for i := int64(0); i < 50; i++ {
		g.AddNode(i)
	}
	prev := WCCView(graph.BuildView(g))
	for round := 0; round < 20; round++ {
		var deltas []graph.Delta
		for i := 0; i < 4; i++ {
			s, d := rng.Int63n(70), rng.Int63n(70)
			if g.AddEdge(s, d) {
				deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
			}
		}
		if id := rng.Int63n(100); g.AddNode(id) {
			deltas = append(deltas, graph.Delta{Op: graph.DeltaAddNode, Src: id})
		}
		v := graph.BuildView(g)
		got, ok := WCCIncr(v, prev, deltas)
		if !ok {
			t.Fatalf("round %d: WCCIncr refused an additions-only batch", round)
		}
		want := WCCView(v)
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("round %d: incremental WCC differs: got count=%d max=%d, want count=%d max=%d",
				round, got.Count, got.MaxSize, want.Count, want.MaxSize)
		}
		prev = got
	}
}

// TestWCCIncrRefusesDeletions: union-find cannot split components, so a
// batch containing any deletion must signal fallback.
func TestWCCIncrRefusesDeletions(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	v := graph.BuildView(g)
	prev := WCCView(v)
	if _, ok := WCCIncr(v, prev, []graph.Delta{{Op: graph.DeltaDelEdge, Src: 1, Dst: 2}}); ok {
		t.Fatal("WCCIncr accepted a batch with a deletion")
	}
}

// TestTrianglesIncrMatchesCold mutates an undirected graph randomly and
// requires the wedge-counted delta to reproduce the exact cold count at
// every step — including batches that add whole triangles at once (all
// three edges changed, exercising the dedup rule) and self-loops.
func TestTrianglesIncrMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	g := graph.NewUndirected()
	for i := 0; i < 60; i++ {
		g.AddEdge(rng.Int63n(25), rng.Int63n(25))
	}
	oldV := graph.BuildUView(g)
	count := TrianglesView(oldV)
	for round := 0; round < 25; round++ {
		var deltas []graph.Delta
		mutate := func(add bool, s, d int64) {
			if add {
				if g.AddEdge(s, d) {
					deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
				}
			} else if g.DelEdge(s, d) {
				deltas = append(deltas, graph.Delta{Op: graph.DeltaDelEdge, Src: s, Dst: d})
			}
		}
		if round%5 == 0 {
			// A full fresh triangle in one batch.
			base := 100 + int64(round)
			mutate(true, base, base+1)
			mutate(true, base+1, base+2)
			mutate(true, base+2, base)
		}
		for i := 0; i < 6; i++ {
			mutate(rng.Intn(3) != 0, rng.Int63n(30), rng.Int63n(30))
		}
		newV := graph.BuildUView(g)
		got := TrianglesIncr(oldV, newV, count, deltas)
		want := TrianglesView(newV)
		if got != want {
			t.Fatalf("round %d: incremental triangle count %d, cold says %d", round, got, want)
		}
		oldV, count = newV, got
	}
}

// TestTrianglesIncrClosingEdge: one edge closing the wedge 0-1-2 adds
// exactly one triangle.
func TestTrianglesIncrClosingEdge(t *testing.T) {
	g := graph.NewUndirected()
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	oldV := graph.BuildUView(g)
	g.AddEdge(0, 2)
	deltas := []graph.Delta{{Op: graph.DeltaAddEdge, Src: 0, Dst: 2}}
	if got := TrianglesIncr(oldV, graph.BuildUView(g), 0, deltas); got != 1 {
		t.Fatalf("closing edge: incremental count %d, want 1", got)
	}
}

// BenchmarkPageRankIncr compares the update-then-query cost of the
// incremental PageRank against the cold tolerance-based run it replaces.
func BenchmarkPageRankIncr(b *testing.B) {
	rng := rand.New(rand.NewSource(17))
	g := randGraph(rng, 20000, 100000)
	prev := PageRankViewTol(graph.BuildView(g), DefaultDamping, DefaultPageRankTol)
	for i := 0; i < 16; i++ {
		g.AddEdge(rng.Int63n(20000), rng.Int63n(20000))
	}
	v := graph.BuildView(g)
	b.Run("incr", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PageRankIncr(v, prev, DefaultDamping, DefaultPageRankTol)
		}
	})
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PageRankViewTol(v, DefaultDamping, DefaultPageRankTol)
		}
	})
}
