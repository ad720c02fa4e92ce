package algo

import (
	"math"
	"runtime"
	"testing"

	"ringo/internal/gen"
)

func approxEq(a, b, eps float64) bool { return math.Abs(a-b) <= eps }

func TestPageRankUniformOnCycle(t *testing.T) {
	g := gen.Ring(10)
	pr := PageRankView(g, DefaultDamping, 50)
	for _, e := range pr {
		if !approxEq(e.Score, 0.1, 1e-9) {
			t.Fatalf("node %d rank %v, want 0.1", e.ID, e.Score)
		}
	}
}

func TestPageRankSumsToOne(t *testing.T) {
	g := gen.Star(5) // hub is dangling
	pr := PageRankView(g, DefaultDamping, 30)
	if s := sumScores(pr); !approxEq(s, 1, 1e-9) {
		t.Fatalf("PageRank sum = %v, want 1 (dangling mass lost?)", s)
	}
}

func TestPageRankHubHighest(t *testing.T) {
	g := gen.Star(8)
	pr := PageRankView(g, DefaultDamping, 30)
	top := TopK(pr, 1)
	if top[0].ID != 0 {
		t.Fatalf("top node = %d, want hub 0", top[0].ID)
	}
	for _, e := range pr {
		if e.ID != 0 && e.Score >= at(pr, 0) {
			t.Fatalf("leaf %d rank %v >= hub rank %v", e.ID, e.Score, at(pr, 0))
		}
	}
}

func TestPageRankSeqMatchesParallel(t *testing.T) {
	// Irregular graph.
	v := directed([][2]int64{{1, 2}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 3}, {6, 1}, {2, 6}})
	// One worker runs the kernel sequentially; four split every sweep.
	old := runtime.GOMAXPROCS(1)
	s := PageRankView(v, DefaultDamping, 25)
	runtime.GOMAXPROCS(4)
	p := PageRankView(v, DefaultDamping, 25)
	runtime.GOMAXPROCS(old)
	for _, e := range p {
		if !approxEq(e.Score, at(s, e.ID), 1e-12) {
			t.Fatalf("node %d: parallel %v != sequential %v", e.ID, e.Score, at(s, e.ID))
		}
	}
}

func TestPageRankEmptyGraph(t *testing.T) {
	// Non-nil, so an Object holding it still reports kind "scores".
	if pr := PageRankView(directed(nil), DefaultDamping, 10); pr == nil || len(pr) != 0 {
		t.Fatalf("PageRank on empty graph = %#v", pr)
	}
}

func TestPageRankConvergesToStationary(t *testing.T) {
	// Two-node graph 1<->2: stationary distribution is (0.5, 0.5).
	pr := PageRankView(directed([][2]int64{{1, 2}, {2, 1}}), DefaultDamping, 60)
	if !approxEq(at(pr, 1), 0.5, 1e-9) || !approxEq(at(pr, 2), 0.5, 1e-9) {
		t.Fatalf("pr = %v", pr)
	}
}

func TestPersonalizedPageRank(t *testing.T) {
	g := gen.Ring(6)
	ppr := PersonalizedPageRankView(g, []int64{0}, DefaultDamping, 40)
	if ppr == nil {
		t.Fatal("nil result for valid seed")
	}
	// The seed should outrank the node farthest from it.
	if at(ppr, 0) <= at(ppr, 3) {
		t.Fatalf("seed rank %v <= distant rank %v", at(ppr, 0), at(ppr, 3))
	}
	if s := sumScores(ppr); !approxEq(s, 1, 1e-6) {
		t.Fatalf("PPR sum = %v", s)
	}
	// No seed in the graph: an empty vector, but not nil — core.Object.Kind
	// tells "scores" from "empty" by nil-ness.
	if got := PersonalizedPageRankView(g, []int64{999}, DefaultDamping, 5); got == nil || len(got) != 0 {
		t.Fatalf("unknown seed: got %v, want a non-nil empty vector", got)
	}
}

func TestHITSBipartite(t *testing.T) {
	// Hubs {1,2} point at authorities {10,11,12}.
	var edges [][2]int64
	for _, h := range []int64{1, 2} {
		for _, a := range []int64{10, 11, 12} {
			edges = append(edges, [2]int64{h, a})
		}
	}
	hs := HITSView(directed(edges), 30)
	for _, h := range []int64{1, 2} {
		if at(hs.Hub, h) <= at(hs.Hub, 10) {
			t.Fatalf("hub score of %d (%v) not above authority node (%v)", h, at(hs.Hub, h), at(hs.Hub, 10))
		}
	}
	for _, a := range []int64{10, 11, 12} {
		if at(hs.Authority, a) <= at(hs.Authority, 1) {
			t.Fatalf("authority score of %d (%v) not above hub node (%v)", a, at(hs.Authority, a), at(hs.Authority, 1))
		}
	}
	// L2-normalized: authority vector norm 1 over the three authorities.
	var sq float64
	for _, e := range hs.Authority {
		sq += e.Score * e.Score
	}
	if !approxEq(sq, 1, 1e-9) {
		t.Fatalf("authority norm² = %v", sq)
	}
}

func TestTopK(t *testing.T) {
	scores := Scores{{1, 0.5}, {2, 0.9}, {3, 0.9}, {4, 0.1}}
	top := TopK(scores, 3)
	if len(top) != 3 {
		t.Fatalf("TopK returned %d", len(top))
	}
	if top[0].ID != 2 || top[1].ID != 3 || top[2].ID != 1 {
		t.Fatalf("TopK order = %v", top)
	}
	if got := TopK(scores, 100); len(got) != 4 {
		t.Fatalf("TopK overshoot = %d", len(got))
	}
}
