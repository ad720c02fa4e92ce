package algo

import (
	"math"
	"testing"

	"ringo/internal/graph"
)

// lollipop builds the test graph: square 1-2-3-4 plus a diagonal hub 5
// adjacent to 1, 2, 3.
func lollipop() *graph.Undirected {
	g := graph.NewUndirectedCap(0)
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 1}, {5, 2}, {5, 3}} {
		g.AddEdge(e[0], e[1])
	}
	return g
}

func TestCommonNeighbors(t *testing.T) {
	g := lollipop()
	// N(1)={2,4,5}, N(3)={2,4,5} -> 3 common.
	if got := CommonNeighbors(g, 1, 3); got != 3 {
		t.Fatalf("CommonNeighbors(1,3) = %d", got)
	}
	if got := CommonNeighbors(g, 4, 5); got != 2 { // {1,3}
		t.Fatalf("CommonNeighbors(4,5) = %d", got)
	}
	// Endpoints themselves are excluded.
	if got := CommonNeighbors(g, 1, 2); got != 1 { // only 5 ({2,4,5}∩{1,3,5} minus endpoints)
		t.Fatalf("CommonNeighbors(1,2) = %d", got)
	}
}

func TestJaccard(t *testing.T) {
	g := lollipop()
	// N(1)={2,4,5}, N(3)={2,4,5}: intersection 3, union 3.
	if got := Jaccard(g, 1, 3); !approxEq(got, 1, 1e-12) {
		t.Fatalf("Jaccard(1,3) = %v", got)
	}
	iso := graph.NewUndirectedCap(0)
	iso.AddNode(1)
	iso.AddNode(2)
	if got := Jaccard(iso, 1, 2); got != 0 {
		t.Fatalf("isolated Jaccard = %v", got)
	}
}

func TestAdamicAdar(t *testing.T) {
	g := lollipop()
	// Common neighbors of 1 and 3: 2 (deg 3), 4 (deg 2), 5 (deg 3).
	want := 1/math.Log(3) + 1/math.Log(2) + 1/math.Log(3)
	if got := AdamicAdar(g, 1, 3); !approxEq(got, want, 1e-12) {
		t.Fatalf("AdamicAdar(1,3) = %v, want %v", got, want)
	}
}

func TestPreferentialAttachment(t *testing.T) {
	g := lollipop()
	if got := PreferentialAttachment(g, 1, 3); got != 9 {
		t.Fatalf("PA(1,3) = %d", got)
	}
	// Self-loop excluded from degree.
	g.AddEdge(1, 1)
	if got := PreferentialAttachment(g, 1, 3); got != 9 {
		t.Fatalf("PA with self-loop = %d", got)
	}
}

func TestPredictLinks(t *testing.T) {
	g := lollipop()
	preds := PredictLinks(g, 10)
	if len(preds) == 0 {
		t.Fatal("no predictions")
	}
	// The strongest candidate is the non-edge (1,3) — three common
	// neighbors.
	if preds[0].U != 1 || preds[0].V != 3 {
		t.Fatalf("top prediction = %+v", preds[0])
	}
	// No predicted pair is an existing edge, and scores are descending.
	for i, p := range preds {
		if g.HasEdge(p.U, p.V) {
			t.Fatalf("predicted an existing edge %+v", p)
		}
		if p.U >= p.V {
			t.Fatalf("pair not normalized: %+v", p)
		}
		if i > 0 && preds[i-1].Score < p.Score {
			t.Fatal("scores not descending")
		}
	}
	if got := PredictLinks(g, 1); len(got) != 1 {
		t.Fatalf("k=1 returned %d", len(got))
	}
}

func TestReciprocity(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	if got := Reciprocity(g); !approxEq(got, 2.0/3.0, 1e-12) {
		t.Fatalf("reciprocity = %v", got)
	}
	if Reciprocity(graph.NewDirected()) != 0 {
		t.Fatal("empty reciprocity nonzero")
	}
	full := graph.NewDirected()
	full.AddEdge(1, 2)
	full.AddEdge(2, 1)
	if Reciprocity(full) != 1 {
		t.Fatal("fully reciprocal graph != 1")
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// A star is maximally disassortative: r = -1.
	star := graph.NewUndirectedCap(0)
	for i := int64(1); i <= 6; i++ {
		star.AddEdge(0, i)
	}
	if got := DegreeAssortativity(star); !approxEq(got, -1, 1e-9) {
		t.Fatalf("star assortativity = %v", got)
	}
	// A regular graph has zero degree variance: r defined as 0.
	cyc := graph.NewUndirectedCap(0)
	for i := int64(0); i < 6; i++ {
		cyc.AddEdge(i, (i+1)%6)
	}
	if got := DegreeAssortativity(cyc); got != 0 {
		t.Fatalf("cycle assortativity = %v", got)
	}
	if DegreeAssortativity(graph.NewUndirectedCap(0)) != 0 {
		t.Fatal("empty assortativity nonzero")
	}
}

func TestEffectiveDiameterPath(t *testing.T) {
	g := pathGraph(11) // distances 1..10 from the ends
	eff := EffectiveDiameterView(graph.BuildView(g), 11, 1)
	diam := float64(ApproxDiameterView(graph.BuildView(g), 11, 1))
	if eff <= 0 || eff > diam {
		t.Fatalf("effective diameter %v outside (0, %v]", eff, diam)
	}
	// 90th percentile must exceed the median distance.
	if eff < 5 {
		t.Fatalf("effective diameter %v implausibly small", eff)
	}
	if EffectiveDiameterView(graph.BuildView(graph.NewDirected()), 3, 1) != 0 {
		t.Fatal("empty effective diameter nonzero")
	}
}

func TestPowerLawExponent(t *testing.T) {
	// A BA graph has a power-law tail with alpha near 3.
	g := barabasiForTest(2000, 3)
	alpha, ok := PowerLawExponent(g, 3)
	if !ok {
		t.Fatal("fit failed")
	}
	if alpha < 2 || alpha > 4.5 {
		t.Fatalf("BA alpha = %v, want near 3", alpha)
	}
	// Too few qualifying nodes.
	small := graph.NewUndirectedCap(0)
	small.AddEdge(1, 2)
	if _, ok := PowerLawExponent(small, 1); ok {
		t.Fatal("fit on 2 nodes accepted")
	}
}

// barabasiForTest is a local preferential-attachment generator (gen imports
// algo-free packages only, so tests build their own to avoid a cycle).
func barabasiForTest(n, m int) *graph.Undirected {
	g := graph.NewUndirectedCap(0)
	endpoints := []int64{}
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			g.AddEdge(int64(i), int64(j))
			endpoints = append(endpoints, int64(i), int64(j))
		}
	}
	state := uint64(12345)
	next := func(bound int) int {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return int(state % uint64(bound))
	}
	for v := m + 1; v < n; v++ {
		chosen := map[int64]bool{}
		for len(chosen) < m {
			t := endpoints[next(len(endpoints))]
			if t != int64(v) {
				chosen[t] = true
			}
		}
		for t := range chosen {
			g.AddEdge(int64(v), t)
			endpoints = append(endpoints, int64(v), t)
		}
	}
	return g
}

func TestDegreePercentiles(t *testing.T) {
	g := starGraph(9) // out-degrees: nine 1s and one 0
	pcts := DegreePercentiles(g, []float64{0, 50, 100})
	if pcts[0] != 0 || pcts[2] != 1 {
		t.Fatalf("percentiles = %v", pcts)
	}
	if got := DegreePercentiles(graph.NewDirected(), []float64{50}); got[0] != 0 {
		t.Fatal("empty percentile nonzero")
	}
}
