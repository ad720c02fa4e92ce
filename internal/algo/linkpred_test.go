package algo

import (
	"math"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// lollipopEdges is the test graph: square 1-2-3-4 plus a diagonal hub 5
// adjacent to 1, 2, 3.
var lollipopEdges = [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 1}, {5, 2}, {5, 3}}

func lollipop() *graph.UView { return undirected(lollipopEdges) }

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
	if got := Jaccard(undirected(nil, 1, 2), 1, 2); got != 0 {
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
	g = undirected(append(lollipopEdges, [2]int64{1, 1}))
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
	if got := Reciprocity(directed([][2]int64{{1, 2}, {2, 1}, {2, 3}})); !approxEq(got, 2.0/3.0, 1e-12) {
		t.Fatalf("reciprocity = %v", got)
	}
	if Reciprocity(directed(nil)) != 0 {
		t.Fatal("empty reciprocity nonzero")
	}
	if Reciprocity(directed([][2]int64{{1, 2}, {2, 1}})) != 1 {
		t.Fatal("fully reciprocal graph != 1")
	}
}

func TestDegreeAssortativity(t *testing.T) {
	// A star is maximally disassortative: r = -1.
	star := undirected([][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}, {0, 6}})
	if got := DegreeAssortativity(star); !approxEq(got, -1, 1e-9) {
		t.Fatalf("star assortativity = %v", got)
	}
	// A regular graph has zero degree variance: r defined as 0.
	cyc := graph.ProjectUView(gen.Ring(6))
	if got := DegreeAssortativity(cyc); got != 0 {
		t.Fatalf("cycle assortativity = %v", got)
	}
	if DegreeAssortativity(undirected(nil)) != 0 {
		t.Fatal("empty assortativity nonzero")
	}
}

func TestEffectiveDiameterPath(t *testing.T) {
	g := pathGraph(11) // distances 1..10 from the ends
	eff := EffectiveDiameterView(g, 11, 1)
	diam := float64(ApproxDiameterView(g, 11, 1))
	if eff <= 0 || eff > diam {
		t.Fatalf("effective diameter %v outside (0, %v]", eff, diam)
	}
	// 90th percentile must exceed the median distance.
	if eff < 5 {
		t.Fatalf("effective diameter %v implausibly small", eff)
	}
	if EffectiveDiameterView(directed(nil), 3, 1) != 0 {
		t.Fatal("empty effective diameter nonzero")
	}
}

func TestPowerLawExponent(t *testing.T) {
	// A BA graph has a power-law tail with alpha near 3.
	g := gen.BarabasiAlbert(2000, 3, 1)
	alpha, ok := PowerLawExponent(g, 3)
	if !ok {
		t.Fatal("fit failed")
	}
	if alpha < 2 || alpha > 4.5 {
		t.Fatalf("BA alpha = %v, want near 3", alpha)
	}
	// Too few qualifying nodes.
	if _, ok := PowerLawExponent(undirected([][2]int64{{1, 2}}), 1); ok {
		t.Fatal("fit on 2 nodes accepted")
	}
}

func TestDegreePercentiles(t *testing.T) {
	g := gen.Star(9) // out-degrees: nine 1s and one 0
	pcts := DegreePercentiles(g, []float64{0, 50, 100})
	if pcts[0] != 0 || pcts[2] != 1 {
		t.Fatalf("percentiles = %v", pcts)
	}
	if got := DegreePercentiles(directed(nil), []float64{50}); got[0] != 0 {
		t.Fatal("empty percentile nonzero")
	}
}
