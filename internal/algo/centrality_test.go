package algo

import (
	"slices"
	"testing"

	"ringo/internal/gen"
)

func TestClosenessPathCenter(t *testing.T) {
	g := pathGraph(5) // 0-1-2-3-4
	v := g
	center := ClosenessView(v, 2)
	end := ClosenessView(v, 0)
	if center <= end {
		t.Fatalf("center closeness %v <= end %v", center, end)
	}
	if ClosenessView(v, 99) != 0 {
		t.Fatal("missing node closeness nonzero")
	}
}

func TestClosenessIsolatedNode(t *testing.T) {
	if ClosenessView(directed([][2]int64{{2, 3}}, 1), 1) != 0 {
		t.Fatal("isolated node closeness nonzero")
	}
}

func TestBetweennessPathMiddle(t *testing.T) {
	g := pathGraph(5)
	bc := ApproxBetweennessView(g, 1000, 1) // full computation (samples > n)
	// On the 5-path, node 2 lies on the most shortest paths.
	for _, id := range []int64{0, 1, 3, 4} {
		if at(bc, 2) <= at(bc, id) {
			t.Fatalf("bc[2]=%v not above bc[%d]=%v", at(bc, 2), id, at(bc, id))
		}
	}
	// Exact values for the path: ends 0, next 3, middle 4.
	if !approxEq(at(bc, 0), 0, 1e-9) || !approxEq(at(bc, 2), 4, 1e-9) || !approxEq(at(bc, 1), 3, 1e-9) {
		t.Fatalf("bc = %v", bc)
	}
}

func TestBetweennessSampledDeterministic(t *testing.T) {
	g := directed(clique(8))
	a := ApproxBetweennessView(g, 4, 42)
	b := ApproxBetweennessView(g, 4, 42)
	if !slices.Equal(a, b) {
		t.Fatal("sampled betweenness not deterministic for fixed seed")
	}
}

func TestEccentricityAndDiameter(t *testing.T) {
	g := pathGraph(7) // diameter 6
	v := g
	if e := EccentricityView(v, 0); e != 6 {
		t.Fatalf("ecc(0) = %d", e)
	}
	if e := EccentricityView(v, 3); e != 3 {
		t.Fatalf("ecc(3) = %d", e)
	}
	if e := EccentricityView(v, 42); e != -1 {
		t.Fatalf("missing node ecc = %d", e)
	}
	// Sampling every node gives the exact diameter.
	if d := ApproxDiameterView(v, 7, 1); d != 6 {
		t.Fatalf("diameter = %d, want 6", d)
	}
	if d := ApproxDiameterView(directed(nil), 3, 1); d != 0 {
		t.Fatalf("empty graph diameter = %d", d)
	}
}

func TestDegreeStatsAndHistogram(t *testing.T) {
	g := gen.Star(4) // leaves 1..4 -> hub 0
	out := OutDegreeStats(g)
	if out.Min != 0 || out.Max != 1 || !approxEq(out.Mean, 4.0/5.0, 1e-12) {
		t.Fatalf("out stats = %+v", out)
	}
	in := InDegreeStats(g)
	if in.Max != 4 {
		t.Fatalf("in stats = %+v", in)
	}
	hist := DegreeHistogram(g)
	// out-degrees: one node with 0 (hub), four with 1.
	if len(hist) != 2 || hist[0] != [2]int64{0, 1} || hist[1] != [2]int64{1, 4} {
		t.Fatalf("histogram = %v", hist)
	}
	if got := OutDegreeStats(directed(nil)); got != (DegreeStats{}) {
		t.Fatalf("empty stats = %+v", got)
	}
}

func TestDegreeCentrality(t *testing.T) {
	dc := DegreeCentrality(undirected([][2]int64{{0, 1}, {0, 2}}))
	if !approxEq(at(dc, 0), 1, 1e-12) || !approxEq(at(dc, 1), 0.5, 1e-12) {
		t.Fatalf("degree centrality = %v", dc)
	}
	if dc := DegreeCentrality(undirected(nil, 7)); len(dc) != 1 || dc[0] != (Scored{7, 0}) {
		t.Fatal("singleton centrality nonzero")
	}
}

func TestMaxDegreeNode(t *testing.T) {
	id, deg, ok := MaxDegreeNode(directed([][2]int64{{1, 2}, {1, 3}, {2, 3}}))
	if !ok || id != 1 || deg != 2 {
		t.Fatalf("MaxDegreeNode = (%d,%d,%v)", id, deg, ok)
	}
	if _, _, ok := MaxDegreeNode(directed(nil)); ok {
		t.Fatal("empty graph returned a max node")
	}
}
