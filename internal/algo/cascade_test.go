package algo

import (
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

func TestIndependentCascadeCertainSpread(t *testing.T) {
	g := pathGraph(6)
	active := IndependentCascade(g, []int64{0}, 1.0, 7)
	if len(active) != 6 {
		t.Fatalf("p=1 activated %d of 6", len(active))
	}
	// Activation round equals hop distance on a path.
	for i := 0; i < 6; i++ {
		if active[int64(i)] != i {
			t.Fatalf("node %d activated in round %d", i, active[int64(i)])
		}
	}
}

func TestIndependentCascadeNoSpread(t *testing.T) {
	g := pathGraph(6)
	active := IndependentCascade(g, []int64{0}, 0.0, 7)
	if len(active) != 1 {
		t.Fatalf("p=0 activated %d", len(active))
	}
	if active[0] != 0 {
		t.Fatal("seed round wrong")
	}
}

func TestIndependentCascadeDeterministicAndDirectional(t *testing.T) {
	g := pathGraph(6)
	a := IndependentCascade(g, []int64{3}, 0.7, 42)
	b := IndependentCascade(g, []int64{3}, 0.7, 42)
	if len(a) != len(b) {
		t.Fatal("not deterministic")
	}
	// Edges point forward only: node 2 can never activate.
	if _, ok := a[2]; ok {
		t.Fatal("cascade ran against edge direction")
	}
	// Unknown seeds ignored, duplicates collapse.
	c := IndependentCascade(g, []int64{0, 0, 99}, 1, 1)
	if len(c) != 6 {
		t.Fatalf("dup/unknown seeds activated %d", len(c))
	}
}

func TestSIREverythingInfectedAtBetaOne(t *testing.T) {
	res := SIR(graph.ProjectUView(gen.Ring(8)), []int64{0}, 1.0, 1.0, 5)
	if len(res.Infected) != 8 {
		t.Fatalf("beta=1 infected %d of 8", len(res.Infected))
	}
	if res.Rounds == 0 || res.PeakInfected == 0 {
		t.Fatalf("degenerate result %+v", res)
	}
}

func TestSIRNoSpreadAtBetaZero(t *testing.T) {
	res := SIR(undirected([][2]int64{{1, 2}}), []int64{1}, 0, 1, 3)
	if len(res.Infected) != 1 {
		t.Fatalf("beta=0 infected %d", len(res.Infected))
	}
	if res.Rounds != 1 {
		t.Fatalf("rounds = %d, want 1 (seed recovers immediately)", res.Rounds)
	}
}

func TestSIRDeterministic(t *testing.T) {
	g := gen.BarabasiAlbert(200, 2, 1)
	a := SIR(g, []int64{0}, 0.3, 0.5, 11)
	b := SIR(g, []int64{0}, 0.3, 0.5, 11)
	if len(a.Infected) != len(b.Infected) || a.Rounds != b.Rounds || a.PeakInfected != b.PeakInfected {
		t.Fatal("SIR not deterministic for fixed seed")
	}
	for id, r := range a.Infected {
		if b.Infected[id] != r {
			t.Fatal("infection rounds differ")
		}
	}
}

func TestSIRTerminatesWithZeroGamma(t *testing.T) {
	// With gamma=0 nodes never recover; the simulation must still stop
	// once the epidemic saturates (no state change in a round).
	res := SIR(undirected([][2]int64{{1, 2}, {2, 3}}), []int64{1}, 1.0, 0.0, 3)
	if len(res.Infected) != 3 {
		t.Fatalf("saturation infected %d of 3", len(res.Infected))
	}
	if res.PeakInfected != 3 {
		t.Fatalf("peak = %d", res.PeakInfected)
	}
}
