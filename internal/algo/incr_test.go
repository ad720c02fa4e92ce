package algo

import (
	"math/rand"
	"reflect"
	"testing"

	"ringo/internal/graph"
)

// TestWCCIncrMatchesCold grows a graph edge by edge and requires the
// incremental components to be *identical* to the cold result — labels,
// count and max size — at every step.
func TestWCCIncrMatchesCold(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := newEdgeSet(false)
	for i := int64(0); i < 50; i++ {
		g.addNode(i)
	}
	prev := WCCView(g.view())
	for round := 0; round < 20; round++ {
		var deltas []graph.Delta
		for i := 0; i < 4; i++ {
			s, d := rng.Int63n(70), rng.Int63n(70)
			if g.set(true, s, d) {
				deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
			}
		}
		if id := rng.Int63n(100); g.addNode(id) {
			deltas = append(deltas, graph.Delta{Op: graph.DeltaAddNode, Src: id})
		}
		v := g.view()
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
	v := directed([][2]int64{{1, 2}})
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
	g := newEdgeSet(true)
	for i := 0; i < 60; i++ {
		g.set(true, rng.Int63n(25), rng.Int63n(25))
	}
	oldV := g.uview()
	count := TrianglesView(oldV)
	for round := 0; round < 25; round++ {
		var deltas []graph.Delta
		mutate := func(add bool, s, d int64) {
			if !g.set(add, s, d) {
				return
			}
			op := graph.DeltaAddEdge
			if !add {
				op = graph.DeltaDelEdge
			}
			deltas = append(deltas, graph.Delta{Op: op, Src: s, Dst: d})
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
		newV := g.uview()
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
	oldV := undirected([][2]int64{{0, 1}, {1, 2}})
	newV := undirected([][2]int64{{0, 1}, {1, 2}, {0, 2}})
	deltas := []graph.Delta{{Op: graph.DeltaAddEdge, Src: 0, Dst: 2}}
	if got := TrianglesIncr(oldV, newV, 0, deltas); got != 1 {
		t.Fatalf("closing edge: incremental count %d, want 1", got)
	}
}
