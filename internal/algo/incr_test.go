package algo

import (
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ringo/internal/graph"
)

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
	g := graph.NewUndirectedCap(0)
	for i := 0; i < 60; i++ {
		g.AddEdge(rng.Int63n(25), rng.Int63n(25))
	}
	oldV := uviewOf(g)
	count := TrianglesView(oldV)
	for round := 0; round < 25; round++ {
		var deltas []graph.Delta
		mutate := func(add bool, s, d int64) {
			if add {
				if g.AddEdge(s, d) {
					deltas = append(deltas, graph.Delta{Op: graph.DeltaAddEdge, Src: s, Dst: d})
				}
			} else if delUEdge(g, s, d) {
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
		newV := uviewOf(g)
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
	g := graph.NewUndirectedCap(0)
	g.AddEdge(0, 1)
	g.AddEdge(1, 2)
	oldV := uviewOf(g)
	g.AddEdge(0, 2)
	deltas := []graph.Delta{{Op: graph.DeltaAddEdge, Src: 0, Dst: 2}}
	if got := TrianglesIncr(oldV, uviewOf(g), 0, deltas); got != 1 {
		t.Fatalf("closing edge: incremental count %d, want 1", got)
	}
}

// delUEdge removes {a,b} from a model graph, reporting whether it was
// there. Outside package graph a hash graph deletes only whole nodes, so
// it drops a with DelNode and adds back every other edge a had.
func delUEdge(g *graph.Undirected, a, b int64) bool {
	if !g.HasEdge(a, b) {
		return false
	}
	nbrs := slices.Clone(g.Neighbors(a))
	g.DelNode(a)
	g.AddNode(a)
	for _, n := range nbrs {
		if n != b {
			g.AddEdge(a, n)
		}
	}
	return true
}
