package algo

import (
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

func TestBFSParallelMatchesSequentialOnPath(t *testing.T) {
	g := pathGraph(50)
	for _, dir := range []EdgeDir{Out, In, Both} {
		seq := BFSView(graph.BuildView(g), 25, dir)
		parl := BFSParallelView(graph.BuildView(g), 25, dir)
		if len(seq) != len(parl) {
			t.Fatalf("dir %v: reach %d vs %d", dir, len(seq), len(parl))
		}
		for id, dv := range seq {
			if parl[id] != dv {
				t.Fatalf("dir %v: node %d dist %d vs %d", dir, id, dv, parl[id])
			}
		}
	}
}

func TestBFSParallelMissingSource(t *testing.T) {
	if BFSParallelView(graph.BuildView(pathGraph(3)), 42, Out) != nil {
		t.Fatal("missing source returned non-nil")
	}
}

func TestBFSParallelMatchesSequentialProperty(t *testing.T) {
	f := func(edges [][2]int8, srcRaw int8) bool {
		g := graph.NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%24), int64(e[1]%24))
		}
		src := int64(srcRaw % 24)
		g.AddNode(src)
		seq := BFSView(graph.BuildView(g), src, Out)
		parl := BFSParallelView(graph.BuildView(g), src, Out)
		if len(seq) != len(parl) {
			return false
		}
		for id, dv := range seq {
			if parl[id] != dv {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestBFSParallelLargeGraph(t *testing.T) {
	g := gen.GNM(20_000, 80_000, 5)
	src := g.Nodes()[0]
	seq := BFSView(graph.BuildView(g), src, Out)
	parl := BFSParallelView(graph.BuildView(g), src, Out)
	if len(seq) != len(parl) {
		t.Fatalf("reach %d vs %d", len(seq), len(parl))
	}
	for id, dv := range seq {
		if parl[id] != dv {
			t.Fatalf("node %d: %d vs %d", id, dv, parl[id])
		}
	}
}
