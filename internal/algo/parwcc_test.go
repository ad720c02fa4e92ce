package algo

import (
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

func TestWCCParallelMatchesSequential(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(10, 11)
	g.AddNode(99)
	seq := WCCView(graph.BuildView(g))
	parl := WCCParallelView(graph.BuildView(g))
	if seq.Count != parl.Count || seq.MaxSize != parl.MaxSize {
		t.Fatalf("seq (%d,%d) vs parallel (%d,%d)", seq.Count, seq.MaxSize, parl.Count, parl.MaxSize)
	}
	// Same partition: labels agree up to renaming.
	if !samePartition(seq.Label, parl.Label) {
		t.Fatal("partitions differ")
	}
}

func samePartition(a, b map[int64]int) bool {
	if len(a) != len(b) {
		return false
	}
	fwd := map[int]int{}
	back := map[int]int{}
	for id, la := range a {
		lb, ok := b[id]
		if !ok {
			return false
		}
		if m, seen := fwd[la]; seen && m != lb {
			return false
		}
		if m, seen := back[lb]; seen && m != la {
			return false
		}
		fwd[la] = lb
		back[lb] = la
	}
	return true
}

func TestWCCParallelLongChain(t *testing.T) {
	// Long chains need many hash-min rounds; correctness must not depend
	// on round count.
	g := pathGraph(5000)
	c := WCCParallelView(graph.BuildView(g))
	if c.Count != 1 || c.MaxSize != 5000 {
		t.Fatalf("chain components = (%d,%d)", c.Count, c.MaxSize)
	}
}

func TestWCCParallelProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := graph.NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%20), int64(e[1]%20))
		}
		seq := WCCView(graph.BuildView(g))
		parl := WCCParallelView(graph.BuildView(g))
		return seq.Count == parl.Count && seq.MaxSize == parl.MaxSize &&
			samePartition(seq.Label, parl.Label)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestWCCParallelLargeRandom(t *testing.T) {
	g := gen.GNM(5000, 8000, 3)
	seq := WCCView(graph.BuildView(g))
	parl := WCCParallelView(graph.BuildView(g))
	if seq.Count != parl.Count || seq.MaxSize != parl.MaxSize {
		t.Fatalf("seq (%d,%d) vs parallel (%d,%d)", seq.Count, seq.MaxSize, parl.Count, parl.MaxSize)
	}
}
