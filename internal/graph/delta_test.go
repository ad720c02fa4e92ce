package graph

import (
	"fmt"
	"math/rand"
	"testing"
)

// directedDeltaClosures binds the patch callbacks to a live directed graph.
func directedDeltaClosures(g *Directed) (func(int64) bool, func(int64, int64) bool) {
	return g.HasNode, g.HasEdge
}

// projectionClosures are the callbacks for patching the undirected
// projection of a directed graph: an undirected edge exists when either
// orientation does.
func projectionClosures(g *Directed) (func(int64) bool, func(int64, int64) bool) {
	return g.HasNode, func(a, b int64) bool { return g.HasEdge(a, b) || g.HasEdge(b, a) }
}

func sameView(a, b *View) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for i, id := range a.IDs() {
		if b.IDs()[i] != id {
			return fmt.Errorf("id at dense %d differs: %d vs %d", i, id, b.IDs()[i])
		}
	}
	for u := int32(0); int(u) < a.NumNodes(); u++ {
		ao, bo := a.Out(u), b.Out(u)
		if len(ao) != len(bo) {
			return fmt.Errorf("out-degree of %d differs: %d vs %d", a.ID(u), len(ao), len(bo))
		}
		for i := range ao {
			if ao[i] != bo[i] {
				return fmt.Errorf("out list of %d differs at %d: %d vs %d", a.ID(u), i, ao[i], bo[i])
			}
		}
		ai, bi := a.In(u), b.In(u)
		if len(ai) != len(bi) {
			return fmt.Errorf("in-degree of %d differs: %d vs %d", a.ID(u), len(ai), len(bi))
		}
		for i := range ai {
			if ai[i] != bi[i] {
				return fmt.Errorf("in list of %d differs at %d: %d vs %d", a.ID(u), i, ai[i], bi[i])
			}
		}
	}
	return nil
}

func sameUView(a, b *UView) error {
	if a.NumNodes() != b.NumNodes() {
		return fmt.Errorf("node counts differ: %d vs %d", a.NumNodes(), b.NumNodes())
	}
	for i, id := range a.IDs() {
		if b.IDs()[i] != id {
			return fmt.Errorf("id at dense %d differs: %d vs %d", i, id, b.IDs()[i])
		}
	}
	for u := int32(0); int(u) < a.NumNodes(); u++ {
		aa, ba := a.Adj(u), b.Adj(u)
		if len(aa) != len(ba) {
			return fmt.Errorf("degree of %d differs: %d vs %d", a.ID(u), len(aa), len(ba))
		}
		for i := range aa {
			if aa[i] != ba[i] {
				return fmt.Errorf("adj list of %d differs at %d: %d vs %d", a.ID(u), i, aa[i], ba[i])
			}
		}
	}
	return nil
}

// deltaTestShapes builds the graph shapes the oracle suite mutates: a
// G(n,m) random graph, a ring, a star, isolated nodes, and a graph with
// tombstoned slots (nodes deleted before the base view is taken).
func deltaTestShapes(rng *rand.Rand) map[string]*Directed {
	gnm := NewDirected()
	for i := 0; i < 120; i++ {
		gnm.AddEdge(rng.Int63n(40), rng.Int63n(40))
	}
	ring := NewDirected()
	for i := int64(0); i < 30; i++ {
		ring.AddEdge(i, (i+1)%30)
	}
	star := NewDirected()
	for i := int64(1); i <= 25; i++ {
		star.AddEdge(0, i)
	}
	isolated := NewDirected()
	for i := int64(0); i < 20; i++ {
		isolated.AddNode(i * 10)
	}
	isolated.AddEdge(0, 10)
	tombstoned := NewDirected()
	for i := int64(0); i < 40; i++ {
		tombstoned.AddEdge(i, (i*7)%40)
	}
	for i := int64(0); i < 40; i += 3 {
		tombstoned.DelNode(i)
	}
	return map[string]*Directed{
		"gnm": gnm, "ring": ring, "star": star,
		"isolated": isolated, "tombstoned": tombstoned,
	}
}

// randomDelta applies one random mutation to g and returns its delta
// record; ok is false when the mutation was a no-op (nothing to log).
func randomDelta(rng *rand.Rand, g *Directed, idSpace int64) (Delta, bool) {
	switch rng.Intn(10) {
	case 0:
		id := rng.Int63n(idSpace)
		return Delta{Op: DeltaAddNode, Src: id}, g.AddNode(id)
	case 1, 2, 3:
		// Delete a random existing edge when there is one.
		var src, dst int64
		found := false
		g.ForEdges(func(s, d int64) {
			if !found && rng.Intn(4) == 0 {
				src, dst, found = s, d, true
			}
		})
		if !found {
			return Delta{}, false
		}
		g.DelEdge(src, dst)
		return Delta{Op: DeltaDelEdge, Src: src, Dst: dst}, true
	default:
		s, d := rng.Int63n(idSpace), rng.Int63n(idSpace)
		return Delta{Op: DeltaAddEdge, Src: s, Dst: d}, g.AddEdge(s, d)
	}
}

// TestPatchViewMatchesRebuild is the graph-level oracle: across every
// shape, random mutation batches patched onto the base view must be
// structurally identical to a from-scratch build of the mutated graph —
// for both orientations, including the undirected projection, which
// ProjectUView must build as the per-edge reference does.
func TestPatchViewMatchesRebuild(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for name, g := range deltaTestShapes(rng) {
		t.Run(name, func(t *testing.T) {
			for round := 0; round < 8; round++ {
				base := BuildView(g)
				ubase := buildUView(asUndirectedPerEdge(g))
				var deltas []Delta
				for i := 0; i < 1+rng.Intn(12); i++ {
					if d, ok := randomDelta(rng, g, 60); ok {
						deltas = append(deltas, d)
					}
				}
				hasNode, hasEdge := directedDeltaClosures(g)
				patched := PatchView(base, hasNode, hasEdge, deltas)
				if err := sameView(patched, BuildView(g)); err != nil {
					t.Fatalf("round %d: patched directed view diverges: %v", round, err)
				}
				_, uHasEdge := projectionClosures(g)
				upatched := PatchUView(ubase, hasNode, uHasEdge, deltas)
				ref := asUndirectedPerEdge(g)
				if err := sameUView(upatched, buildUView(ref)); err != nil {
					t.Fatalf("round %d: patched undirected view diverges: %v", round, err)
				}
				if err := sameUView(ProjectUView(BuildView(g)), buildUView(ref)); err != nil {
					t.Fatalf("round %d: ProjectUView diverges from the per-edge projection: %v", round, err)
				}
			}
		})
	}
}

// TestPatchUViewUndirectedGraph patches views of a native undirected
// graph, exercising the self-loop single-entry convention.
func TestPatchUViewUndirectedGraph(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(4, 4)
	base := buildUView(g)

	g.AddEdge(3, 3) // new self-loop
	g.DelEdge(4, 4) // delete a self-loop
	g.AddEdge(2, 1) // duplicate of {1,2} in the other order: no-op
	g.AddEdge(5, 1) // new node
	g.DelEdge(9, 9) // unknown ids: no-op
	deltas := []Delta{
		{Op: DeltaAddEdge, Src: 3, Dst: 3},
		{Op: DeltaDelEdge, Src: 4, Dst: 4},
		{Op: DeltaAddEdge, Src: 2, Dst: 1},
		{Op: DeltaAddEdge, Src: 5, Dst: 1},
		{Op: DeltaDelEdge, Src: 9, Dst: 9},
	}
	patched := PatchUView(base, g.HasNode, g.HasEdge, deltas)
	if err := sameUView(patched, buildUView(g)); err != nil {
		t.Fatalf("patched undirected view diverges: %v", err)
	}
}

// TestPatchViewNoiseTolerance feeds the patch deltas that never changed
// the graph (duplicates, deletes of absent edges, unknown ids) plus
// cancelling add/delete pairs: the patch must reproduce the rebuild
// regardless, because only the current graph state decides the output.
func TestPatchViewNoiseTolerance(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	base := BuildView(g)

	// Add then delete 3->1: net no-op, but both deltas are in the batch.
	g.AddEdge(3, 1)
	g.DelEdge(3, 1)
	g.AddEdge(1, 1)
	deltas := []Delta{
		{Op: DeltaAddEdge, Src: 3, Dst: 1},
		{Op: DeltaDelEdge, Src: 3, Dst: 1},
		{Op: DeltaAddEdge, Src: 1, Dst: 1},
		{Op: DeltaAddEdge, Src: 1, Dst: 1}, // duplicate
		{Op: DeltaDelEdge, Src: 7, Dst: 8}, // unknown ids
		{Op: DeltaAddNode, Src: 2},         // already present
	}
	patched := PatchView(base, g.HasNode, g.HasEdge, deltas)
	if err := sameView(patched, BuildView(g)); err != nil {
		t.Fatalf("patched view diverges under noisy deltas: %v", err)
	}
}

// TestPatchViewEmptyBase patches from an empty base view: every node and
// edge arrives through the overlay.
func TestPatchViewEmptyBase(t *testing.T) {
	g := NewDirected()
	base := BuildView(g)
	g.AddEdge(5, 6)
	g.AddNode(7)
	deltas := []Delta{
		{Op: DeltaAddEdge, Src: 5, Dst: 6},
		{Op: DeltaAddNode, Src: 7},
	}
	patched := PatchView(base, g.HasNode, g.HasEdge, deltas)
	if err := sameView(patched, BuildView(g)); err != nil {
		t.Fatalf("patched view diverges from empty base: %v", err)
	}
}

// TestPatchViewAppendedIDs names both arms of the run copy. Fresh ids
// above the base maximum leave every base dense index in place, so
// unchanged runs are copied verbatim; one fresh id below it shifts the
// base indices after it, so runs are translated. Each batch also deletes
// an edge and adds one between existing nodes.
func TestPatchViewAppendedIDs(t *testing.T) {
	g := NewDirected()
	for i := int64(0); i < 20; i++ {
		g.AddEdge(i*10, ((i+1)%20)*10)
		g.AddEdge(i*10, ((i+7)%20)*10)
	}
	batches := []struct {
		name     string
		identity bool
		apply    func() []Delta
	}{
		{"appended", true, func() []Delta {
			g.AddEdge(50, 1000)
			g.AddEdge(1000, 1010)
			g.AddEdge(1010, 1010)
			g.AddNode(1020)
			g.DelEdge(30, 40)
			g.AddEdge(40, 30)
			return []Delta{
				{Op: DeltaAddEdge, Src: 50, Dst: 1000},
				{Op: DeltaAddEdge, Src: 1000, Dst: 1010},
				{Op: DeltaAddEdge, Src: 1010, Dst: 1010},
				{Op: DeltaAddNode, Src: 1020},
				{Op: DeltaDelEdge, Src: 30, Dst: 40},
				{Op: DeltaAddEdge, Src: 40, Dst: 30},
			}
		}},
		{"inserted", false, func() []Delta {
			g.AddEdge(15, 120)
			g.DelEdge(60, 70)
			g.AddEdge(190, 0)
			return []Delta{
				{Op: DeltaAddEdge, Src: 15, Dst: 120},
				{Op: DeltaDelEdge, Src: 60, Dst: 70},
				{Op: DeltaAddEdge, Src: 190, Dst: 0},
			}
		}},
	}
	for _, b := range batches {
		base := BuildView(g)
		ubase := buildUView(asUndirectedPerEdge(g))
		deltas := b.apply()
		hasNode, hasEdge := directedDeltaClosures(g)
		if identity := mergeIDs(base.ids, hasNode, deltas).oldToNew == nil; identity != b.identity {
			t.Fatalf("%s: identity remap = %v, want %v", b.name, identity, b.identity)
		}
		if err := sameView(PatchView(base, hasNode, hasEdge, deltas), BuildView(g)); err != nil {
			t.Fatalf("%s: patched directed view diverges: %v", b.name, err)
		}
		_, uHasEdge := projectionClosures(g)
		if err := sameUView(PatchUView(ubase, hasNode, uHasEdge, deltas), buildUView(asUndirectedPerEdge(g))); err != nil {
			t.Fatalf("%s: patched undirected view diverges: %v", b.name, err)
		}
	}
}

// FuzzIncrementalView interprets the fuzz input as a byte-encoded mutation
// script — add/delete edges, add nodes, with ids drawn from a small space
// so duplicates, self-loops and unknown-id deletes occur constantly — and
// checks the patched view against the sequential rebuild oracle after
// every scripted snapshot point and at the end, for the directed view and
// the undirected projection alike.
func FuzzIncrementalView(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0x00, 1, 2, 0x01, 1, 2, 0x02, 3, 3})
	f.Add([]byte{0x03, 0x00, 5, 5, 0x03, 0x01, 5, 5})
	f.Add([]byte{0x00, 200, 200, 0x00, 1, 200, 0x01, 200, 200, 0x03})
	f.Fuzz(func(t *testing.T, script []byte) {
		if len(script) > 1<<12 {
			t.Skip("outsized script")
		}
		g := NewDirected()
		g.AddEdge(1, 2) // seed so early deletes can hit something
		base := BuildView(g)
		ubase := buildUView(asUndirectedPerEdge(g))
		var deltas []Delta

		check := func() {
			hasNode, hasEdge := directedDeltaClosures(g)
			if err := sameView(PatchView(base, hasNode, hasEdge, deltas), BuildView(g)); err != nil {
				t.Fatalf("directed patch diverges from rebuild: %v", err)
			}
			_, uHasEdge := projectionClosures(g)
			ref := asUndirectedPerEdge(g)
			if err := sameUView(PatchUView(ubase, hasNode, uHasEdge, deltas), buildUView(ref)); err != nil {
				t.Fatalf("undirected patch diverges from rebuild: %v", err)
			}
			if err := sameUView(ProjectUView(BuildView(g)), buildUView(ref)); err != nil {
				t.Fatalf("ProjectUView diverges from the per-edge projection: %v", err)
			}
		}

		for i := 0; i+1 <= len(script); {
			op := script[i] % 4
			switch op {
			case 3: // snapshot point: verify, then rebase the patch window
				check()
				base = BuildView(g)
				ubase = buildUView(asUndirectedPerEdge(g))
				deltas = deltas[:0]
				i++
			default:
				if i+3 > len(script) {
					i = len(script)
					break
				}
				src := int64(script[i+1] % 23)
				dst := int64(script[i+2] % 23)
				i += 3
				switch op {
				case 0:
					if g.AddEdge(src, dst) {
						deltas = append(deltas, Delta{Op: DeltaAddEdge, Src: src, Dst: dst})
					}
				case 1:
					if g.DelEdge(src, dst) {
						deltas = append(deltas, Delta{Op: DeltaDelEdge, Src: src, Dst: dst})
					}
				case 2:
					if g.AddNode(src) {
						deltas = append(deltas, Delta{Op: DeltaAddNode, Src: src})
					}
				}
			}
		}
		check()
	})
}

// BenchmarkViewPatch measures patching a small delta batch onto a base
// view against the full rebuild it replaces: patch is a random batch,
// append a batch of edges to fresh ids above the base maximum (the shape
// of an addedge-then-query session, whose unchanged runs copy verbatim).
func BenchmarkViewPatch(b *testing.B) {
	rng := rand.New(rand.NewSource(11))
	g := NewDirected()
	for i := 0; i < 200000; i++ {
		g.AddEdge(rng.Int63n(50000), rng.Int63n(50000))
	}
	base := BuildView(g)
	ag := g.Clone()
	var deltas []Delta
	for len(deltas) < 64 {
		if d, ok := randomDelta(rng, g, 50000); ok {
			deltas = append(deltas, d)
		}
	}
	var appended []Delta
	for i := int64(0); i < 64; i++ {
		src, dst := base.ids[rng.Intn(len(base.ids))], 50000+i
		ag.AddEdge(src, dst)
		appended = append(appended, Delta{Op: DeltaAddEdge, Src: src, Dst: dst})
	}
	hasNode, hasEdge := directedDeltaClosures(g)
	b.Run("patch", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PatchView(base, hasNode, hasEdge, deltas)
		}
	})
	aHasNode, aHasEdge := directedDeltaClosures(ag)
	b.Run("append", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			PatchView(base, aHasNode, aHasEdge, appended)
		}
	})
	b.Run("rebuild", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			BuildView(g)
		}
	})
}
