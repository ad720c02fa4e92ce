package graph

import (
	"testing"
	"testing/quick"
)

func TestDirectedAddNodesEdges(t *testing.T) {
	g := NewDirected()
	if !g.AddNode(1) || g.AddNode(1) {
		t.Fatal("AddNode idempotence broken")
	}
	if !g.AddEdge(1, 2) {
		t.Fatal("AddEdge new edge returned false")
	}
	if g.AddEdge(1, 2) {
		t.Fatal("duplicate edge accepted")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 1 {
		t.Fatalf("dims = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || g.HasEdge(2, 1) {
		t.Fatal("HasEdge direction wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedAdjacencySorted(t *testing.T) {
	g := NewDirected()
	for _, dst := range []int64{5, 1, 9, 3, 7} {
		g.AddEdge(0, dst)
	}
	adj := g.OutNeighbors(0)
	want := []int64{1, 3, 5, 7, 9}
	for i, v := range adj {
		if v != want[i] {
			t.Fatalf("out-neighbors = %v, want %v", adj, want)
		}
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedDegrees(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	g.AddEdge(2, 3)
	if g.OutDeg(1) != 2 || g.InDeg(1) != 0 {
		t.Fatalf("node 1 degrees = (%d,%d)", g.OutDeg(1), g.InDeg(1))
	}
	if g.OutDeg(3) != 0 || g.InDeg(3) != 2 {
		t.Fatalf("node 3 degrees = (%d,%d)", g.OutDeg(3), g.InDeg(3))
	}
	if g.OutDeg(99) != 0 || g.InDeg(99) != 0 {
		t.Fatal("absent node has nonzero degree")
	}
}

func TestDirectedDelEdge(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(1, 3)
	if !g.DelEdge(1, 2) {
		t.Fatal("DelEdge existing returned false")
	}
	if g.DelEdge(1, 2) || g.DelEdge(5, 6) {
		t.Fatal("DelEdge missing returned true")
	}
	if g.NumEdges() != 1 || g.HasEdge(1, 2) {
		t.Fatal("edge not removed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedDelNodeRemovesIncidentEdges(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 2)
	g.AddEdge(2, 2) // self-loop
	if !g.DelNode(2) {
		t.Fatal("DelNode existing returned false")
	}
	if g.DelNode(2) {
		t.Fatal("DelNode twice returned true")
	}
	if g.NumNodes() != 2 || g.NumEdges() != 0 {
		t.Fatalf("after DelNode: (%d nodes, %d edges)", g.NumNodes(), g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	// Freed slot is reused without corruption.
	g.AddEdge(10, 1)
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 {
		t.Fatalf("nodes after reuse = %d", g.NumNodes())
	}
}

func TestDirectedSelfLoop(t *testing.T) {
	g := NewDirected()
	g.AddEdge(7, 7)
	if g.NumEdges() != 1 || !g.HasEdge(7, 7) {
		t.Fatal("self-loop not stored")
	}
	if g.OutDeg(7) != 1 || g.InDeg(7) != 1 {
		t.Fatalf("self-loop degrees = (%d,%d)", g.OutDeg(7), g.InDeg(7))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.DelEdge(7, 7) || g.NumEdges() != 0 {
		t.Fatal("self-loop not deleted")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedNodesSorted(t *testing.T) {
	g := NewDirected()
	for _, id := range []int64{42, 7, 100, -3} {
		g.AddNode(id)
	}
	nodes := g.Nodes()
	for i := 1; i < len(nodes); i++ {
		if nodes[i-1] >= nodes[i] {
			t.Fatalf("Nodes() not sorted: %v", nodes)
		}
	}
}

func TestDirectedForEdges(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(1, 3)
	count := 0
	g.ForEdges(func(src, dst int64) { count++ })
	if count != 3 {
		t.Fatalf("ForEdges visited %d", count)
	}
}

func TestDirectedClone(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddEdge(2, 3)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatal("clone not independent")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestDirectedBytesScalesWithEdges(t *testing.T) {
	small := NewDirected()
	small.AddEdge(1, 2)
	big := NewDirected()
	for i := int64(0); i < 1000; i++ {
		big.AddEdge(i, i+1)
	}
	if big.Bytes() <= small.Bytes() {
		t.Fatal("Bytes not monotone in size")
	}
}

func TestDirectedSlotAccess(t *testing.T) {
	g := NewDirected()
	g.AddEdge(5, 6)
	slot, ok := g.idx[5]
	if !ok {
		t.Fatal("slot of 5 missing")
	}
	s := int(slot)
	id, live := g.IDAtSlot(s)
	if !live || id != 5 {
		t.Fatalf("IDAtSlot = (%d,%v)", id, live)
	}
	if len(g.outAdj[s]) != 1 || g.outAdj[s][0] != 6 {
		t.Fatal("out-neighbors at slot wrong")
	}
	g.DelNode(5)
	if _, live := g.IDAtSlot(s); live {
		t.Fatal("tombstone slot reported live")
	}
}

// Property: a random sequence of adds and deletes preserves all invariants
// and matches a reference adjacency-set implementation.
func TestDirectedMatchesReferenceModel(t *testing.T) {
	type opcode struct {
		Op       uint8
		Src, Dst int8
	}
	f := func(ops []opcode) bool {
		g := NewDirected()
		ref := map[[2]int64]bool{}
		refNodes := map[int64]bool{}
		for _, o := range ops {
			src, dst := int64(o.Src%8), int64(o.Dst%8)
			switch o.Op % 4 {
			case 0:
				g.AddEdge(src, dst)
				ref[[2]int64{src, dst}] = true
				refNodes[src], refNodes[dst] = true, true
			case 1:
				g.DelEdge(src, dst)
				delete(ref, [2]int64{src, dst})
			case 2:
				g.AddNode(src)
				refNodes[src] = true
			case 3:
				g.DelNode(src)
				if refNodes[src] {
					delete(refNodes, src)
					for e := range ref {
						if e[0] == src || e[1] == src {
							delete(ref, e)
						}
					}
				}
			}
		}
		if g.Validate() != nil {
			return false
		}
		if g.NumNodes() != len(refNodes) || g.NumEdges() != int64(len(ref)) {
			return false
		}
		for e := range ref {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// OutNeighbors returns the sorted out-neighbor ids of id. The slice is the
// graph's own storage: callers must not modify it and must not hold it
// across mutations.
func (g *Directed) OutNeighbors(id int64) []int64 {
	if s, ok := g.idx[id]; ok {
		return g.outAdj[s]
	}
	return nil
}

// InNeighbors returns the sorted in-neighbor ids of id (see OutNeighbors
// for aliasing rules).
func (g *Directed) InNeighbors(id int64) []int64 {
	if s, ok := g.idx[id]; ok {
		return g.inAdj[s]
	}
	return nil
}

// Bytes estimates the in-memory size of the graph: adjacency vector
// storage, slot bookkeeping, and hash-table entries — what the paper's
// dynamic form costs beside its CSR view.
func (g *Directed) Bytes() int64 {
	var b int64
	for s := range g.ids {
		b += int64(cap(g.inAdj[s])+cap(g.outAdj[s])) * 8
		b += 2 * 24 // slice headers
	}
	b += int64(cap(g.ids)) * 8
	b += int64(cap(g.free)) * 4
	b += int64(len(g.idx)) * 16 // map entries: key + slot + bucket overhead
	return b
}
