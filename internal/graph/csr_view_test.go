package graph

import (
	"testing"
	"testing/quick"
)

// The tests below hold View, the flat CSR snapshot every algorithm reads,
// to the contract of a compressed-sparse-row graph: built from a dynamic
// graph it keeps every edge, its neighbor lists are dense indices, and one
// edge deletion is a patch over the whole arrays (§2.2's O(V+E) cost).

func sampleDirected() *Directed {
	g := NewDirected()
	g.AddEdge(10, 20)
	g.AddEdge(10, 30)
	g.AddEdge(20, 30)
	g.AddEdge(30, 10)
	return g
}

// hasViewEdge reports whether v holds the edge src->dst.
func hasViewEdge(v *View, src, dst int64) bool {
	s, ok := v.Index(src)
	if !ok {
		return false
	}
	d, ok := v.Index(dst)
	if !ok {
		return false
	}
	for _, x := range v.Out(s) {
		if x == d {
			return true
		}
	}
	return false
}

func TestCSRFromDirected(t *testing.T) {
	g := sampleDirected()
	c := BuildView(g)
	if c.NumNodes() != 3 || c.NumEdges() != 4 {
		t.Fatalf("csr dims = (%d,%d)", c.NumNodes(), c.NumEdges())
	}
	i, ok := c.Index(10)
	if !ok {
		t.Fatal("Index(10) missing")
	}
	if c.OutDeg(i) != 2 || c.InDeg(i) != 1 {
		t.Fatalf("node 10 degrees = (%d,%d)", c.OutDeg(i), c.InDeg(i))
	}
	// Every directed edge is present in CSR.
	g.ForEdges(func(src, dst int64) {
		if !hasViewEdge(c, src, dst) {
			t.Fatalf("csr lost edge %d->%d", src, dst)
		}
	})
	if hasViewEdge(c, 20, 10) || hasViewEdge(c, 99, 10) {
		t.Fatal("csr invented an edge")
	}
}

func TestCSRNeighborsDense(t *testing.T) {
	g := sampleDirected()
	c := BuildView(g)
	i, _ := c.Index(10)
	for _, d := range c.Out(i) {
		id := c.ID(d)
		if id != 20 && id != 30 {
			t.Fatalf("unexpected neighbor %d", id)
		}
	}
	for _, s := range c.In(i) {
		if c.ID(s) != 30 {
			t.Fatalf("unexpected in-neighbor %d", c.ID(s))
		}
	}
}

func TestCSRDelEdge(t *testing.T) {
	g := sampleDirected()
	base := BuildView(g)
	g.DelEdge(10, 20)
	c := PatchView(base, g.HasNode, g.HasEdge, []Delta{{Op: DeltaDelEdge, Src: 10, Dst: 20}})
	if c.NumEdges() != 3 || hasViewEdge(c, 10, 20) {
		t.Fatalf("after delete: %d edges", c.NumEdges())
	}
	if base.NumEdges() != 4 || !hasViewEdge(base, 10, 20) {
		t.Fatal("patch modified its base view")
	}
	// Remaining edges intact.
	for _, e := range [][2]int64{{10, 30}, {20, 30}, {30, 10}} {
		if !hasViewEdge(c, e[0], e[1]) {
			t.Fatalf("edge %v lost", e)
		}
	}
}

func TestCSRBytesSmallerThanDynamicGraph(t *testing.T) {
	g := NewDirected()
	for i := int64(0); i < 2000; i++ {
		g.AddEdge(i, (i*7)%2000)
		g.AddEdge(i, (i*13)%2000)
	}
	c := BuildView(g)
	if c.Bytes() >= g.Bytes() {
		t.Fatalf("CSR (%d bytes) not smaller than dynamic graph (%d bytes)", c.Bytes(), g.Bytes())
	}
}

// Property: CSR round-trips the edge set of any directed graph.
func TestCSRRoundTripProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%16), int64(e[1]%16))
		}
		c := BuildView(g)
		if c.NumEdges() != g.NumEdges() || c.NumNodes() != g.NumNodes() {
			return false
		}
		ok := true
		g.ForEdges(func(src, dst int64) {
			if !hasViewEdge(c, src, dst) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}
