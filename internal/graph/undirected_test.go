package graph

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"
)

func TestUndirectedBasics(t *testing.T) {
	g := NewUndirectedCap(0)
	if !g.AddEdge(1, 2) || g.AddEdge(2, 1) {
		t.Fatal("undirected edge not symmetric on insert")
	}
	if g.NumEdges() != 1 || g.NumNodes() != 2 {
		t.Fatalf("dims = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	if !g.HasEdge(1, 2) || !g.HasEdge(2, 1) {
		t.Fatal("HasEdge not symmetric")
	}
	if g.Deg(1) != 1 || g.Deg(2) != 1 {
		t.Fatal("degrees wrong")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedSelfLoop(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(3, 3)
	if g.NumEdges() != 1 || g.Deg(3) != 1 {
		t.Fatalf("self-loop: edges=%d deg=%d", g.NumEdges(), g.Deg(3))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if !g.DelEdge(3, 3) || g.NumEdges() != 0 {
		t.Fatal("self-loop delete failed")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedDelNode(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(1, 3)
	if !g.DelNode(2) {
		t.Fatal("DelNode failed")
	}
	if g.NumEdges() != 1 || !g.HasEdge(1, 3) {
		t.Fatalf("after DelNode: %d edges", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedDelEdgeSymmetric(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(1, 2)
	if !g.DelEdge(2, 1) {
		t.Fatal("DelEdge via reversed endpoints failed")
	}
	if g.HasEdge(1, 2) || g.NumEdges() != 0 {
		t.Fatal("edge survived delete")
	}
	if g.DelEdge(1, 2) || g.DelEdge(9, 9) {
		t.Fatal("DelEdge of absent edge returned true")
	}
}

func TestUndirectedForEdgesOncePerEdge(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(4, 4)
	count := 0
	g.ForEdges(func(src, dst int64) {
		if src > dst {
			t.Fatalf("ForEdges emitted src %d > dst %d", src, dst)
		}
		count++
	})
	if count != 3 {
		t.Fatalf("ForEdges visited %d edges, want 3", count)
	}
}

// TestAsUndirected holds the undirected projection of a directed graph
// to merging both directions of an edge into one.
func TestAsUndirected(t *testing.T) {
	d := NewDirected()
	d.AddEdge(1, 2)
	d.AddEdge(2, 1) // merges into one undirected edge
	d.AddEdge(2, 3)
	u := ProjectUView(BuildView(d))
	if u.NumEdges() != 2 {
		t.Fatalf("undirected edges = %d, want 2", u.NumEdges())
	}
	ids, off, arena := u.UViewParts()
	if _, err := UViewFromArrays(ids, off, arena, nil); err != nil {
		t.Fatal(err)
	}
}

// asUndirectedPerEdge is the undirected projection of g as one AddEdge
// per directed edge, the reference ProjectUView is held to.
func asUndirectedPerEdge(g *Directed) *Undirected {
	u := NewUndirectedCap(g.NumNodes())
	g.ForNodes(func(id int64) { u.AddNode(id) })
	g.ForEdges(func(src, dst int64) { u.AddEdge(src, dst) })
	return u
}

// buildUView is the CSR view of the per-edge model: its ids ascending and
// each node's neighbors translated to dense indices, one at a time. It is
// the reference every undirected view builder is held to.
func buildUView(g *Undirected) *UView {
	ids := g.Nodes()
	off := make([]int64, len(ids)+1)
	for i, id := range ids {
		off[i+1] = off[i] + int64(g.Deg(id))
	}
	arena := make([]int32, 0, off[len(ids)])
	for _, id := range ids {
		for _, nbr := range g.Neighbors(id) {
			j, _ := slices.BinarySearch(ids, nbr)
			arena = append(arena, int32(j))
		}
	}
	return &UView{ids: ids, off: off, arena: arena}
}

func TestUndirectedClone(t *testing.T) {
	g := NewUndirectedCap(0)
	g.AddEdge(1, 2)
	c := g.Clone()
	c.AddEdge(3, 4)
	if g.NumEdges() != 1 || c.NumEdges() != 2 {
		t.Fatal("clone not independent")
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestUndirectedMatchesReferenceModel(t *testing.T) {
	type opcode struct {
		Op       uint8
		Src, Dst int8
	}
	norm := func(a, b int64) [2]int64 {
		if a > b {
			a, b = b, a
		}
		return [2]int64{a, b}
	}
	f := func(ops []opcode) bool {
		g := NewUndirectedCap(0)
		ref := map[[2]int64]bool{}
		refNodes := map[int64]bool{}
		for _, o := range ops {
			src, dst := int64(o.Src%8), int64(o.Dst%8)
			switch o.Op % 4 {
			case 0:
				g.AddEdge(src, dst)
				ref[norm(src, dst)] = true
				refNodes[src], refNodes[dst] = true, true
			case 1:
				g.DelEdge(src, dst)
				delete(ref, norm(src, dst))
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
			if !g.HasEdge(e[0], e[1]) || !g.HasEdge(e[1], e[0]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Validate checks the invariants of an undirected graph.
func (g *Undirected) Validate() error {
	var halfEdges int64
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		if got, ok := g.idx[id]; !ok || got != int32(s) {
			return fmt.Errorf("graph: node %d slot mapping broken", id)
		}
		for i, v := range g.adj[s] {
			if i > 0 && g.adj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d vector not strictly sorted", id)
			}
			ns, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge {%d,%d} points at missing node", id, v)
			}
			if v != id {
				if _, found := binarySearch(g.adj[ns], id); !found {
					return fmt.Errorf("graph: edge {%d,%d} not symmetric", id, v)
				}
				halfEdges++
			} else {
				halfEdges += 2
			}
		}
	}
	if halfEdges%2 != 0 || halfEdges/2 != g.nEdges {
		return fmt.Errorf("graph: edge count %d, vectors hold %d halves", g.nEdges, halfEdges)
	}
	return nil
}
