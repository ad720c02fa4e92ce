package graph

import (
	"fmt"
	"slices"
)

// Directed's per-edge methods live with the tests: programs reach a hash
// graph only through FromView (the benchmark module's binding), while the
// per-edge model the view builders, the patch and the decoders are held to
// still grows, queries and deletes one edge or node at a time.

// NewDirected returns an empty directed graph.
func NewDirected() *Directed {
	return NewDirectedCap(0)
}

// HasNode reports whether id is a node of the graph.
func (g *Directed) HasNode(id int64) bool {
	_, ok := g.idx[id]
	return ok
}

// AddNode adds a node and reports whether it was newly added.
func (g *Directed) AddNode(id int64) bool {
	if id == tombstone {
		panic("graph: node id reserved")
	}
	if _, ok := g.idx[id]; ok {
		return false
	}
	var slot int32
	if n := len(g.free); n > 0 {
		slot = g.free[n-1]
		g.free = g.free[:n-1]
		g.ids[slot] = id
		g.inAdj[slot] = nil
		g.outAdj[slot] = nil
	} else {
		slot = int32(len(g.ids))
		g.ids = append(g.ids, id)
		g.inAdj = append(g.inAdj, nil)
		g.outAdj = append(g.outAdj, nil)
	}
	g.idx[id] = slot
	return true
}

// DelNode removes a node and all incident edges. It reports whether the
// node existed. Cost is proportional to the degrees of the node's
// neighbors, not to the size of the graph.
func (g *Directed) DelNode(id int64) bool {
	slot, ok := g.idx[id]
	if !ok {
		return false
	}
	for _, dst := range g.outAdj[slot] {
		if dst == id {
			continue // self-loop handled below
		}
		ds := g.idx[dst]
		g.inAdj[ds] = removeSorted(g.inAdj[ds], id)
	}
	g.nEdges -= int64(len(g.outAdj[slot]))
	for _, src := range g.inAdj[slot] {
		if src == id {
			continue
		}
		ss := g.idx[src]
		g.outAdj[ss] = removeSorted(g.outAdj[ss], id)
		g.nEdges--
	}
	// A self-loop was counted once in outAdj; the inAdj loop above skipped
	// it, so the accounting is already correct.
	g.ids[slot] = tombstone
	g.inAdj[slot] = nil
	g.outAdj[slot] = nil
	g.free = append(g.free, slot)
	delete(g.idx, id)
	return true
}

// AddEdge adds the directed edge src->dst, creating missing endpoints, and
// reports whether the edge was newly added. Insertion keeps both adjacency
// vectors sorted (binary search + insert, linear in node degree).
func (g *Directed) AddEdge(src, dst int64) bool {
	g.AddNode(src)
	g.AddNode(dst)
	ss := g.idx[src]
	pos, found := slices.BinarySearch(g.outAdj[ss], dst)
	if found {
		return false
	}
	g.outAdj[ss] = slices.Insert(g.outAdj[ss], pos, dst)
	ds := g.idx[dst]
	pos, _ = slices.BinarySearch(g.inAdj[ds], src)
	g.inAdj[ds] = slices.Insert(g.inAdj[ds], pos, src)
	g.nEdges++
	return true
}

// HasEdge reports whether the edge src->dst exists (binary search on the
// source's sorted out-vector).
func (g *Directed) HasEdge(src, dst int64) bool {
	ss, ok := g.idx[src]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(g.outAdj[ss], dst)
	return found
}

// OutDeg returns the out-degree of id (0 for absent nodes).
func (g *Directed) OutDeg(id int64) int {
	if s, ok := g.idx[id]; ok {
		return len(g.outAdj[s])
	}
	return 0
}

// InDeg returns the in-degree of id (0 for absent nodes).
func (g *Directed) InDeg(id int64) int {
	if s, ok := g.idx[id]; ok {
		return len(g.inAdj[s])
	}
	return 0
}

// Nodes returns all node ids in ascending order (a fresh slice).
func (g *Directed) Nodes() []int64 {
	out := make([]int64, 0, len(g.idx))
	for id := range g.idx {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// ForNodes calls fn for every node id, in unspecified order.
func (g *Directed) ForNodes(fn func(id int64)) {
	for _, id := range g.ids {
		if id != tombstone {
			fn(id)
		}
	}
}

// ForEdges calls fn for every directed edge, in unspecified node order but
// sorted destination order within a source.
func (g *Directed) ForEdges(fn func(src, dst int64)) {
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		for _, dst := range g.outAdj[s] {
			fn(id, dst)
		}
	}
}

// setAdjBulk installs pre-sorted adjacency vectors for a node (Clone's
// copy). It trusts the caller to pass vectors that are sorted and
// duplicate-free.
func (g *Directed) setAdjBulk(id int64, in, out []int64) {
	s := g.idx[id]
	g.inAdj[s] = in
	g.outAdj[s] = out
	g.nEdges += int64(len(out))
}

// Clone returns a deep copy of the graph.
func (g *Directed) Clone() *Directed {
	out := NewDirectedCap(len(g.idx))
	for id, s := range g.idx {
		out.AddNode(id)
		out.setAdjBulk(id, slices.Clone(g.inAdj[s]), slices.Clone(g.outAdj[s]))
	}
	return out
}

// removeSorted deletes v from the sorted slice a, preserving order.
func removeSorted(a []int64, v int64) []int64 {
	pos, found := slices.BinarySearch(a, v)
	if !found {
		return a
	}
	return slices.Delete(a, pos, pos+1)
}

// DelEdge removes the edge src->dst and reports whether it existed. Cost is
// linear in the degrees of the two endpoints — the dynamic-graph property
// the paper contrasts with CSR's O(E) single-edge deletion.
func (g *Directed) DelEdge(src, dst int64) bool {
	ss, ok := g.idx[src]
	if !ok {
		return false
	}
	ds, ok := g.idx[dst]
	if !ok {
		return false
	}
	if _, found := slices.BinarySearch(g.outAdj[ss], dst); !found {
		return false
	}
	g.outAdj[ss] = removeSorted(g.outAdj[ss], dst)
	g.inAdj[ds] = removeSorted(g.inAdj[ds], src)
	g.nEdges--
	return true
}

// Validate checks the structural invariants of a directed graph: adjacency
// vectors sorted and duplicate-free, in/out vectors mutually consistent,
// and the edge count correct. Tests and property checks call it after
// mutation sequences.
func (g *Directed) Validate() error {
	var edges int64
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		if got, ok := g.idx[id]; !ok || got != int32(s) {
			return fmt.Errorf("graph: node %d slot mapping broken", id)
		}
		for i, v := range g.outAdj[s] {
			if i > 0 && g.outAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d out-vector not strictly sorted", id)
			}
			ds, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", id, v)
			}
			if _, found := binarySearch(g.inAdj[ds], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from in-vector", id, v)
			}
		}
		for i, v := range g.inAdj[s] {
			if i > 0 && g.inAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d in-vector not strictly sorted", id)
			}
			ss, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", v, id)
			}
			if _, found := binarySearch(g.outAdj[ss], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from out-vector", v, id)
			}
		}
		edges += int64(len(g.outAdj[s]))
	}
	if edges != g.nEdges {
		return fmt.Errorf("graph: edge count %d, vectors hold %d", g.nEdges, edges)
	}
	return nil
}

func binarySearch(a []int64, v int64) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == v
}
