// Package graph implements Ringo's in-memory graph objects (§2.2 of Perez
// et al., SIGMOD 2015). The primary representation is dynamic: a hash table
// of nodes where each node maintains sorted adjacency vectors of neighboring
// node ids. Updates are cheap (deleting an edge is linear in the node
// degree, not in the graph size), while sorted vectors keep neighborhood
// scans and membership tests fast. The package also provides an undirected
// variant and the flat Compressed Sparse Row views (View, UView) that
// algorithms run over.
package graph

import (
	"math"
	"slices"
)

// tombstone marks a freed node slot.
const tombstone = math.MinInt64

// Directed is a dynamic directed graph: a hash table keyed by node id where
// each node holds two sorted adjacency vectors (in-neighbors and
// out-neighbors). Parallel edges are not stored; self-loops are allowed.
// Directed is safe for concurrent readers; mutations require external
// synchronization.
type Directed struct {
	idx    map[int64]int32
	ids    []int64 // slot -> node id, tombstone when freed
	inAdj  [][]int64
	outAdj [][]int64
	free   []int32
	nEdges int64
}

// NewDirected returns an empty directed graph.
func NewDirected() *Directed {
	return NewDirectedCap(0)
}

// NewDirectedCap returns an empty directed graph preallocated for n nodes.
func NewDirectedCap(n int) *Directed {
	return &Directed{
		idx:    make(map[int64]int32, n),
		ids:    make([]int64, 0, n),
		inAdj:  make([][]int64, 0, n),
		outAdj: make([][]int64, 0, n),
	}
}

// NumNodes reports the number of nodes.
func (g *Directed) NumNodes() int { return len(g.idx) }

// NumEdges reports the number of directed edges.
func (g *Directed) NumEdges() int64 { return g.nEdges }

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

// NumSlots reports the size of the internal slot space; slots in
// [0, NumSlots) either hold a node or are tombstones. Algorithms use the
// slot space to build dense per-node arrays without hashing.
func (g *Directed) NumSlots() int { return len(g.ids) }

// IDAtSlot returns the node id at a slot, or false for tombstones.
func (g *Directed) IDAtSlot(s int) (int64, bool) {
	id := g.ids[s]
	return id, id != tombstone
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

// Bytes estimates the in-memory size of the graph: adjacency vector
// storage, slot bookkeeping, and hash-table entries. This is the quantity
// reported as "In-memory Graph Size" in Table 2.
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

// removeSorted deletes v from the sorted slice a, preserving order.
func removeSorted(a []int64, v int64) []int64 {
	pos, found := slices.BinarySearch(a, v)
	if !found {
		return a
	}
	return slices.Delete(a, pos, pos+1)
}
