package graph

import (
	"fmt"
	"slices"
)

// Undirected is a dynamic undirected graph with the same design as
// Directed: a hash table of nodes, each holding one sorted adjacency
// vector. An edge {u,v} appears in both endpoints' vectors; a self-loop
// appears once in its node's vector.
type Undirected struct {
	idx    map[int64]int32
	ids    []int64
	adj    [][]int64
	free   []int32
	nEdges int64
}

// NewUndirectedCap returns an empty undirected graph preallocated for n
// nodes.
func NewUndirectedCap(n int) *Undirected {
	return &Undirected{
		idx: make(map[int64]int32, n),
		ids: make([]int64, 0, n),
		adj: make([][]int64, 0, n),
	}
}

// NumNodes reports the number of nodes.
func (g *Undirected) NumNodes() int { return len(g.idx) }

// NumEdges reports the number of undirected edges.
func (g *Undirected) NumEdges() int64 { return g.nEdges }

// HasNode reports whether id is a node of the graph.
func (g *Undirected) HasNode(id int64) bool {
	_, ok := g.idx[id]
	return ok
}

// AddNode adds a node and reports whether it was newly added.
func (g *Undirected) AddNode(id int64) bool {
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
		g.adj[slot] = nil
	} else {
		slot = int32(len(g.ids))
		g.ids = append(g.ids, id)
		g.adj = append(g.adj, nil)
	}
	g.idx[id] = slot
	return true
}

// DelNode removes a node and its incident edges, reporting whether it
// existed.
func (g *Undirected) DelNode(id int64) bool {
	slot, ok := g.idx[id]
	if !ok {
		return false
	}
	for _, nbr := range g.adj[slot] {
		if nbr == id {
			continue
		}
		ns := g.idx[nbr]
		g.adj[ns] = removeSorted(g.adj[ns], id)
	}
	g.nEdges -= int64(len(g.adj[slot]))
	g.ids[slot] = tombstone
	g.adj[slot] = nil
	g.free = append(g.free, slot)
	delete(g.idx, id)
	return true
}

// AddEdge adds the undirected edge {src,dst}, creating missing endpoints,
// and reports whether it was newly added.
func (g *Undirected) AddEdge(src, dst int64) bool {
	g.AddNode(src)
	g.AddNode(dst)
	ss := g.idx[src]
	pos, found := slices.BinarySearch(g.adj[ss], dst)
	if found {
		return false
	}
	g.adj[ss] = slices.Insert(g.adj[ss], pos, dst)
	if src != dst {
		ds := g.idx[dst]
		pos, _ = slices.BinarySearch(g.adj[ds], src)
		g.adj[ds] = slices.Insert(g.adj[ds], pos, src)
	}
	g.nEdges++
	return true
}

// DelEdge removes the edge {src,dst} and reports whether it existed.
func (g *Undirected) DelEdge(src, dst int64) bool {
	ss, ok := g.idx[src]
	if !ok {
		return false
	}
	ds, ok := g.idx[dst]
	if !ok {
		return false
	}
	if _, found := slices.BinarySearch(g.adj[ss], dst); !found {
		return false
	}
	g.adj[ss] = removeSorted(g.adj[ss], dst)
	if src != dst {
		g.adj[ds] = removeSorted(g.adj[ds], src)
	}
	g.nEdges--
	return true
}

// HasEdge reports whether {src,dst} is an edge.
func (g *Undirected) HasEdge(src, dst int64) bool {
	ss, ok := g.idx[src]
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(g.adj[ss], dst)
	return found
}

// Deg returns the degree of id (self-loops count once).
func (g *Undirected) Deg(id int64) int {
	if s, ok := g.idx[id]; ok {
		return len(g.adj[s])
	}
	return 0
}

// Neighbors returns the sorted neighbor ids of id. The slice aliases graph
// storage; callers must not modify it.
func (g *Undirected) Neighbors(id int64) []int64 {
	if s, ok := g.idx[id]; ok {
		return g.adj[s]
	}
	return nil
}

// Nodes returns all node ids in ascending order.
func (g *Undirected) Nodes() []int64 {
	out := make([]int64, 0, len(g.idx))
	for id := range g.idx {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// ForNodes calls fn for every node id in unspecified order.
func (g *Undirected) ForNodes(fn func(id int64)) {
	for _, id := range g.ids {
		if id != tombstone {
			fn(id)
		}
	}
}

// ForEdges calls fn once per undirected edge, with src <= dst.
func (g *Undirected) ForEdges(fn func(src, dst int64)) {
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		for _, nbr := range g.adj[s] {
			if id <= nbr {
				fn(id, nbr)
			}
		}
	}
}

// NumSlots reports the slot-space size (see Directed.NumSlots).
func (g *Undirected) NumSlots() int { return len(g.ids) }

// IDAtSlot returns the node id at slot s, or false for tombstones.
func (g *Undirected) IDAtSlot(s int) (int64, bool) {
	id := g.ids[s]
	return id, id != tombstone
}

// setAdjBulk installs a pre-sorted adjacency vector (bulk build fast path).
func (g *Undirected) setAdjBulk(id int64, adj []int64) {
	s := g.idx[id]
	g.adj[s] = adj
}

// BuildUndirectedBulk assembles an undirected graph from per-node
// pre-sorted adjacency vectors; adj[i] lists the sorted, duplicate-free
// neighbors of ids[i], with each non-loop edge present in both endpoint
// vectors and each self-loop present once. nEdges is recomputed from the
// vectors. The vectors are adopted, not copied.
func BuildUndirectedBulk(ids []int64, adj [][]int64) (*Undirected, error) {
	if len(ids) != len(adj) {
		return nil, fmt.Errorf("graph: bulk build length mismatch: %d ids, %d adj", len(ids), len(adj))
	}
	g := NewUndirectedCap(len(ids))
	for _, id := range ids {
		if !g.AddNode(id) {
			return nil, fmt.Errorf("graph: bulk build duplicate node %d", id)
		}
	}
	var halfEdges int64
	for i, id := range ids {
		g.setAdjBulk(id, adj[i])
		for _, nbr := range adj[i] {
			if nbr == id {
				halfEdges += 2 // self-loop stored once, count as full edge
			} else {
				halfEdges++
			}
		}
	}
	g.nEdges = halfEdges / 2
	return g, nil
}

// Clone returns a deep copy of the graph.
func (g *Undirected) Clone() *Undirected {
	out := NewUndirectedCap(len(g.idx))
	for id, s := range g.idx {
		out.AddNode(id)
		out.setAdjBulk(id, slices.Clone(g.adj[s]))
	}
	out.nEdges = g.nEdges
	return out
}

// Bytes estimates the in-memory size of the graph (see Directed.Bytes).
func (g *Undirected) Bytes() int64 {
	var b int64
	for s := range g.ids {
		b += int64(cap(g.adj[s]))*8 + 24
	}
	b += int64(cap(g.ids)) * 8
	b += int64(cap(g.free)) * 4
	b += int64(len(g.idx)) * 16
	return b
}

// AsUndirected returns the undirected view of a directed graph: each
// directed edge becomes an undirected edge, duplicates merged. Each live
// slot's neighbor vector is the sorted union of its out- and in-vectors,
// taken in slot order, so the result visits its nodes in g's ForNodes
// order.
func AsUndirected(g *Directed) *Undirected {
	ids := make([]int64, 0, g.NumNodes())
	adj := make([][]int64, 0, g.NumNodes())
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		out, in := g.outAdj[s], g.inAdj[s]
		merged := make([]int64, mergedLen(out, in))
		mergeInto(merged, out, in)
		ids = append(ids, id)
		adj = append(adj, merged)
	}
	u, err := BuildUndirectedBulk(ids, adj)
	if err != nil {
		panic(err) // unreachable: ids are g's distinct live nodes
	}
	return u
}
