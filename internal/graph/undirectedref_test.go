package graph

import "slices"

// Undirected is the per-edge undirected model graph the views are held
// to (buildUView, FuzzIncrementalView, the delta tests). It has the same
// design as Directed: a hash table of nodes, each holding one sorted
// adjacency vector. An edge {u,v} appears in both endpoints' vectors; a
// self-loop appears once in its node's vector.
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

// setAdjBulk installs a pre-sorted adjacency vector (bulk build fast path).
func (g *Undirected) setAdjBulk(id int64, adj []int64) {
	s := g.idx[id]
	g.adj[s] = adj
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
