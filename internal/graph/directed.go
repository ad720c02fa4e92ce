// Package graph implements Ringo's in-memory graph objects (§2.2 of Perez
// et al., SIGMOD 2015). Every workspace binding, every façade graph and
// every algorithm runs over the flat Compressed Sparse Row views (View,
// UView), built by BuildViewCols, projected by ProjectUView and updated
// by PatchView/PatchUView. The paper's dynamic form — a hash table of
// nodes, each with sorted adjacency vectors, where deleting an edge is
// linear in the node degree — is Directed. Programs reach it only by
// thawing a view (FromView) for the benchmark module's binding; its
// per-edge methods and its undirected variant live in the package's tests,
// the model every view builder is held to.
package graph

import "math"

// tombstone marks a freed node slot.
const tombstone = math.MinInt64

// Directed is a dynamic directed graph: a hash table keyed by node id where
// each node holds two sorted adjacency vectors (in-neighbors and
// out-neighbors). Parallel edges are not stored; self-loops are allowed.
type Directed struct {
	idx    map[int64]int32
	ids    []int64 // slot -> node id, tombstone when freed
	inAdj  [][]int64
	outAdj [][]int64
	free   []int32
	nEdges int64
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

// NumSlots reports the size of the internal slot space; slots in
// [0, NumSlots) either hold a node or are tombstones. BuildView uses the
// slot space to build dense per-node arrays without hashing.
func (g *Directed) NumSlots() int { return len(g.ids) }

// IDAtSlot returns the node id at a slot, or false for tombstones.
func (g *Directed) IDAtSlot(s int) (int64, bool) {
	id := g.ids[s]
	return id, id != tombstone
}
