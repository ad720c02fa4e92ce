package graph

import (
	"slices"

	"ringo/internal/par"
)

// View is the flat CSR form of a directed graph, the optimized read-only
// representation Ringo's algorithms run over (§2.2 of Perez et al.): node
// ids are mapped to dense indices in ascending id order, and both adjacency
// directions are translated into one arena-backed int32 array addressed
// through offset vectors. Building a View costs O(V log V + E) once; every
// algorithm over it then indexes flat arrays with no hashing, and the id
// vector itself answers id lookups by binary search. A View is an
// immutable snapshot — a mutation makes a new view (PatchView) — and is
// safe for concurrent use by any number of readers, which is what lets a
// workspace binding serve one view to every query.
type View struct {
	ids    []int64 // dense index -> node id, ascending
	outOff []int64
	inOff  []int64
	out    []int32 // out targets; a built view allocates out and in as one block
	in     []int32 // in sources
	// retain pins whatever owns externally backed arrays (a file mapping)
	// for the view's lifetime; nil for heap-built views.
	retain any
}

// BuildView snapshots a directed graph into its CSR view, in parallel:
// the id space is sorted with the parallel sorter, per-node degrees are
// counted concurrently, and both adjacency directions are translated into
// disjoint ranges of one shared arena by all workers at once. Because dense
// indices are assigned in ascending id order and the source adjacency
// vectors are id-sorted, the translated vectors come out sorted with no
// re-sort pass.
func BuildView(g *Directed) *View {
	nslots := g.NumSlots()
	n := g.NumNodes()
	v := &View{ids: make([]int64, 0, n)}
	for s := 0; s < nslots; s++ {
		if id, ok := g.IDAtSlot(s); ok {
			v.ids = append(v.ids, id)
		}
	}
	par.SortInt64s(v.ids)

	// denseSlot maps dense index -> source slot; slotDense the reverse.
	// Every dense index maps to a unique slot, so the parallel writes are
	// disjoint.
	denseSlot := make([]int32, n)
	slotDense := make([]int32, nslots)
	par.For(nslots, func(lo, hi int) {
		for s := lo; s < hi; s++ {
			id, ok := g.IDAtSlot(s)
			if !ok {
				continue
			}
			d, _ := slices.BinarySearch(v.ids, id)
			denseSlot[d] = int32(s)
			slotDense[s] = int32(d)
		}
	})

	v.outOff = make([]int64, n+1)
	v.inOff = make([]int64, n+1)
	par.ForEach(n, func(i int) {
		s := int(denseSlot[i])
		v.outOff[i+1] = int64(len(g.outAdj[s]))
		v.inOff[i+1] = int64(len(g.inAdj[s]))
	})
	for i := 0; i < n; i++ {
		v.outOff[i+1] += v.outOff[i]
		v.inOff[i+1] += v.inOff[i]
	}
	e := v.outOff[n]
	arena := make([]int32, e+v.inOff[n])
	v.out, v.in = arena[:e:e], arena[e:]

	par.Do(
		func() {
			par.ForEach(n, func(i int) {
				s := int(denseSlot[i])
				at := v.outOff[i]
				for _, dst := range g.outAdj[s] {
					v.out[at] = slotDense[g.idx[dst]]
					at++
				}
			})
		},
		func() {
			par.ForEach(n, func(i int) {
				s := int(denseSlot[i])
				at := v.inOff[i]
				for _, src := range g.inAdj[s] {
					v.in[at] = slotDense[g.idx[src]]
					at++
				}
			})
		},
	)
	return v
}

// NumNodes reports the number of nodes in the snapshot.
func (v *View) NumNodes() int { return len(v.ids) }

// NumEdges reports the number of directed edges in the snapshot.
func (v *View) NumEdges() int64 { return int64(len(v.out)) }

// IDs returns the dense-index -> node-id vector, ascending. The slice is
// the view's own storage; callers must not modify it.
func (v *View) IDs() []int64 { return v.ids }

// ID returns the node id at dense index i.
func (v *View) ID(i int32) int64 { return v.ids[i] }

// Index returns the dense index of a node id by binary search over the
// ascending id vector, for heap-built and mapped views alike. Index is only
// consulted at algorithm entry points and by the patch planner, never per
// edge, so the O(log V) lookup costs nothing measurable, and a view carries
// no id map to build, patch or book.
func (v *View) Index(id int64) (int32, bool) {
	i, ok := slices.BinarySearch(v.ids, id)
	if !ok {
		return 0, false
	}
	return int32(i), true
}

// HasNode reports whether id is a node of the snapshot.
func (v *View) HasNode(id int64) bool {
	_, ok := v.Index(id)
	return ok
}

// HasEdge reports whether the snapshot holds the edge src->dst.
func (v *View) HasEdge(src, dst int64) bool {
	s, ok := v.Index(src)
	d, found := v.Index(dst)
	if !ok || !found {
		return false
	}
	_, has := slices.BinarySearch(v.Out(s), d)
	return has
}

// Out returns the sorted dense out-neighbor indices of dense index u. The
// slice aliases the view's arena; callers must not modify it.
func (v *View) Out(u int32) []int32 { return v.out[v.outOff[u]:v.outOff[u+1]] }

// In returns the sorted dense in-neighbor indices of dense index u (see Out
// for aliasing rules).
func (v *View) In(u int32) []int32 { return v.in[v.inOff[u]:v.inOff[u+1]] }

// OutDeg returns the out-degree of dense index u.
func (v *View) OutDeg(u int32) int { return int(v.outOff[u+1] - v.outOff[u]) }

// InDeg returns the in-degree of dense index u.
func (v *View) InDeg(u int32) int { return int(v.inOff[u+1] - v.inOff[u]) }

// Bytes estimates the in-memory size of the view, the quantity the view
// cache reports in its stats.
func (v *View) Bytes() int64 {
	return int64(cap(v.ids))*8 +
		int64(cap(v.outOff)+cap(v.inOff))*8 +
		int64(cap(v.out)+cap(v.in))*4
}

// UView is the undirected counterpart of View: one offset vector and one
// arena-backed neighbor array. An edge {u, v} sits in both endpoints'
// vectors; a self-loop appears once, in its node's.
type UView struct {
	ids   []int64
	off   []int64
	arena []int32
	// retain pins external array owners; see View.retain.
	retain any
}

// NumNodes reports the number of nodes in the snapshot.
func (v *UView) NumNodes() int { return len(v.ids) }

// NumEdges reports the number of undirected edges in the snapshot
// (self-loops count once).
func (v *UView) NumEdges() int64 {
	var loops int64
	for u := int32(0); int(u) < len(v.ids); u++ {
		if _, found := slices.BinarySearch(v.Adj(u), u); found {
			loops++
		}
	}
	return (int64(len(v.arena)) + loops) / 2
}

// IDs returns the dense-index -> node-id vector, ascending (read-only).
func (v *UView) IDs() []int64 { return v.ids }

// ID returns the node id at dense index i.
func (v *UView) ID(i int32) int64 { return v.ids[i] }

// Index returns the dense index of a node id by binary search over the id
// vector (see View.Index).
func (v *UView) Index(id int64) (int32, bool) {
	i, ok := slices.BinarySearch(v.ids, id)
	if !ok {
		return 0, false
	}
	return int32(i), true
}

// HasNode reports whether id is a node of the snapshot.
func (v *UView) HasNode(id int64) bool {
	_, ok := v.Index(id)
	return ok
}

// HasEdge reports whether the snapshot holds the edge {a, b}.
func (v *UView) HasEdge(a, b int64) bool {
	x, ok := v.Index(a)
	y, found := v.Index(b)
	if !ok || !found {
		return false
	}
	_, has := slices.BinarySearch(v.Adj(x), y)
	return has
}

// Adj returns the sorted dense neighbor indices of dense index u. The slice
// aliases the view's arena; callers must not modify it.
func (v *UView) Adj(u int32) []int32 { return v.arena[v.off[u]:v.off[u+1]] }

// Deg returns the degree of dense index u (self-loops count once).
func (v *UView) Deg(u int32) int { return int(v.off[u+1] - v.off[u]) }

// Bytes estimates the in-memory size of the view.
func (v *UView) Bytes() int64 {
	return int64(cap(v.ids))*8 +
		int64(cap(v.off))*8 +
		int64(cap(v.arena))*4
}
