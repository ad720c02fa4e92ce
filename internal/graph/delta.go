package graph

import (
	"cmp"
	"slices"

	"ringo/internal/par"
)

// ReservedNodeID is the node id reserved for tombstoned slots; AddNode
// panics on it, and hosts that accept ids from user input (the shell's
// addnode/addedge verbs) reject it up front.
const ReservedNodeID = tombstone

// DeltaOp enumerates the mutations a graph delta log records. Node
// deletion is deliberately absent: the incremental tier only grows or
// rewires the node set, which keeps every cached view's node universe a
// subset of the live graph's and makes patching a pure merge.
type DeltaOp uint8

const (
	// DeltaAddNode records an isolated-node insertion (Src is the id).
	DeltaAddNode DeltaOp = iota
	// DeltaAddEdge records an edge insertion Src->Dst (endpoints created
	// as needed, exactly like Directed.AddEdge / Undirected.AddEdge).
	DeltaAddEdge
	// DeltaDelEdge records an edge deletion Src->Dst.
	DeltaDelEdge
)

// Delta is one recorded mutation. For DeltaAddNode only Src is meaningful.
type Delta struct {
	Op       DeltaOp
	Src, Dst int64
}

// PatchView produces the CSR view of the current graph state by patching a
// base view with a batch of deltas, instead of rebuilding from scratch.
// The net adjacency changes form a node-sorted list; every run of nodes
// between two changed ones is copied from the base arena as one block —
// verbatim when no fresh id sorts below a base id, else translated through
// the dense-index shift — and only changed nodes merge their base list
// with their sorted adds and deletes. The cost is one flat O(V+E) copy plus
// O(log V) per delta endpoint: no hashing, no re-sort.
//
// The caller describes the *current* graph through the hasNode/hasEdge
// callbacks; deltas only tell the patch which pairs to re-examine, so the
// batch may contain duplicates, cancelling add/delete pairs, self-loops
// and deletions of edges that never existed — the result depends only on
// the current graph. The one precondition is that the base view's node set
// is a subset of the current graph's (no node was deleted since the base
// was built); that is exactly the invariant the delta ops can express.
//
// The result is equivalent to BuildView of the current graph — the full
// build stays as both fallback and oracle (see TestPatchViewMatchesRebuild
// and FuzzIncrementalView).
func PatchView(base *View, hasNode func(int64) bool, hasEdge func(src, dst int64) bool, deltas []Delta) *View {
	m := mergeIDs(base.ids, hasNode, deltas)
	// An edge is a net add iff it exists now but not in the base, a net
	// delete iff the reverse — order- and duplicate-independent.
	var out, in []edit
	for _, d := range deltas {
		if d.Op == DeltaAddNode {
			continue
		}
		cur := hasEdge(d.Src, d.Dst)
		if cur == base.HasEdge(d.Src, d.Dst) {
			continue
		}
		s, t := m.index(d.Src), m.index(d.Dst)
		out = append(out, edit{s, t, cur})
		in = append(in, edit{t, s, cur})
	}
	outChg, inChg := m.changes(out), m.changes(in)

	n := len(m.ids)
	v := &View{
		ids:    m.ids,
		outOff: patchOffsets(n, base.outOff, outChg),
		inOff:  patchOffsets(n, base.inOff, inChg),
	}
	e := v.outOff[n]
	v.arena = make([]int32, e+v.inOff[n])
	v.out = v.arena[:e:e]
	v.in = v.arena[e:]
	par.Do(
		func() { patchFill(v.out, v.outOff, base.out, base.outOff, m.oldToNew, outChg) },
		func() { patchFill(v.in, v.inOff, base.in, base.inOff, m.oldToNew, inChg) },
	)
	return v
}

// PatchUView is PatchView for undirected views. hasEdge must be symmetric
// in its arguments (for the undirected projection of a directed graph,
// pass the closure over both orientations).
func PatchUView(base *UView, hasNode func(int64) bool, hasEdge func(a, b int64) bool, deltas []Delta) *UView {
	m := mergeIDs(base.ids, hasNode, deltas)
	var edits []edit
	for _, d := range deltas {
		if d.Op == DeltaAddNode {
			continue
		}
		cur := hasEdge(d.Src, d.Dst)
		if cur == base.HasEdge(d.Src, d.Dst) {
			continue
		}
		// A self-loop appears once in its node's adjacency, like
		// Undirected.AddEdge inserts it.
		a, b := m.index(d.Src), m.index(d.Dst)
		edits = append(edits, edit{a, b, cur})
		if a != b {
			edits = append(edits, edit{b, a, cur})
		}
	}
	chg := m.changes(edits)

	n := len(m.ids)
	v := &UView{ids: m.ids, off: patchOffsets(n, base.off, chg)}
	v.arena = make([]int32, v.off[n])
	patchFill(v.arena, v.off, base.arena, base.off, m.oldToNew, chg)
	return v
}

// idMerge is a patched view's node set: the base ids with the fresh ids —
// touched by a delta, present now, absent from the base — merged in.
type idMerge struct {
	ids   []int64 // ascending
	fresh []int32 // dense indices of the fresh ids in ids, ascending
	// oldToNew maps a base dense index to its patched one: the base index
	// plus the number of fresh ids sorting below it. It is nil when that
	// number is always zero, so base neighbor lists copy verbatim.
	oldToNew []int32
}

func mergeIDs(baseIDs []int64, hasNode func(int64) bool, deltas []Delta) idMerge {
	var newIDs []int64
	touch := func(id int64) {
		if _, ok := slices.BinarySearch(baseIDs, id); !ok && hasNode(id) {
			newIDs = append(newIDs, id)
		}
	}
	for _, d := range deltas {
		touch(d.Src)
		if d.Op != DeltaAddNode {
			touch(d.Dst)
		}
	}
	slices.Sort(newIDs)
	newIDs = slices.Compact(newIDs)

	oldN := len(baseIDs)
	n := oldN + len(newIDs)
	m := idMerge{fresh: make([]int32, len(newIDs))}
	if len(newIDs) == 0 || oldN == 0 || newIDs[0] > baseIDs[oldN-1] {
		m.ids = slices.Concat(baseIDs, newIDs)
		for j := range newIDs {
			m.fresh[j] = int32(oldN + j)
		}
		return m
	}
	m.ids = make([]int64, 0, n)
	m.oldToNew = make([]int32, oldN)
	i, j := 0, 0
	for len(m.ids) < n {
		if j >= len(newIDs) || (i < oldN && baseIDs[i] < newIDs[j]) {
			m.oldToNew[i] = int32(len(m.ids))
			m.ids = append(m.ids, baseIDs[i])
			i++
		} else {
			m.fresh[j] = int32(len(m.ids))
			m.ids = append(m.ids, newIDs[j])
			j++
		}
	}
	return m
}

// index returns the patched dense index of an id of the patched view.
func (m idMerge) index(id int64) int32 {
	i, _ := slices.BinarySearch(m.ids, id)
	return int32(i)
}

// edit is one net adjacency change in patched dense indices: nbr enters
// (add) or leaves node's list.
type edit struct {
	node, nbr int32
	add       bool
}

// change is one node's net adjacency changes, each list sorted; fresh
// marks a node the base view lacks.
type change struct {
	node     int32
	fresh    bool
	add, del []int32
}

// changes groups one adjacency half's edits into its node-sorted change
// list. Every fresh node gets an entry, edits or not, so that patchWalk
// never takes it for a base node.
func (m idMerge) changes(edits []edit) []change {
	slices.SortFunc(edits, func(a, b edit) int {
		return cmp.Or(cmp.Compare(a.node, b.node), cmp.Compare(a.nbr, b.nbr))
	})
	edits = slices.Compact(edits)
	var chg []change
	fresh := m.fresh
	for i := 0; i < len(edits) || len(fresh) > 0; {
		var c change
		if len(fresh) > 0 && (i == len(edits) || fresh[0] <= edits[i].node) {
			c = change{node: fresh[0], fresh: true}
			fresh = fresh[1:]
		} else {
			c.node = edits[i].node
		}
		for ; i < len(edits) && edits[i].node == c.node; i++ {
			if edits[i].add {
				c.add = append(c.add, edits[i].nbr)
			} else {
				c.del = append(c.del, edits[i].nbr)
			}
		}
		chg = append(chg, c)
	}
	return chg
}

// patchWalk visits the patched dense space [0, n) in order, split at the
// changed nodes: run(at, from, cnt) for each maximal run of cnt base nodes
// with no net change, at patched indices [at, at+cnt) and base indices
// [from, from+cnt); node(c, from) for each changed node, from being its
// base index, or -1 when it is fresh.
func patchWalk(n int, chg []change, run func(at, from, cnt int), node func(c change, from int)) {
	at, from := 0, 0
	for _, c := range chg {
		if cnt := int(c.node) - at; cnt > 0 {
			run(at, from, cnt)
			from += cnt
		}
		at = int(c.node) + 1
		if c.fresh {
			node(c, -1)
		} else {
			node(c, from)
			from++
		}
	}
	if at < n {
		run(at, from, n-at)
	}
}

// patchOffsets is the offset vector of one patched adjacency half: a run
// of unchanged nodes is its base offsets shifted by one constant.
func patchOffsets(n int, baseOff []int64, chg []change) []int64 {
	off := make([]int64, n+1)
	patchWalk(n, chg, func(at, from, cnt int) {
		shift := off[at] - baseOff[from]
		for j := 1; j <= cnt; j++ {
			off[at+j] = baseOff[from+j] + shift
		}
	}, func(c change, from int) {
		deg := int64(len(c.add) - len(c.del))
		if from >= 0 {
			deg += baseOff[from+1] - baseOff[from]
		}
		off[c.node+1] = off[c.node] + deg
	})
	return off
}

// patchFill fills one patched adjacency half: each run of unchanged nodes
// is one block of the base array, copied or translated through oldToNew;
// a changed base node merges its translated base list with its adds while
// skipping its deletes; a fresh node copies its adds. Translation keeps
// lists sorted because oldToNew is strictly increasing.
func patchFill(dst []int32, off []int64, base []int32, baseOff []int64, oldToNew []int32, chg []change) {
	tr := func(x int32) int32 {
		if oldToNew == nil {
			return x
		}
		return oldToNew[x]
	}
	patchWalk(len(off)-1, chg, func(at, from, cnt int) {
		src := base[baseOff[from]:baseOff[from+cnt]]
		blk := dst[off[at]:off[at+cnt]]
		if oldToNew == nil {
			copy(blk, src)
			return
		}
		for j, x := range src {
			blk[j] = oldToNew[x]
		}
	}, func(c change, from int) {
		at := off[c.node]
		if from < 0 {
			copy(dst[at:], c.add)
			return
		}
		a, d := c.add, c.del
		for _, x := range base[baseOff[from]:baseOff[from+1]] {
			nx := tr(x)
			for len(a) > 0 && a[0] < nx {
				dst[at] = a[0]
				at++
				a = a[1:]
			}
			if len(d) > 0 && d[0] == nx {
				d = d[1:]
				continue
			}
			dst[at] = nx
			at++
		}
		copy(dst[at:], a)
	})
}
