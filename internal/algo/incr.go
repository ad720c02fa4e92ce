// Incremental algorithm variants for the mutating-graph tier: each one
// consumes the previous answer plus the mutation deltas that separate the
// old graph state from the new, and returns exactly the result its cold
// *View counterpart computes from scratch. The workspace's delta log
// (internal/core) supplies the deltas; the patched CSR views supply the
// graph.
package algo

import (
	"slices"

	"ringo/internal/graph"
)

// WCCIncr maintains weakly connected components under additions: it
// unions the previous labels across only the net-new edges, so the cost is
// O(V) relabeling plus near-constant work per delta instead of a full edge
// scan. Deletions can split components, which union-find cannot undo, so
// any DeltaDelEdge in the batch returns ok=false and the caller falls back
// to the cold WCCView. When ok, the result is identical to WCCView(v) —
// same labels, count and max size — because both renumber components by
// first appearance in ascending node-id order.
func WCCIncr(v *graph.View, prev Components, deltas []graph.Delta) (Components, bool) {
	for _, d := range deltas {
		if d.Op == graph.DeltaDelEdge {
			return Components{}, false
		}
	}
	defer report(timed("wcc_incr"))
	n := v.NumNodes()
	groups := make([]int32, n)
	next := int32(prev.Count)
	for i, id := range v.IDs() {
		if l, ok := prev.Label[id]; ok {
			groups[i] = int32(l)
		} else {
			groups[i] = next
			next++
		}
	}
	parent := make([]int32, next)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	for _, d := range deltas {
		if d.Op != graph.DeltaAddEdge {
			continue
		}
		si, ok := v.Index(d.Src)
		if !ok {
			continue
		}
		di, ok := v.Index(d.Dst)
		if !ok {
			continue
		}
		ra, rb := find(groups[si]), find(groups[di])
		if ra != rb {
			parent[ra] = rb
		}
	}
	return labelComponents(v.IDs(), len(parent), func(i int32) int32 { return find(groups[i]) }), true
}

// TrianglesIncr maintains the global triangle count across a mutation
// batch by counting only the wedges the changed edges touch: every net-new
// edge contributes the triangles it closes in the new view, every net-
// deleted edge subtracts the triangles it closed in the old view, and a
// triangle with several changed edges is attributed to exactly one of them
// (the highest-ranked in the batch) so nothing double-counts. The result
// equals TrianglesView(newV) exactly.
func TrianglesIncr(oldV, newV *graph.UView, oldCount int64, deltas []graph.Delta) int64 {
	defer report(timed("triangles_incr"))
	type pair struct{ a, b int64 }
	canon := func(a, b int64) pair {
		if a > b {
			a, b = b, a
		}
		return pair{a, b}
	}
	seen := make(map[pair]struct{}, len(deltas))
	var added, deleted []pair
	for _, d := range deltas {
		if d.Op == graph.DeltaAddNode {
			continue
		}
		p := canon(d.Src, d.Dst)
		if _, dup := seen[p]; dup {
			continue
		}
		seen[p] = struct{}{}
		inNew := uviewHasEdge(newV, p.a, p.b)
		inOld := uviewHasEdge(oldV, p.a, p.b)
		switch {
		case inNew && !inOld:
			added = append(added, p)
		case inOld && !inNew:
			deleted = append(deleted, p)
		}
	}

	countTouched := func(v *graph.UView, edges []pair) int64 {
		rank := make(map[pair]int, len(edges))
		for i, e := range edges {
			rank[e] = i
		}
		var count int64
		for i, e := range edges {
			if e.a == e.b {
				continue // self-loops close no triangles
			}
			ua, okA := v.Index(e.a)
			ub, okB := v.Index(e.b)
			if !okA || !okB {
				continue
			}
			intersect(v.Adj(ua), v.Adj(ub), func(w int32) {
				if w == ua || w == ub {
					return
				}
				wid := v.ID(w)
				// Attribute the triangle to its highest-ranked changed
				// edge: skip if either wing edge changed with a higher
				// rank than this one.
				if r, ok := rank[canon(e.a, wid)]; ok && r > i {
					return
				}
				if r, ok := rank[canon(e.b, wid)]; ok && r > i {
					return
				}
				count++
			})
		}
		return count
	}

	return oldCount + countTouched(newV, added) - countTouched(oldV, deleted)
}

func uviewHasEdge(v *graph.UView, a, b int64) bool {
	ai, ok := v.Index(a)
	if !ok {
		return false
	}
	bi, ok := v.Index(b)
	if !ok {
		return false
	}
	_, found := slices.BinarySearch(v.Adj(ai), bi)
	return found
}
