package graph

import "slices"

// The hash graphs' single-edge deletion lives with the tests: no program
// deletes one edge from a hash graph (a workspace binding logs the delta
// and folds it into its CSR view), but the per-edge models the tests and
// the deletion benchmarks hold views to still do.

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
