package algo

import (
	"slices"
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// MotifCounts are the counts of connected directed 3-node motifs involving
// a closed triangle, plus wedge (open triple) counts — the small-subgraph
// statistics SNAP exposes for network comparison.
type MotifCounts struct {
	// CyclicTriangles is the number of directed 3-cycles a->b->c->a.
	CyclicTriangles int64
	// TransTriangles is the number of triangles (three nodes pairwise
	// joined by an arc in at least one direction) in which neither cyclic
	// orientation is complete, each counted once however many transitive
	// orientations its arcs hold.
	TransTriangles int64
	// Wedges is the number of undirected open triples (paths of length 2
	// whose endpoints are not adjacent).
	Wedges int64
}

// CountMotifsView counts directed triangle motifs and undirected wedges.
// Triangles come from the degree-oriented core over the undirected
// projection (self-loops carry no motif information), their arcs classified
// in the same pass; wedges are the neighbor pairs of every node less the
// three closed ones each triangle holds.
func CountMotifsView(v *graph.View) MotifCounts {
	defer report(timed("motifs"))
	p := graph.ProjectUView(v)
	f := orient(p)
	hasArc := func(a, b int32) bool {
		_, found := slices.BinarySearch(v.Out(a), b)
		return found
	}
	var cyclic, trans, closed, triples atomic.Int64
	par.ForDynamic(p.NumNodes(), func(lo, hi int) {
		var u int32
		var cyc, tr, cl, tp int64
		classify := func(x, w int32) {
			cw := hasArc(u, x) && hasArc(x, w) && hasArc(w, u)
			ccw := hasArc(x, u) && hasArc(w, x) && hasArc(u, w)
			switch {
			case cw && ccw:
				cyc += 2
			case cw || ccw:
				cyc++
			default:
				tr++
			}
		}
		for u = int32(lo); u < int32(hi); u++ {
			cl += f.at(u, classify)
			d := degNoLoop(p, u)
			tp += d * (d - 1) / 2
		}
		cyclic.Add(cyc)
		trans.Add(tr)
		closed.Add(cl)
		triples.Add(tp)
	})
	return MotifCounts{
		CyclicTriangles: cyclic.Load(),
		TransTriangles:  trans.Load(),
		Wedges:          triples.Load() - 3*closed.Load(),
	}
}
