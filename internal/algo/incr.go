// Incremental algorithm variants for the mutating-graph tier: each one
// consumes the previous answer plus the mutation deltas that separate the
// old graph state from the new, and returns the same result its cold
// *View counterpart computes from scratch — exactly for WCC and triangle
// counts, within the shared convergence tolerance for PageRank. The
// workspace's delta log (internal/core) supplies the deltas; the patched
// CSR views supply the graph.
package algo

import (
	"math"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// DefaultPageRankTol is the residual tolerance PageRankViewTol and
// PageRankIncr converge to when callers have no stricter requirement.
const DefaultPageRankTol = 1e-9

// PageRankViewTol is PageRank iterated to a convergence tolerance instead
// of a fixed iteration count — the cold oracle the incremental variant is
// equivalent to. It power-iterates the dangling-discard formulation
// x = (1-d)/n + d·Σ_in x/outdeg until the L1 change of a sweep is at most
// (1-d)·tol, then normalizes to sum 1; discarding dangling mass instead of
// redistributing it yields scores proportional to PageRankView's model, so
// after normalization the two agree in the iteration limit.
func PageRankViewTol(v *graph.View, damping, tol float64) Scores {
	defer report(timed("pagerank_tol"))
	n := v.NumNodes()
	if n == 0 {
		return Scores{}
	}
	a := (1 - damping) / float64(n)
	x := make([]float64, n)
	parFill(x, 1.0/float64(n))
	powerIterate(v, newPullOrder(v, In), x, a, damping, tol)
	normalizeSum(x)
	return newScores(v.IDs(), x)
}

// powerIterate sweeps x ← a + d·Σ_in x/outdeg in place, through the pull
// core's In order o, until the L1 change of a sweep is at most (1-d)·tol.
// The sweep contracts the error by d per round, so the iteration count is
// bounded by log(tol)/log(d); the cap only guards degenerate damping
// values.
func powerIterate(v *graph.View, o *pullOrder, x []float64, a, damping, tol float64) {
	contrib := make([]float64, len(x))
	sums := make([]float64, len(x))
	spread(v, contrib, x, true)
	for it := 0; it < 100000; it++ {
		o.pull(contrib, sums)
		if _, diff := o.advance(v, x, contrib, sums, a, damping); diff <= (1-damping)*tol {
			break
		}
	}
}

// PageRankIncr is dynamic PageRank seeded from the previous score vector:
// one parallel sweep computes the residual of the seed against the new
// view, a Gauss–Southwell push phase drains the residual spike around the
// mutated region along out-edges (work proportional to how much the
// solution actually moved), and a final polish power-iterates under the
// exact stopping rule of the cold oracle. prev is the score vector of any
// earlier state (missing nodes seed at 1/n); because the polish shares
// PageRankViewTol's convergence criterion, the result equals
// PageRankViewTol(v, damping, tol) on the current view up to the shared
// tolerance — the seed and the push phase only decide how little work is
// left, never the answer.
func PageRankIncr(v *graph.View, prev Scores, damping, tol float64) Scores {
	defer report(timed("pagerank_incr"))
	n := v.NumNodes()
	if n == 0 {
		return Scores{}
	}
	a := (1 - damping) / float64(n)
	// Seed by a merge-join: prev and the view are both in ascending id order.
	x := make([]float64, n)
	j := 0
	for i, id := range v.IDs() {
		for j < len(prev) && prev[j].ID < id {
			j++
		}
		if j < len(prev) && prev[j].ID == id {
			x[i] = prev[j].Score
		} else {
			x[i] = 1.0 / float64(n)
		}
	}

	// One full residual sweep against the new topology; after this the
	// work is queue-driven and local.
	o := newPullOrder(v, In)
	contrib := make([]float64, n)
	sums := make([]float64, n)
	spread(v, contrib, x, true)
	o.pull(contrib, sums)
	rho := contrib // spent by the pull; the residual takes its storage
	rsum := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			rho[i] = a + damping*sums[o.rank[i]] - x[i]
			s += rho[i]
		}
		return s
	}, func(p, q float64) float64 { return p + q })

	// prev is normalized to sum 1, but the fixpoint of the internal
	// dangling-discard iteration has a smaller sum — a seed taken verbatim
	// carries a uniform residual of that scale mismatch, which would erase
	// the warm start. The residual map is affine in a scalar seed rescale
	// (rho(c·x) = a·(1−c) + c·rho(x)), so the c that cancels the aggregate
	// residual has a closed form; rescaling x and rho by it leaves only the
	// genuinely local residual around the mutated region.
	if den := (1 - damping) - rsum; math.Abs(den) > 1e-12 {
		if c := (1 - damping) / den; c > 0.5 && c < 2 {
			par.For(n, func(lo, hi int) {
				for i := lo; i < hi; i++ {
					x[i] *= c
					rho[i] = a*(1-c) + c*rho[i]
				}
			})
		}
	}

	// Push phase: drain residual mass above the per-node threshold. A push
	// at node u applies the Gauss–Southwell update x_u += rho_u and forwards
	// d·rho_u/deg to the out-neighbors' residuals, preserving the invariant
	// rho = a + d·P'x − x, and removes at least (1−d)·thresh of total
	// residual mass — so the loop both terminates and is worth running only
	// while the residual is concentrated. The cap — a small multiple of the
	// initial spike size — hands diffuse cascades to the polish sweeps,
	// which retire spread-out residual at full parallel memory bandwidth
	// instead of sequential pointer-chasing.
	thresh := (1 - damping) * tol
	inQ := make([]bool, n)
	queue := make([]int32, 0, n)
	for i := int32(0); int(i) < n; i++ {
		if math.Abs(rho[i]) > thresh {
			inQ[i] = true
			queue = append(queue, i)
		}
	}
	maxPush := 8*len(queue) + 1024
	for head := 0; head < len(queue) && maxPush > 0; head++ {
		u := queue[head]
		inQ[u] = false
		r := rho[u]
		if math.Abs(r) <= thresh {
			continue
		}
		maxPush--
		rho[u] = 0
		x[u] += r
		if out := v.Out(u); len(out) > 0 {
			push := damping * r / float64(len(out))
			for _, w := range out {
				rho[w] += push
				if !inQ[w] && math.Abs(rho[w]) > thresh {
					inQ[w] = true
					queue = append(queue, w)
				}
			}
		}
		// Compact the drained prefix so the queue slice cannot grow
		// unboundedly across long push cascades.
		if head > n && head > len(queue)/2 {
			queue = append(queue[:0], queue[head+1:]...)
			head = -1
		}
	}

	// Polish: folding the remaining residual into x is exactly one Jacobi
	// sweep (the invariant makes x+rho = a + d·P'x), and the L1 residual is
	// that sweep's diff — so the cold oracle's stopping rule applies
	// directly, and further sweeps run only if the push phase left more
	// than the tolerance behind.
	diff := par.Reduce(n, 0.0, func(lo, hi int) float64 {
		var s float64
		for i := lo; i < hi; i++ {
			s += math.Abs(rho[i])
			x[i] += rho[i]
		}
		return s
	}, func(p, q float64) float64 { return p + q })
	if diff > (1-damping)*tol {
		powerIterate(v, o, x, a, damping, tol)
	}
	normalizeSum(x)
	return newScores(v.IDs(), x)
}

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
	return labelComponents(v.IDs(), func(i int32) int32 { return find(groups[i]) }), true
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
			forEachCommon(v.Adj(ua), v.Adj(ub), func(w int32) {
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
	adj := v.Adj(ai)
	lo, hi := 0, len(adj)
	for lo < hi {
		mid := (lo + hi) / 2
		if adj[mid] < bi {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo < len(adj) && adj[lo] == bi
}

// forEachCommon visits every value present in both sorted slices.
func forEachCommon(a, b []int32, fn func(w int32)) {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			fn(a[i])
			i++
			j++
		}
	}
}

// normalizeSum scales a to sum to 1 (no-op for a zero vector).
func normalizeSum(a []float64) {
	var sum float64
	for _, v := range a {
		sum += v
	}
	if sum == 0 {
		return
	}
	inv := 1 / sum
	for i := range a {
		a[i] *= inv
	}
}
