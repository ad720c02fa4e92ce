package algo

import (
	"cmp"
	"math"
	"slices"
	"sort"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// DefaultDamping is the standard PageRank damping factor.
const DefaultDamping = 0.85

// PageRankView computes PageRank scores with the given damping factor and a
// fixed number of power iterations (the paper times 10 iterations), using
// all cores: each iteration pulls rank from every node's in-neighbors — a
// contention-free "pull" formulation — in the pull core's order (by
// in-degree within blocks of consecutive nodes), split into worker ranges
// of equal edges plus nodes, then settles the sums in index order. Dangling-node mass is redistributed
// uniformly so scores sum to 1. Scores are returned in ascending node-id
// order.
func PageRankView(v *graph.View, damping float64, iters int) Scores {
	defer report(timed("pagerank"))
	return newScores(v.IDs(), pageRankFlat(v, damping, iters))
}

// spread fills contrib[i] = x[i]/outdeg(i), the rank node i hands each of
// its out-neighbors, and returns the mass parked on dangling nodes (whose
// contrib is left alone: no pull reads it). Dividing here, once per node,
// instead of once per edge inside the pull performs the identical IEEE
// division on identical operands, so scores are bit-equal to the per-edge
// form. spread runs in index order, never in the pull core's degree
// order: with parallel set the dangling sum folds par's static ranges of
// the node range in range order, as pullOrder.advance does, the same for
// every caller on the same view at the same worker count.
func spread(v *graph.View, contrib, x []float64, parallel bool) float64 {
	fill := func(lo, hi int) float64 {
		var dangling float64
		for i := lo; i < hi; i++ {
			if d := v.OutDeg(int32(i)); d > 0 {
				contrib[i] = x[i] / float64(d)
			} else {
				dangling += x[i]
			}
		}
		return dangling
	}
	if parallel {
		return par.Reduce(len(x), 0.0, fill, func(a, b float64) float64 { return a + b })
	}
	return fill(0, len(x))
}

// pullOrder is the pull core under every power-iteration kernel: a view's
// nodes in (block, degree, index) order along one edge direction, the
// inverse permutation, and the worker cuts. Sorted by degree, consecutive
// nodes mostly share a trip count, so the per-node loop exit is
// predictable; those exits, not the edges, dominated the
// one-node-at-a-time gather on skewed graphs, where most nodes have a
// handful of edges. Sorting only within blocks of pullBlock consecutive
// nodes keeps the walk over offsets, lists and sums near index order: a
// whole-graph degree order reads every list from a random place, which
// costs more than the exits it saves once the arena outgrows the cache.
type pullOrder struct {
	off   []int64 // CSR offsets of the pulled direction
	adj   []int32 // its neighbor arena
	order []int32 // position → node, ascending (block, degree, index)
	rank  []int32 // node → position
	cuts  []int   // worker w sums positions [cuts[w], cuts[w+1]), on block boundaries
}

// pullBlock is the number of consecutive nodes pullOrder sorts by degree
// as one unit. It is a multiple of four, so a four-node group that starts
// at a block boundary never straddles one.
const pullBlock = 256

// newPullOrder orders each block of v's nodes by degree along dir (In or
// Out) in O(V) and cuts the order into par.Workers() ranges of near-equal
// edges plus nodes.
func newPullOrder(v *graph.View, dir EdgeDir) *pullOrder {
	_, outOff, inOff, out, in := v.ViewParts()
	off, adj := inOff, in
	if dir == Out {
		off, adj = outOff, out
	}
	n := v.NumNodes()
	deg := func(u int32) int64 { return off[u+1] - off[u] }
	order, rank := make([]int32, n), make([]int32, n)
	blocks := (n + pullBlock - 1) / pullBlock
	// Per block, a counting sort on the degree capped at pullBlock-1, so
	// its histogram costs no more than the block; the few nodes of the top
	// bucket are then sorted by (degree, index) themselves.
	var next [pullBlock]int32 // per capped degree: its count, then its next free position
	for lo := 0; lo < n; lo += pullBlock {
		hi := min(lo+pullBlock, n)
		clear(next[:])
		for u := lo; u < hi; u++ {
			next[min(deg(int32(u)), pullBlock-1)]++
		}
		at := int32(lo)
		for d, c := range next {
			next[d] = at
			at += c
		}
		for u := lo; u < hi; u++ {
			d := min(deg(int32(u)), pullBlock-1)
			order[next[d]] = int32(u)
			next[d]++
		}
		slices.SortFunc(order[next[pullBlock-2]:hi], func(a, b int32) int {
			return cmp.Or(cmp.Compare(deg(a), deg(b)), cmp.Compare(a, b))
		})
		for p := lo; p < hi; p++ {
			rank[order[p]] = int32(p)
		}
	}

	// At a block boundary s positions and indices agree, so off[s]+s edges
	// plus nodes precede it: cut k is the first boundary past k/workers of
	// them.
	workers := int64(par.Workers())
	total := int64(len(adj)) + int64(n)
	cuts := []int{0}
	for k := int64(1); k < workers; k++ {
		b := sort.Search(blocks, func(b int) bool {
			s := b * pullBlock
			return (off[s]+int64(s))*workers >= k*total
		})
		cuts = append(cuts, min(b*pullBlock, n))
	}
	cuts = append(cuts, n)
	return &pullOrder{off: off, adj: adj, order: order, rank: rank, cuts: cuts}
}

// pull writes sums[p] = Σ x[w] over the neighbors w of node order[p], each
// node's sum taken in list order from 0 — the per-node gather's exact
// arithmetic, so its bits do not depend on the order, the cuts or the
// worker count. Sums are written by position, so workers write disjoint
// contiguous spans and never share a cache line but at their seams.
func (o *pullOrder) pull(x, sums []float64) {
	par.For(len(o.cuts)-1, func(lo, hi int) {
		for w := lo; w < hi; w++ {
			o.pullRange(x, sums, o.cuts[w], o.cuts[w+1])
		}
	})
}

// pullRange is pull over positions [lo, hi), lo on a block boundary, four
// consecutive nodes at a time. Within a block their degrees ascend, so the
// four lists share a prefix as long as the first: that prefix runs as four
// independent chains in one loop, then the longer lists finish in three,
// two and one — each chain still adds its own list in order. On equal
// degrees, the common case, only the first loop runs; a block's run of
// hubs gets the same overlap instead of one dependent add per edge.
func (o *pullOrder) pullRange(x, sums []float64, lo, hi int) {
	off, adj, order := o.off, o.adj, o.order
	list := func(p int) []int32 { u := order[p]; return adj[off[u]:off[u+1]] }
	p := lo
	for ; p+3 < hi; p += 4 {
		a0, a1, a2, a3 := list(p), list(p+1), list(p+2), list(p+3)
		var s0, s1, s2, s3 float64
		b1, b2, b3 := a1[:len(a0)], a2[:len(a0)], a3[:len(a0)]
		for j, w := range a0 {
			s0 += x[w]
			s1 += x[b1[j]]
			s2 += x[b2[j]]
			s3 += x[b3[j]]
		}
		j := len(a0)
		for ; j < len(a1); j++ {
			s1 += x[a1[j]]
			s2 += x[a2[j]]
			s3 += x[a3[j]]
		}
		for ; j < len(a2); j++ {
			s2 += x[a2[j]]
			s3 += x[a3[j]]
		}
		for ; j < len(a3); j++ {
			s3 += x[a3[j]]
		}
		sums[p], sums[p+1], sums[p+2], sums[p+3] = s0, s1, s2, s3
	}
	for ; p < hi; p++ {
		var s float64
		for _, w := range list(p) {
			s += x[w]
		}
		sums[p] = s
	}
}

// advance settles one PageRank sweep of an In order in index order: it
// sets x[i] = base + damping·sums[rank[i]] and, in the same pass, spreads
// the new x into contrib as spread does. It returns the new x's dangling
// mass, folded over par's static ranges in range order — the fold spread
// uses, so it keeps its bits at any worker count.
func (o *pullOrder) advance(v *graph.View, x, contrib, sums []float64, base, damping float64) float64 {
	_, outOff, _, _, _ := v.ViewParts()
	return par.Reduce(len(x), 0.0, func(lo, hi int) float64 {
		rank, xs, cs, off := o.rank[lo:hi], x[lo:hi], contrib[lo:hi], outOff[lo:hi+1]
		var dangling float64
		for k, r := range rank {
			xk := base + damping*sums[r]
			xs[k] = xk
			// Branch-free, as which nodes dangle is data: a dangling
			// node's contrib is never read, so it may hold xk/1, and the
			// mask adds xk for it and +0 — exactly nothing — for the rest.
			d := off[k+1] - off[k]
			cs[k] = xk / float64(max(d, 1))
			dangling += math.Float64frombits(math.Float64bits(xk) & uint64((d-1)>>63))
		}
		return dangling
	}, func(a, b float64) float64 { return a + b })
}

func pageRankFlat(v *graph.View, damping float64, iters int) []float64 {
	n := v.NumNodes()
	if n == 0 {
		return nil
	}
	o := newPullOrder(v, In)
	pr := make([]float64, n)
	contrib := make([]float64, n)
	sums := make([]float64, n)
	parFill(pr, 1.0/float64(n))
	dangling := spread(v, contrib, pr, true)
	for it := 0; it < iters; it++ {
		// Mass parked on dangling nodes teleports uniformly.
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		o.pull(contrib, sums)
		dangling = o.advance(v, pr, contrib, sums, base, damping)
	}
	return pr
}

// PersonalizedPageRankView computes PageRank with teleportation restricted
// to the given seed nodes (uniformly across them), the standard
// random-walk-with-restart relevance measure. Unknown seeds are ignored; if
// no seed is a node of v the result is empty but, like every kernel's,
// non-nil — "no seed matched" is still a score vector, not a missing one.
func PersonalizedPageRankView(v *graph.View, seeds []int64, damping float64, iters int) Scores {
	n := v.NumNodes()
	seedIdx := make([]int32, 0, len(seeds))
	for _, s := range seeds {
		if i, ok := v.Index(s); ok {
			seedIdx = append(seedIdx, i)
		}
	}
	if len(seedIdx) == 0 {
		return Scores{}
	}
	teleport := make([]float64, n)
	for _, i := range seedIdx {
		teleport[i] += 1.0 / float64(len(seedIdx))
	}
	o := newPullOrder(v, In)
	pr := make([]float64, n)
	contrib := make([]float64, n)
	sums := make([]float64, n)
	copy(pr, teleport)
	for it := 0; it < iters; it++ {
		dangling := spread(v, contrib, pr, false)
		o.pull(contrib, sums)
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				pr[i] = (1-damping)*teleport[i] + damping*(sums[o.rank[i]]+dangling*teleport[i])
			}
		})
	}
	return newScores(v.IDs(), pr)
}

// HITSScores holds hub and authority scores.
type HITSScores struct {
	Hub       Scores
	Authority Scores
}

// HITSView computes Kleinberg's hubs-and-authorities scores by power iteration
// with L2 normalization each round: authorities pull over in-edges, hubs
// over out-edges, each through the pull core.
func HITSView(v *graph.View, iters int) HITSScores {
	n := v.NumNodes()
	in, out := newPullOrder(v, In), newPullOrder(v, Out)
	hub := make([]float64, n)
	auth := make([]float64, n)
	sums := make([]float64, n)
	parFill(hub, 1)
	parFill(auth, 1)
	for it := 0; it < iters; it++ {
		// Authority: sum of hub scores of in-neighbors.
		in.pull(hub, sums)
		normalize(auth, sums, in.rank)
		// Hub: sum of authority scores of out-neighbors.
		out.pull(auth, sums)
		normalize(hub, sums, out.rank)
	}
	return HITSScores{
		Hub:       newScores(v.IDs(), hub),
		Authority: newScores(v.IDs(), auth),
	}
}

// normalize sets a[i] = sums[rank[i]], a pull's sums back in index order,
// and scales a to unit L2 norm.
func normalize(a, sums []float64, rank []int32) {
	var sq float64
	for i := range a {
		s := sums[rank[i]]
		a[i] = s
		sq += s * s
	}
	if sq == 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range a {
		a[i] *= inv
	}
}
