package algo

import (
	"math"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// DefaultDamping is the standard PageRank damping factor.
const DefaultDamping = 0.85

// PageRankView computes PageRank scores with the given damping factor and a
// fixed number of power iterations (the paper times 10 iterations), using
// all cores: each iteration splits the node range across workers, and each
// worker pulls rank from its nodes' in-neighbors — a contention-free "pull"
// formulation. Dangling-node mass is redistributed uniformly so scores sum
// to 1. Scores are returned in ascending node-id order.
func PageRankView(v *graph.View, damping float64, iters int) Scores {
	defer report(timed("pagerank"))
	return newScores(v.IDs(), pageRankFlat(v, damping, iters))
}

// spread fills contrib[i] = x[i]/outdeg(i), the rank node i hands each of
// its out-neighbors, and returns the mass parked on dangling nodes (whose
// contrib is left alone: no gather reads it). Dividing here, once per node, instead of once
// per edge inside the gather performs the identical IEEE division on
// identical operands, so scores are bit-equal to the per-edge form. With
// parallel set the dangling sum folds par's static ranges in range order,
// the same for every caller on the same view.
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

// gather sums the contributions of node i's in-neighbors.
func gather(v *graph.View, contrib []float64, i int) float64 {
	var sum float64
	for _, src := range v.In(int32(i)) {
		sum += contrib[src]
	}
	return sum
}

func pageRankFlat(v *graph.View, damping float64, iters int) []float64 {
	n := v.NumNodes()
	if n == 0 {
		return nil
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	parFill(pr, 1.0/float64(n))
	for it := 0; it < iters; it++ {
		// Mass parked on dangling nodes teleports uniformly.
		dangling := spread(v, contrib, pr, true)
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = base + damping*gather(v, contrib, i)
			}
		})
		pr, next = next, pr
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
	pr := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	copy(pr, teleport)
	for it := 0; it < iters; it++ {
		dangling := spread(v, contrib, pr, false)
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				next[i] = (1-damping)*teleport[i] + damping*(gather(v, contrib, i)+dangling*teleport[i])
			}
		})
		pr, next = next, pr
	}
	return newScores(v.IDs(), pr)
}

// HITSScores holds hub and authority scores.
type HITSScores struct {
	Hub       Scores
	Authority Scores
}

// HITSView computes Kleinberg's hubs-and-authorities scores by power iteration
// with L2 normalization each round.
func HITSView(v *graph.View, iters int) HITSScores {
	n := v.NumNodes()
	hub := make([]float64, n)
	auth := make([]float64, n)
	parFill(hub, 1)
	parFill(auth, 1)
	for it := 0; it < iters; it++ {
		// Authority: sum of hub scores of in-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, src := range v.In(int32(i)) {
					s += hub[src]
				}
				auth[i] = s
			}
		})
		normalize(auth)
		// Hub: sum of authority scores of out-neighbors.
		par.For(n, func(lo, hi int) {
			for i := lo; i < hi; i++ {
				var s float64
				for _, dst := range v.Out(int32(i)) {
					s += auth[dst]
				}
				hub[i] = s
			}
		})
		normalize(hub)
	}
	return HITSScores{
		Hub:       newScores(v.IDs(), hub),
		Authority: newScores(v.IDs(), auth),
	}
}

func normalize(a []float64) {
	var sq float64
	for _, v := range a {
		sq += v * v
	}
	if sq == 0 {
		return
	}
	inv := 1 / math.Sqrt(sq)
	for i := range a {
		a[i] *= inv
	}
}
