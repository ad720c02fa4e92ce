package algo

import (
	"math/rand"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// ClosenessView returns the closeness centrality of node id in v, following
// edges in both directions: (r-1)/sum(d) scaled by (r-1)/(n-1) where r is
// the number of reached nodes (the Wasserman-Faust formula, robust on
// disconnected graphs). It returns 0 for missing or isolated nodes.
func ClosenessView(v *graph.View, id int64) float64 {
	s, ok := v.Index(id)
	if !ok {
		return 0
	}
	dist := bfsFlat(v, s, Both)
	var sum int64
	reached := 0
	for _, dv := range dist {
		if dv > 0 {
			sum += int64(dv)
			reached++
		}
	}
	if sum == 0 || v.NumNodes() <= 1 {
		return 0
	}
	r := float64(reached)
	n := float64(v.NumNodes())
	return (r / float64(sum)) * (r / (n - 1))
}

// ApproxBetweennessView estimates betweenness centrality with Brandes'
// algorithm run from a sample of source nodes (all nodes when samples >=
// n), scaled to estimate the full sum. Sampling uses the given seed;
// results are deterministic for a fixed seed. Edge direction is ignored, as
// in the usual social-network usage.
func ApproxBetweennessView(v *graph.View, samples int, seed int64) Scores {
	n := v.NumNodes()
	if n == 0 {
		return Scores{}
	}
	sources := make([]int32, n)
	for i := range sources {
		sources[i] = int32(i)
	}
	scale := 1.0
	if samples < n {
		rng := rand.New(rand.NewSource(seed))
		rng.Shuffle(n, func(i, j int) { sources[i], sources[j] = sources[j], sources[i] })
		sources = sources[:samples]
		scale = float64(n) / float64(samples)
	}

	adj := undirectedAdj(v, false)

	// Brandes accumulation parallelized over sources: each worker owns a
	// full set of per-source arrays and a private bc accumulator; the
	// accumulators are summed after the barrier.
	ranges := par.Split(len(sources), par.Workers())
	partials := make([][]float64, len(ranges))
	par.ForEach(len(ranges), func(w int) {
		bc := make([]float64, n)
		sigma := make([]float64, n)
		dist := make([]int32, n)
		delta := make([]float64, n)
		order := make([]int32, 0, n)
		preds := make([][]int32, n)
		for si := ranges[w].Lo; si < ranges[w].Hi; si++ {
			s := sources[si]
			for i := range dist {
				dist[i] = -1
				sigma[i] = 0
				delta[i] = 0
				preds[i] = preds[i][:0]
			}
			order = order[:0]
			dist[s] = 0
			sigma[s] = 1
			queue := []int32{s}
			for len(queue) > 0 {
				u := queue[0]
				queue = queue[1:]
				order = append(order, u)
				for _, x := range adj[u] {
					if dist[x] < 0 {
						dist[x] = dist[u] + 1
						queue = append(queue, x)
					}
					if dist[x] == dist[u]+1 {
						sigma[x] += sigma[u]
						preds[x] = append(preds[x], u)
					}
				}
			}
			for i := len(order) - 1; i >= 0; i-- {
				x := order[i]
				for _, p := range preds[x] {
					delta[p] += sigma[p] / sigma[x] * (1 + delta[x])
				}
				if x != s {
					bc[x] += delta[x]
				}
			}
		}
		partials[w] = bc
	})
	bc := make([]float64, n)
	for _, p := range partials {
		for i, pv := range p {
			bc[i] += pv
		}
	}
	// Each undirected shortest path counted from both endpoints when all
	// sources are used; halve for the standard definition.
	for i := range bc {
		bc[i] *= scale / 2
	}
	return newScores(v.IDs(), bc)
}

// undirectedAdj merges each node's out- and in-vectors into a sorted,
// deduplicated undirected adjacency (built in parallel), the form the
// direction-ignoring algorithms traverse. dropSelf omits self-loops
// (motif census ignores them; traversals keep them harmlessly).
func undirectedAdj(v *graph.View, dropSelf bool) [][]int32 {
	n := v.NumNodes()
	adj := make([][]int32, n)
	par.ForEach(n, func(u int) {
		out, in := v.Out(int32(u)), v.In(int32(u))
		merged := make([]int32, 0, len(out)+len(in))
		merged = append(merged, out...)
		merged = append(merged, in...)
		sortInt32(merged)
		// Dedup (and optionally drop self-loops) in place.
		w := 0
		for _, x := range merged {
			if dropSelf && x == int32(u) {
				continue
			}
			if w == 0 || x != merged[w-1] {
				merged[w] = x
				w++
			}
		}
		adj[u] = merged[:w]
	})
	return adj
}

// EccentricityView returns the eccentricity of a node: the longest shortest
// path from it (direction ignored), or -1 if the node is missing.
func EccentricityView(v *graph.View, id int64) int {
	s, ok := v.Index(id)
	if !ok {
		return -1
	}
	dist := bfsFlat(v, s, Both)
	ecc := 0
	for _, dv := range dist {
		if int(dv) > ecc {
			ecc = int(dv)
		}
	}
	return ecc
}

// ApproxDiameterView estimates the graph diameter by running BFS (direction
// ignored) from `samples` start nodes chosen deterministically from seed
// and taking the largest eccentricity observed — SNAP's GetBfsFullDiam.
func ApproxDiameterView(v *graph.View, samples int, seed int64) int {
	defer report(timed("diameter"))
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))
	starts := rng.Perm(n)[:samples]
	diam := 0
	for _, s := range starts {
		dist := bfsFlat(v, int32(s), Both)
		for _, dv := range dist {
			if int(dv) > diam {
				diam = int(dv)
			}
		}
	}
	return diam
}
