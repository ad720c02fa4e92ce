package algo

import (
	"math/rand"

	"ringo/internal/graph"
)

// LabelPropagationView detects communities on an undirected graph by
// iterative majority label adoption (Raghavan et al.): every node
// repeatedly takes the most frequent label among its neighbors until labels
// stabilize or maxIters passes complete. Node visit order is shuffled deterministically
// from seed, so results are reproducible. Returns a community label per
// node, labels dense from 0.
func LabelPropagationView(v *graph.UView, maxIters int, seed int64) map[int64]int {
	n := v.NumNodes()
	labels := make([]int32, n)
	for i := range labels {
		labels[i] = int32(i)
	}
	order := make([]int32, n)
	for i := range order {
		order[i] = int32(i)
	}
	rng := rand.New(rand.NewSource(seed))
	counts := map[int32]int{}
	for it := 0; it < maxIters; it++ {
		rng.Shuffle(n, func(i, j int) { order[i], order[j] = order[j], order[i] })
		changed := 0
		for _, u := range order {
			adjU := v.Adj(u)
			if len(adjU) == 0 {
				continue
			}
			clear(counts)
			for _, x := range adjU {
				counts[labels[x]]++
			}
			best := labels[u]
			bestCount := counts[best] // prefer keeping the current label on ties
			for l, c := range counts {
				if c > bestCount || (c == bestCount && l < best) {
					best, bestCount = l, c
				}
			}
			if best != labels[u] {
				labels[u] = best
				changed++
			}
		}
		if changed == 0 {
			break
		}
	}
	// Densify labels.
	remap := map[int32]int{}
	out := make(map[int64]int, n)
	for i, id := range v.IDs() {
		l, ok := remap[labels[i]]
		if !ok {
			l = len(remap)
			remap[labels[i]] = l
		}
		out[id] = l
	}
	return out
}
