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

// Modularity computes the Newman modularity Q of a community assignment on
// an undirected graph: the fraction of edges inside communities minus the
// expectation under the configuration model. Nodes missing from comm form
// singleton communities.
func Modularity(g *graph.Undirected, comm map[int64]int) float64 {
	m := float64(g.NumEdges())
	if m == 0 {
		return 0
	}
	next := len(comm)
	lookup := func(id int64) int {
		if c, ok := comm[id]; ok {
			return c
		}
		next++
		return next
	}
	var inside float64          // edges within communities
	degSum := map[int]float64{} // sum of degrees per community
	g.ForNodes(func(id int64) {
		degSum[lookup(id)] += float64(g.Deg(id))
	})
	g.ForEdges(func(src, dst int64) {
		if lookup(src) == lookup(dst) {
			inside++
		}
	})
	q := inside / m
	for _, s := range degSum {
		frac := s / (2 * m)
		q -= frac * frac
	}
	return q
}

// RandomWalk returns a random walk of the given length from start,
// following out-edges; the walk stops early at a node with no out-edges.
// The walk is deterministic for a fixed seed. It returns nil if start is
// missing.
func RandomWalk(g *graph.Directed, start int64, length int, seed int64) []int64 {
	if !g.HasNode(start) {
		return nil
	}
	rng := rand.New(rand.NewSource(seed))
	walk := make([]int64, 0, length+1)
	walk = append(walk, start)
	cur := start
	for i := 0; i < length; i++ {
		nbrs := g.OutNeighbors(cur)
		if len(nbrs) == 0 {
			break
		}
		cur = nbrs[rng.Intn(len(nbrs))]
		walk = append(walk, cur)
	}
	return walk
}
