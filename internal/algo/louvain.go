package algo

import (
	"ringo/internal/graph"
)

// LouvainView detects communities by modularity maximization (Blondel et
// al.): repeated passes of greedy local moves followed by graph aggregation,
// until modularity stops improving. Node visiting order is fixed (dense
// order), so results are deterministic. Returns the community label per
// node (dense from 0) and the modularity of the returned partition.
// Self-loops are ignored.
func LouvainView(d *graph.UView, maxPasses int) (map[int64]int, float64) {
	defer report(timed("louvain"))
	n := d.NumNodes()
	if n == 0 {
		return map[int64]int{}, 0
	}

	// Working graph: adjacency with weights, plus per-node self weight
	// (intra-community weight accumulated by aggregation).
	type wedge struct {
		to int32
		w  float64
	}
	adj := make([][]wedge, n)
	var m2 float64 // 2m: total degree mass
	for u := 0; u < n; u++ {
		for _, v := range d.Adj(int32(u)) {
			if v == int32(u) {
				continue
			}
			adj[u] = append(adj[u], wedge{v, 1})
			m2++
		}
	}
	if m2 == 0 {
		out := make(map[int64]int, n)
		for i, id := range d.IDs() {
			out[id] = i
		}
		return out, 0
	}
	selfW := make([]float64, n)
	// membership[level] maps the previous level's supernodes to communities.
	membership := [][]int32{}
	cur := n

	for pass := 0; pass < maxPasses; pass++ {
		// Local move phase on the current aggregated graph of size cur.
		comm := make([]int32, cur)
		commTot := make([]float64, cur) // sum of degrees per community
		deg := make([]float64, cur)
		for u := 0; u < cur; u++ {
			comm[u] = int32(u)
			for _, e := range adj[u] {
				deg[u] += e.w
			}
			deg[u] += selfW[u]
			commTot[u] = deg[u]
		}
		improvedPass := false
		for {
			moved := false
			for u := 0; u < cur; u++ {
				// Weights from u to each neighboring community.
				neighW := map[int32]float64{}
				for _, e := range adj[u] {
					neighW[comm[e.to]] += e.w
				}
				old := comm[u]
				commTot[old] -= deg[u]
				best := old
				bestGain := neighW[old] - commTot[old]*deg[u]/m2
				for c, w := range neighW {
					gain := w - commTot[c]*deg[u]/m2
					if gain > bestGain+1e-12 || (gain > bestGain-1e-12 && c < best) {
						if gain > bestGain+1e-12 {
							best, bestGain = c, gain
						} else if c < best && gain >= bestGain-1e-12 {
							best = c
						}
					}
				}
				commTot[best] += deg[u]
				if best != old {
					comm[u] = best
					moved = true
					improvedPass = true
				}
			}
			if !moved {
				break
			}
		}
		// Densify community ids.
		remap := map[int32]int32{}
		for u := 0; u < cur; u++ {
			if _, ok := remap[comm[u]]; !ok {
				remap[comm[u]] = int32(len(remap))
			}
			comm[u] = remap[comm[u]]
		}
		membership = append(membership, comm)
		next := len(remap)
		if !improvedPass || next == cur {
			break
		}
		// Aggregation phase: build the community graph.
		newAdj := make([][]wedge, next)
		newSelf := make([]float64, next)
		acc := make([]map[int32]float64, next)
		for u := 0; u < cur; u++ {
			cu := comm[u]
			newSelf[cu] += selfW[u]
			for _, e := range adj[u] {
				cv := comm[e.to]
				if cu == cv {
					newSelf[cu] += e.w // both orientations accumulate; intra mass
					continue
				}
				if acc[cu] == nil {
					acc[cu] = map[int32]float64{}
				}
				acc[cu][cv] += e.w
			}
		}
		for c := 0; c < next; c++ {
			for to, w := range acc[c] {
				newAdj[c] = append(newAdj[c], wedge{to, w})
			}
		}
		adj = newAdj
		selfW = newSelf
		cur = next
	}

	// Flatten membership levels to original nodes.
	final := make([]int32, n)
	for i := range final {
		final[i] = int32(i)
	}
	for _, level := range membership {
		for i := range final {
			final[i] = level[final[i]]
		}
	}
	out := make(map[int64]int, n)
	remap := map[int32]int{}
	for i, id := range d.IDs() {
		c, ok := remap[final[i]]
		if !ok {
			c = len(remap)
			remap[final[i]] = c
		}
		out[id] = c
	}
	return out, ModularityView(d, out)
}

// ModularityView computes the Newman modularity Q of a community
// assignment on an undirected graph: the fraction of edges inside
// communities minus the expectation under the configuration model. Nodes
// missing from comm form singleton communities. Communities are numbered in
// ascending node-id order of their first member, so the degree sums fold in
// the same order on every call and Q is bit-for-bit repeatable.
func ModularityView(v *graph.UView, comm map[int64]int) float64 {
	m := float64(v.NumEdges())
	if m == 0 {
		return 0
	}
	of := make([]int32, v.NumNodes()) // dense node -> dense community
	dense := make(map[int]int32, len(comm))
	var degSum []float64
	for u, id := range v.IDs() {
		c := int32(len(degSum))
		if label, ok := comm[id]; ok {
			if seen, ok := dense[label]; ok {
				c = seen
			} else {
				dense[label] = c
			}
		}
		if c == int32(len(degSum)) {
			degSum = append(degSum, 0)
		}
		of[u] = c
		degSum[c] += float64(v.Deg(int32(u)))
	}
	var inside float64
	for u := range of {
		for _, x := range v.Adj(int32(u)) {
			if int32(u) <= x && of[u] == of[x] {
				inside++
			}
		}
	}
	q := inside / m
	for _, s := range degSum {
		frac := s / (2 * m)
		q -= frac * frac
	}
	return q
}
