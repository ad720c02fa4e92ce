package algo

import (
	"ringo/internal/graph"
)

// coreNumbersFlat computes the core number (coreness) of every node of an
// undirected view, indexed by dense index, with the linear-time peeling
// algorithm of Batagelj and Zaveršnik: nodes are bucketed by degree and
// repeatedly peeled from the lowest bucket, decrementing their neighbors.
// Self-loops are ignored for degree purposes.
func coreNumbersFlat(v *graph.UView) []int32 {
	n := v.NumNodes()
	deg := make([]int32, n)
	maxDeg := int32(0)
	for u := 0; u < n; u++ {
		c := int32(0)
		for _, x := range v.Adj(int32(u)) {
			if x != int32(u) {
				c++
			}
		}
		deg[u] = c
		if c > maxDeg {
			maxDeg = c
		}
	}
	// Bucket sort nodes by degree.
	binStart := make([]int32, maxDeg+2)
	for _, dv := range deg {
		binStart[dv+1]++
	}
	for i := int32(1); i <= maxDeg+1; i++ {
		binStart[i] += binStart[i-1]
	}
	pos := make([]int32, n)  // node -> position in vert
	vert := make([]int32, n) // sorted by degree
	fill := make([]int32, maxDeg+1)
	copy(fill, binStart[:maxDeg+1])
	for u := 0; u < n; u++ {
		p := fill[deg[u]]
		fill[deg[u]]++
		pos[u] = p
		vert[p] = int32(u)
	}

	core := make([]int32, n)
	bin := make([]int32, maxDeg+1)
	copy(bin, binStart[:maxDeg+1])
	for i := 0; i < n; i++ {
		u := vert[i]
		core[u] = deg[u]
		for _, x := range v.Adj(u) {
			if x == u {
				continue
			}
			if deg[x] > deg[u] {
				// Move x to the front of its bucket, then shrink its degree.
				dx := deg[x]
				px := pos[x]
				pw := bin[dx]
				w := vert[pw]
				if x != w {
					vert[px], vert[pw] = w, x
					pos[x], pos[w] = pw, px
				}
				bin[dx]++
				deg[x]--
			}
		}
	}
	return core
}

// KCore returns the k-core of v: the maximal subgraph in which every node
// has degree at least k. Table 6 benchmarks the 3-core. The result is a
// new view over the kept nodes, ascending as in v, each neighbor vector
// filtered to kept neighbors; v is unmodified.
func KCore(v *graph.UView, k int) *graph.UView {
	core := coreNumbersFlat(v)
	// sub maps a dense index of v to its index in the k-core, or -1.
	sub := make([]int32, v.NumNodes())
	var ids []int64
	for u := range sub {
		sub[u] = -1
		if int(core[u]) >= k {
			sub[u] = int32(len(ids))
			ids = append(ids, v.ID(int32(u)))
		}
	}
	off := make([]int64, 1, len(ids)+1)
	var arena []int32
	for u, su := range sub {
		if su < 0 {
			continue
		}
		for _, w := range v.Adj(int32(u)) {
			if sub[w] >= 0 {
				arena = append(arena, sub[w])
			}
		}
		off = append(off, int64(len(arena)))
	}
	kc, err := graph.UViewFromArrays(ids, off, arena, nil)
	if err != nil {
		panic(err) // unreachable: a kept node keeps every kept neighbor
	}
	return kc
}

// KCoreStatsView reports the size of the k-core — node count and edge count
// of the maximal subgraph of minimum degree k — straight from a CSR view,
// without materializing the subgraph. It is what the repl's "algo 3core"
// verb prints, so a cached view answers it with no graph construction.
func KCoreStatsView(v *graph.UView, k int) (nodes int, edges int64) {
	defer report(timed("kcore"))
	core := coreNumbersFlat(v)
	for u := 0; u < v.NumNodes(); u++ {
		if int(core[u]) < k {
			continue
		}
		nodes++
		for _, x := range v.Adj(int32(u)) {
			if int(core[x]) < k {
				continue
			}
			if x == int32(u) {
				edges += 2 // self-loop stored once, counted as a full edge
			} else {
				edges++
			}
		}
	}
	return nodes, edges / 2
}
