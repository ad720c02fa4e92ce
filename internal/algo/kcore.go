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

// KCore returns the k-core of g: the maximal subgraph in which every node
// has degree at least k. Table 6 benchmarks the 3-core. The result is a new
// graph, built in bulk from the kept nodes' neighbor lists filtered to
// kept neighbors, with its nodes in g's ForNodes order; g is unmodified.
func KCore(g *graph.Undirected, k int) *graph.Undirected {
	v := graph.BuildUView(g)
	core := coreNumbersFlat(v)
	var ids []int64
	var adj [][]int64
	g.ForNodes(func(id int64) {
		u, _ := v.Index(id)
		if int(core[u]) < k {
			return
		}
		nbrs := make([]int64, 0, len(v.Adj(u)))
		for _, w := range v.Adj(u) {
			if int(core[w]) >= k {
				nbrs = append(nbrs, v.ID(w))
			}
		}
		ids = append(ids, id)
		adj = append(adj, nbrs)
	})
	sub, err := graph.BuildUndirectedBulk(ids, adj)
	if err != nil {
		panic(err) // unreachable: ids are g's distinct nodes
	}
	return sub
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
