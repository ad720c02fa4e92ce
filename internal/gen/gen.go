// Package gen provides deterministic synthetic workload generators. The
// module is offline, so the paper's evaluation datasets (LiveJournal,
// Twitter2010, the StackOverflow dump) are replaced by generators that
// reproduce their shapes: R-MAT / preferential-attachment graphs with
// power-law degree skew for the graph workloads, and a Zipf-skewed Q&A
// posts table for the §4.1 StackOverflow demo. The programs use R-MAT
// (edge columns, or an edge table for tograph) and the posts generator;
// the library's other graph models write their edge columns straight into
// one CSR build (graph.BuildViewCols), projected for the undirected ones,
// and return the view. All generators are seeded and reproducible: one
// seed gives one graph, array for array.
package gen

import (
	"math"
	"math/rand"
	"slices"

	"ringo/internal/graph"
	"ringo/internal/table"
)

// RMATEdges generates nEdges edges over a node id space of size 2^scale
// with the R-MAT recursive-quadrant model (Chakrabarti et al.). The
// canonical parameters a=0.57, b=0.19, c=0.19 reproduce the skewed degree
// distributions of social graphs such as LiveJournal and Twitter. Duplicate
// edges and self-loops may occur, as in real edge logs; graph conversion
// deduplicates them.
func RMATEdges(scale int, nEdges int64, a, b, c float64, seed int64) (src, dst []int64) {
	if scale < 1 || scale > 40 {
		panic("gen: RMAT scale out of range")
	}
	rng := rand.New(rand.NewSource(seed))
	src = make([]int64, nEdges)
	dst = make([]int64, nEdges)
	ab := a + b
	abc := a + b + c
	for i := int64(0); i < nEdges; i++ {
		var s, d int64
		for level := 0; level < scale; level++ {
			r := rng.Float64()
			s <<= 1
			d <<= 1
			switch {
			case r < a:
				// top-left: no bits set
			case r < ab:
				d |= 1
			case r < abc:
				s |= 1
			default:
				s |= 1
				d |= 1
			}
		}
		src[i], dst[i] = s, d
	}
	return src, dst
}

// RMATTable generates an R-MAT edge table with columns src and dst, the raw
// input format of the paper's benchmarks.
func RMATTable(scale int, nEdges int64, seed int64) *table.Table {
	src, dst := RMATEdges(scale, nEdges, 0.57, 0.19, 0.19, seed)
	t, err := table.FromIntColumns([]string{"src", "dst"}, [][]int64{src, dst})
	if err != nil {
		panic(err) // generator-internal schema is always valid
	}
	return t
}

// GNM generates a uniform random directed graph with n nodes and m distinct
// edges (Erdős–Rényi G(n,m)); self-loops excluded.
func GNM(n int, m int64, seed int64) *graph.View {
	if int64(n)*int64(n-1) < m {
		panic("gen: GNM with more edges than node pairs")
	}
	rng := rand.New(rand.NewSource(seed))
	seen := make(map[int64]bool, m) // s*n + d of every edge drawn
	srcs, dsts := make([]int64, 0, m), make([]int64, 0, m)
	for int64(len(srcs)) < m {
		s, d := int64(rng.Intn(n)), int64(rng.Intn(n))
		if k := s*int64(n) + d; s != d && !seen[k] {
			seen[k] = true
			srcs, dsts = append(srcs, s), append(dsts, d)
		}
	}
	return build(srcs, dsts, nodeRange(n))
}

// GNP generates a uniform random directed graph where each ordered pair
// (excluding self-loops) is an edge with probability p, using geometric
// skip sampling so the cost is proportional to the number of edges.
func GNP(n int, p float64, seed int64) *graph.View {
	rng := rand.New(rand.NewSource(seed))
	var srcs, dsts []int64
	switch {
	case p <= 0:
	case p >= 1:
		for s := 0; s < n; s++ {
			for d := 0; d < n; d++ {
				if s != d {
					srcs, dsts = append(srcs, int64(s)), append(dsts, int64(d))
				}
			}
		}
	default:
		// Walk the n*(n-1) candidate pairs with geometric gaps; each pair
		// is visited at most once, so no edge repeats.
		total := int64(n) * int64(n-1)
		for at := geometricSkip(rng, p); at < total; at += 1 + geometricSkip(rng, p) {
			s := at / int64(n-1)
			d := at % int64(n-1)
			if d >= s {
				d++ // skip the diagonal
			}
			srcs, dsts = append(srcs, s), append(dsts, d)
		}
	}
	return build(srcs, dsts, nodeRange(n))
}

// geometricSkip samples the number of failures before the next success of a
// Bernoulli(p) sequence.
func geometricSkip(rng *rand.Rand, p float64) int64 {
	u := rng.Float64()
	if u == 0 {
		return 0
	}
	skip := int64(math.Floor(math.Log(u) / math.Log(1-p)))
	if skip < 0 {
		return 0
	}
	return skip
}

// BarabasiAlbert generates an undirected preferential-attachment graph: n
// nodes arrive in sequence and each connects to m existing nodes chosen
// proportionally to degree (the repeated-endpoints trick).
func BarabasiAlbert(n, m int, seed int64) *graph.UView {
	if m < 1 || n < m+1 {
		panic("gen: BarabasiAlbert needs n > m >= 1")
	}
	rng := rand.New(rand.NewSource(seed))
	// Seed clique of m+1 nodes. Every edge is drawn once and appended to
	// endpoints twice, so endpoints doubles as the edge columns.
	endpoints := make([]int64, 0, 2*(m*(m+1)/2+m*(n-m-1)))
	for i := 0; i <= m; i++ {
		for j := i + 1; j <= m; j++ {
			endpoints = append(endpoints, int64(i), int64(j))
		}
	}
	chosen := make([]int64, 0, m)
	for v := m + 1; v < n; v++ {
		// Targets join in draw order, so later draws index a reproducible
		// endpoints vector.
		chosen = chosen[:0]
		for len(chosen) < m {
			t := endpoints[rng.Intn(len(endpoints))]
			if t != int64(v) && !slices.Contains(chosen, t) {
				chosen = append(chosen, t)
			}
		}
		for _, t := range chosen {
			endpoints = append(endpoints, int64(v), t)
		}
	}
	srcs, dsts := make([]int64, len(endpoints)/2), make([]int64, len(endpoints)/2)
	for i := range srcs {
		srcs[i], dsts[i] = endpoints[2*i], endpoints[2*i+1]
	}
	return graph.ProjectUView(build(srcs, dsts, nil))
}

// WattsStrogatz generates a small-world graph: a ring of n nodes each
// connected to its k nearest neighbors on each side, with every edge
// rewired with probability beta.
func WattsStrogatz(n, k int, beta float64, seed int64) *graph.UView {
	if k < 1 || n < 2*k+1 {
		panic("gen: WattsStrogatz needs n >= 2k+1")
	}
	rng := rand.New(rand.NewSource(seed))
	has := make(map[int64]bool, n*k) // min*n + max of every edge added
	key := func(a, b int64) int64 { return min(a, b)*int64(n) + max(a, b) }
	srcs, dsts := make([]int64, 0, n*k), make([]int64, 0, n*k)
	for i := 0; i < n; i++ {
		for j := 1; j <= k; j++ {
			src, dst := int64(i), int64((i+j)%n)
			if rng.Float64() < beta {
				for tries := 0; tries < 32; tries++ {
					if cand := int64(rng.Intn(n)); cand != src && !has[key(src, cand)] {
						dst = cand
						break
					}
				}
			}
			if !has[key(src, dst)] {
				has[key(src, dst)] = true
				srcs, dsts = append(srcs, src), append(dsts, dst)
			}
		}
	}
	return graph.ProjectUView(build(srcs, dsts, nodeRange(n)))
}

// Star returns a star with the hub as node 0 and the given number of
// leaves, edges pointing leaf -> hub.
func Star(leaves int) *graph.View {
	return build(nodeRange(leaves + 1)[1:], make([]int64, leaves), nil)
}

// Ring returns a directed cycle of n nodes.
func Ring(n int) *graph.View {
	srcs, dsts := nodeRange(n), make([]int64, n)
	for i := range dsts {
		dsts[i] = int64((i + 1) % n)
	}
	return build(srcs, dsts, nil)
}

// Grid returns an undirected rows×cols grid graph; node id = r*cols+c.
func Grid(rows, cols int) *graph.UView {
	var srcs, dsts []int64
	for id := int64(0); id < int64(rows*cols); id++ {
		if (id+1)%int64(cols) != 0 {
			srcs, dsts = append(srcs, id), append(dsts, id+1)
		}
		if id+int64(cols) < int64(rows*cols) {
			srcs, dsts = append(srcs, id), append(dsts, id+int64(cols))
		}
	}
	return graph.ProjectUView(build(srcs, dsts, nodeRange(rows*cols)))
}

// Complete returns the complete undirected graph on n nodes.
func Complete(n int) *graph.UView {
	var srcs, dsts []int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			srcs, dsts = append(srcs, int64(i)), append(dsts, int64(j))
		}
	}
	return graph.ProjectUView(build(srcs, dsts, nil))
}

// nodeRange returns the node ids 0..n-1.
func nodeRange(n int) []int64 {
	ids := make([]int64, n)
	for i := range ids {
		ids[i] = int64(i)
	}
	return ids
}

// build is the directed view of a generator's edge columns plus its
// declared nodes; an undirected generator writes one arc per edge and
// projects the view.
func build(srcs, dsts, nodes []int64) *graph.View {
	v, err := graph.BuildViewCols(srcs, dsts, nodes)
	if err != nil {
		panic(err) // generator columns always have equal lengths
	}
	return v
}
