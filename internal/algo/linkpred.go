package algo

import (
	"math"
	"slices"
	"sort"

	"ringo/internal/graph"
)

// Neighborhood-similarity scores for pairs of nodes — the classic link
// prediction measures (Liben-Nowell & Kleinberg) that SNAP exposes for
// recommending edges. All operate on undirected graphs and ignore
// self-loops.

// CommonNeighbors returns |N(u) ∩ N(v)|.
func CommonNeighbors(g *graph.UView, u, v int64) int {
	x, a := adj(g, u)
	y, b := adj(g, v)
	return len(commonNeighbors(a, b, x, y))
}

// Jaccard returns |N(u) ∩ N(v)| / |N(u) ∪ N(v)|, 0 when both neighborhoods
// are empty.
func Jaccard(g *graph.UView, u, v int64) float64 {
	x, a := adj(g, u)
	y, b := adj(g, v)
	inter := len(commonNeighbors(a, b, x, y))
	union := properDeg(a, x) + properDeg(b, y) - inter
	if union == 0 {
		return 0
	}
	return float64(inter) / float64(union)
}

// AdamicAdar returns the Adamic-Adar index: sum over common neighbors w of
// 1/log(deg(w)). Common neighbors of degree 1 cannot occur (they are
// adjacent to both u and v).
func AdamicAdar(g *graph.UView, u, v int64) float64 {
	x, a := adj(g, u)
	y, b := adj(g, v)
	var s float64
	for _, w := range commonNeighbors(a, b, x, y) {
		if d := properDeg(g.Adj(w), w); d > 1 {
			s += 1 / math.Log(float64(d))
		}
	}
	return s
}

// PreferentialAttachment returns deg(u) × deg(v).
func PreferentialAttachment(g *graph.UView, u, v int64) int {
	x, a := adj(g, u)
	y, b := adj(g, v)
	return properDeg(a, x) * properDeg(b, y)
}

// adj returns the dense index and the neighbor vector of node id; a node
// not in g has index -1 and no neighbors.
func adj(g *graph.UView, id int64) (int32, []int32) {
	if x, ok := g.Index(id); ok {
		return x, g.Adj(x)
	}
	return -1, nil
}

// properDeg is the length of x's neighbor vector nbrs without x's
// self-loop.
func properDeg(nbrs []int32, x int32) int {
	if _, loop := slices.BinarySearch(nbrs, x); loop {
		return len(nbrs) - 1
	}
	return len(nbrs)
}

// commonNeighbors merges the sorted neighbor vectors a of x and b of y,
// excluding x and y themselves.
func commonNeighbors(a, b []int32, x, y int32) []int32 {
	var out []int32
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			if a[i] != x && a[i] != y {
				out = append(out, a[i])
			}
			i++
			j++
		}
	}
	return out
}

// PredictedLink is a scored candidate edge.
type PredictedLink struct {
	U, V  int64
	Score float64
}

// PredictLinks scores all non-adjacent pairs at distance 2 with the
// Adamic-Adar index and returns the top k candidates, ties broken by
// (U, V) for determinism. Distance-2 pairs are the only ones any
// common-neighbor measure can score above zero, which keeps the candidate
// set near-linear in practice.
func PredictLinks(g *graph.UView, k int) []PredictedLink {
	// seen[x] == u+1 marks the candidate (u, x) as scored.
	seen := make([]int32, g.NumNodes())
	var cands []PredictedLink
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		for _, w := range g.Adj(u) {
			if w == u {
				continue
			}
			for _, x := range g.Adj(w) {
				if x <= u || x == w || seen[x] == u+1 {
					continue
				}
				seen[x] = u + 1
				if _, linked := slices.BinarySearch(g.Adj(u), x); linked {
					continue
				}
				cands = append(cands, PredictedLink{g.ID(u), g.ID(x), AdamicAdar(g, g.ID(u), g.ID(x))})
			}
		}
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Score != cands[j].Score {
			return cands[i].Score > cands[j].Score
		}
		if cands[i].U != cands[j].U {
			return cands[i].U < cands[j].U
		}
		return cands[i].V < cands[j].V
	})
	if k < len(cands) {
		cands = cands[:k]
	}
	return cands
}
