package algo

import (
	"math"
	"math/rand"
	"sort"

	"ringo/internal/graph"
)

// Whole-graph statistics from SNAP's structural-analysis toolbox:
// reciprocity, degree assortativity, effective diameter, and a power-law
// exponent fit — the numbers network papers report in their "dataset"
// tables.

// Reciprocity returns the fraction of directed edges whose reverse edge
// also exists (self-loops count as reciprocated). Zero for edgeless graphs.
func Reciprocity(g *graph.Directed) float64 {
	if g.NumEdges() == 0 {
		return 0
	}
	var recip int64
	g.ForEdges(func(src, dst int64) {
		if g.HasEdge(dst, src) {
			recip++
		}
	})
	return float64(recip) / float64(g.NumEdges())
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// undirected edges (Newman's assortativity coefficient r). Positive values
// mean high-degree nodes attach to high-degree nodes; social networks are
// typically assortative, technological graphs disassortative. Returns 0
// when degenerate (no edges or zero variance).
func DegreeAssortativity(g *graph.Undirected) float64 {
	var m float64
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	g.ForEdges(func(u, v int64) {
		if u == v {
			return
		}
		du, dv := float64(g.Deg(u)), float64(g.Deg(v))
		// Each undirected edge contributes both orientations.
		sumXY += 2 * du * dv
		sumX += du + dv
		sumY += du + dv
		sumX2 += du*du + dv*dv
		sumY2 += du*du + dv*dv
		m += 2
	})
	if m == 0 {
		return 0
	}
	num := sumXY/m - (sumX/m)*(sumY/m)
	den := math.Sqrt(sumX2/m-(sumX/m)*(sumX/m)) * math.Sqrt(sumY2/m-(sumY/m)*(sumY/m))
	if den == 0 {
		return 0
	}
	return num / den
}

// EffectiveDiameterView estimates the 90th-percentile shortest-path distance
// (SNAP's GetBfsEffDiam): BFS from `samples` random sources (direction
// ignored), pooling all finite pairwise distances, with linear
// interpolation between the two straddling integer distances.
func EffectiveDiameterView(v *graph.View, samples int, seed int64) float64 {
	n := v.NumNodes()
	if n == 0 {
		return 0
	}
	if samples > n {
		samples = n
	}
	rng := rand.New(rand.NewSource(seed))
	starts := rng.Perm(n)[:samples]
	// Histogram of distances.
	counts := []int64{}
	var total int64
	for _, s := range starts {
		dist := bfsFlat(v, int32(s), Both)
		for _, dv := range dist {
			if dv <= 0 {
				continue
			}
			for int(dv) >= len(counts) {
				counts = append(counts, 0)
			}
			counts[dv]++
			total++
		}
	}
	if total == 0 {
		return 0
	}
	target := 0.9 * float64(total)
	var cum int64
	for dist, c := range counts {
		prev := float64(cum)
		cum += c
		if float64(cum) >= target {
			if c == 0 {
				return float64(dist)
			}
			// Interpolate within this distance bucket.
			frac := (target - prev) / float64(c)
			return float64(dist-1) + frac
		}
	}
	return float64(len(counts) - 1)
}

// PowerLawExponent fits alpha of P(deg = d) ∝ d^-alpha to the degree
// distribution with the discrete maximum-likelihood estimator of Clauset,
// Shalizi & Newman (alpha = 1 + n / Σ ln(d_i / (dmin - 0.5))) over degrees
// >= dmin. ok is false when fewer than 10 nodes reach dmin.
func PowerLawExponent(g *graph.Undirected, dmin int) (alpha float64, ok bool) {
	if dmin < 1 {
		dmin = 1
	}
	var sum float64
	n := 0
	g.ForNodes(func(id int64) {
		d := g.Deg(id)
		if d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			n++
		}
	})
	if n < 10 || sum == 0 {
		return 0, false
	}
	return 1 + float64(n)/sum, true
}

// DegreePercentiles returns the requested percentiles (0-100) of the
// out-degree distribution.
func DegreePercentiles(g *graph.Directed, pcts []float64) []int {
	degs := make([]int, 0, g.NumNodes())
	g.ForNodes(func(id int64) { degs = append(degs, g.OutDeg(id)) })
	sort.Ints(degs)
	out := make([]int, len(pcts))
	for i, p := range pcts {
		if len(degs) == 0 {
			out[i] = 0
			continue
		}
		idx := int(p / 100 * float64(len(degs)-1))
		if idx < 0 {
			idx = 0
		}
		if idx >= len(degs) {
			idx = len(degs) - 1
		}
		out[i] = degs[idx]
	}
	return out
}
