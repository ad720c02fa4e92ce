package algo

import (
	"math"
	"math/rand"
	"slices"

	"ringo/internal/graph"
)

// Whole-graph statistics from SNAP's structural-analysis toolbox:
// reciprocity, degree assortativity, effective diameter, and a power-law
// exponent fit — the numbers network papers report in their "dataset"
// tables.

// Reciprocity returns the fraction of directed edges whose reverse edge
// also exists (self-loops count as reciprocated). Zero for edgeless graphs.
func Reciprocity(v *graph.View) float64 {
	if v.NumEdges() == 0 {
		return 0
	}
	var recip int64
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		for _, x := range v.Out(u) {
			if _, back := slices.BinarySearch(v.Out(x), u); back {
				recip++
			}
		}
	}
	return float64(recip) / float64(v.NumEdges())
}

// DegreeAssortativity returns the Pearson correlation of degrees across
// undirected edges (Newman's assortativity coefficient r). Positive values
// mean high-degree nodes attach to high-degree nodes; social networks are
// typically assortative, technological graphs disassortative. Returns 0
// when degenerate (no edges or zero variance).
func DegreeAssortativity(v *graph.UView) float64 {
	var m float64
	var sumXY, sumX, sumY, sumX2, sumY2 float64
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		for _, x := range v.Adj(u) {
			if x <= u {
				continue // each edge once, self-loops skipped
			}
			du, dv := float64(v.Deg(u)), float64(v.Deg(x))
			// Each undirected edge contributes both orientations.
			sumXY += 2 * du * dv
			sumX += du + dv
			sumY += du + dv
			sumX2 += du*du + dv*dv
			sumY2 += du*du + dv*dv
			m += 2
		}
	}
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
func PowerLawExponent(v *graph.UView, dmin int) (alpha float64, ok bool) {
	if dmin < 1 {
		dmin = 1
	}
	var sum float64
	n := 0
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		if d := v.Deg(u); d >= dmin {
			sum += math.Log(float64(d) / (float64(dmin) - 0.5))
			n++
		}
	}
	if n < 10 || sum == 0 {
		return 0, false
	}
	return 1 + float64(n)/sum, true
}

// DegreePercentiles returns the requested percentiles (0-100) of the
// out-degree distribution.
func DegreePercentiles(v *graph.View, pcts []float64) []int {
	degs := make([]int, v.NumNodes())
	for u := range degs {
		degs[u] = v.OutDeg(int32(u))
	}
	slices.Sort(degs)
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
