package algo

import (
	"math/rand"

	"ringo/internal/graph"
)

// Information-propagation simulations: the paper's introduction motivates
// Ringo with "tracing the propagation of information in a social network";
// these are the standard diffusion models used for that task.

// IndependentCascade simulates the independent cascade model: starting from
// the seed set, each newly activated node gets one chance to activate each
// out-neighbor with probability p. It returns every activated node with the
// round in which it activated (seeds are round 0). Deterministic for a
// fixed seed; unknown seed nodes are ignored.
func IndependentCascade(v *graph.View, seeds []int64, p float64, seed int64) map[int64]int {
	rng := rand.New(rand.NewSource(seed))
	active := make(map[int64]int)
	var frontier []int32
	for _, s := range seeds {
		if u, ok := v.Index(s); ok {
			if _, dup := active[s]; !dup {
				active[s] = 0
				frontier = append(frontier, u)
			}
		}
	}
	round := 0
	for len(frontier) > 0 {
		round++
		var next []int32
		for _, u := range frontier {
			for _, w := range v.Out(u) {
				id := v.ID(w)
				if _, done := active[id]; done {
					continue
				}
				if rng.Float64() < p {
					active[id] = round
					next = append(next, w)
				}
			}
		}
		frontier = next
	}
	return active
}

// SIRResult summarizes an SIR epidemic simulation.
type SIRResult struct {
	// Infected maps every ever-infected node to its infection round.
	Infected map[int64]int
	// PeakInfected is the largest simultaneously-infectious population.
	PeakInfected int
	// Rounds is the number of rounds until no node was infectious.
	Rounds int
}

// SIR simulates a discrete-time susceptible-infectious-recovered epidemic
// on the undirected graph: each round every infectious node infects each
// susceptible neighbor with probability beta, then recovers with
// probability gamma. Deterministic for a fixed seed.
func SIR(g *graph.Undirected, seeds []int64, beta, gamma float64, seed int64) SIRResult {
	rng := rand.New(rand.NewSource(seed))
	res := SIRResult{Infected: make(map[int64]int)}
	infectious := map[int64]bool{}
	for _, s := range seeds {
		if g.HasNode(s) && !infectious[s] {
			infectious[s] = true
			res.Infected[s] = 0
		}
	}
	recovered := map[int64]bool{}
	for len(infectious) > 0 {
		if len(infectious) > res.PeakInfected {
			res.PeakInfected = len(infectious)
		}
		res.Rounds++
		newlyInfected := []int64{}
		// Deterministic iteration order over the infectious set.
		order := make([]int64, 0, len(infectious))
		for u := range infectious {
			order = append(order, u)
		}
		sortInt64s(order)
		for _, u := range order {
			for _, v := range g.Neighbors(u) {
				if _, ever := res.Infected[v]; ever {
					continue
				}
				if recovered[v] {
					continue
				}
				if rng.Float64() < beta {
					res.Infected[v] = res.Rounds
					newlyInfected = append(newlyInfected, v)
				}
			}
		}
		recoveries := 0
		for _, u := range order {
			if rng.Float64() < gamma {
				delete(infectious, u)
				recovered[u] = true
				recoveries++
			}
		}
		for _, v := range newlyInfected {
			infectious[v] = true
		}
		if len(newlyInfected) == 0 && recoveries == 0 {
			// gamma = 0 and the epidemic has saturated: nothing can change.
			break
		}
	}
	return res
}

func sortInt64s(a []int64) {
	for i := 1; i < len(a); i++ {
		v := a[i]
		j := i - 1
		for j >= 0 && a[j] > v {
			a[j+1] = a[j]
			j--
		}
		a[j+1] = v
	}
}
