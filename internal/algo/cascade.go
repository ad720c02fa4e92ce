package algo

import (
	"math/rand"
	"slices"

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
// on the undirected view: each round every infectious node infects each
// susceptible neighbor with probability beta, then recovers with
// probability gamma. Deterministic for a fixed seed: infectious nodes act
// in ascending id order, each over its neighbors in ascending id order.
func SIR(v *graph.UView, seeds []int64, beta, gamma float64, seed int64) SIRResult {
	rng := rand.New(rand.NewSource(seed))
	res := SIRResult{Infected: make(map[int64]int)}
	ever := make([]bool, v.NumNodes()) // infected at some round
	var infectious []int32
	for _, s := range seeds {
		if u, ok := v.Index(s); ok && !ever[u] {
			ever[u] = true
			infectious = append(infectious, u)
			res.Infected[s] = 0
		}
	}
	for len(infectious) > 0 {
		res.PeakInfected = max(res.PeakInfected, len(infectious))
		res.Rounds++
		slices.Sort(infectious)
		var newlyInfected []int32
		for _, u := range infectious {
			for _, x := range v.Adj(u) {
				if !ever[x] && rng.Float64() < beta {
					ever[x] = true
					res.Infected[v.ID(x)] = res.Rounds
					newlyInfected = append(newlyInfected, x)
				}
			}
		}
		still := infectious[:0]
		for _, u := range infectious {
			if rng.Float64() >= gamma { // stays infectious
				still = append(still, u)
			}
		}
		recoveries := len(infectious) - len(still)
		infectious = append(still, newlyInfected...)
		if len(newlyInfected) == 0 && recoveries == 0 {
			// gamma = 0 and the epidemic has saturated: nothing can change.
			break
		}
	}
	return res
}
