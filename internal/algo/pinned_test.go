package algo

import (
	"maps"
	"slices"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// The analyses below ran over the hash-of-nodes graph before they took CSR
// views. pinnedDirected and pinnedUndirected are the answers that form
// gave on the inputs of pinInputs; TestAnalysesMatchHashForms requires the
// view forms to give them exactly, floats bit for bit: both forms visit
// nodes in ascending id order and neighbors in ascending id order, so
// every sum adds the same terms in the same order and every rng draw
// falls on the same node.

// pinHand is a small directed graph with a reciprocal pair, a self-loop
// (5) and an isolated node (9).
var pinHand = [][2]int64{{1, 2}, {2, 1}, {2, 3}, {3, 1}, {3, 4}, {4, 5}, {5, 5}, {6, 2}, {7, 6}, {4, 7}}

// pinInputs returns the pinned inputs: the directed ones, and the
// undirected ones (the directed two with direction dropped, plus three
// generators).
func pinInputs() (map[string]*graph.View, map[string]*graph.UView) {
	dirs := map[string]*graph.View{
		"gnm":  gen.GNM(24, 60, 3),
		"hand": directed(pinHand, 9),
	}
	unds := map[string]*graph.UView{
		"gnm":      graph.ProjectUView(dirs["gnm"]),
		"ws":       gen.WattsStrogatz(24, 2, 0.3, 5),
		"grid":     gen.Grid(3, 4),
		"complete": gen.Complete(5),
		"hand":     graph.ProjectUView(dirs["hand"]),
	}
	return dirs, unds
}

type pinDirected struct {
	hist        [][2]int64
	pcts        []int // at pinPercentiles
	reciprocity float64
}

var pinPercentiles = []float64{0, 10, 25, 50, 75, 90, 99, 100}

type pinUndirected struct {
	colors             []int // by ascending node id
	nColors            int
	matching           [][2]int64
	independent        []int64
	sirInfected        map[int64]int // SIR from the first and the middle id, beta 0.4, gamma 0.3, seed 11
	sirPeak, sirRounds int
	links              []PredictedLink // top 6
	mst                []MSTEdge       // under pinWeight
	mstTotal           float64
	assortativity      float64
	alpha              float64 // dmin 1
	alphaOK            bool
	centrality         []float64 // by ascending node id
	pairs              []pairScores
}

// pairScores are the four link scores of the pair (u, v): over the first
// five ids, every id of the hand graph.
type pairScores struct {
	u, v       int64
	common     int
	jaccard    float64
	adamic     float64
	prefAttach int
}

func pinWeight(u, v int64) float64 { return float64((u*31+v*17)%13) + 0.25 }

func TestAnalysesMatchHashForms(t *testing.T) {
	dirs, unds := pinInputs()
	for name, want := range pinnedDirected {
		v := dirs[name]
		if got := DegreeHistogram(v); !slices.Equal(got, want.hist) {
			t.Errorf("%s: DegreeHistogram = %v, want %v", name, got, want.hist)
		}
		if got := DegreePercentiles(v, pinPercentiles); !slices.Equal(got, want.pcts) {
			t.Errorf("%s: DegreePercentiles = %v, want %v", name, got, want.pcts)
		}
		if got := Reciprocity(v); got != want.reciprocity {
			t.Errorf("%s: Reciprocity = %v, want %v", name, got, want.reciprocity)
		}
	}
	for name, want := range pinnedUndirected {
		g := unds[name]
		ids := g.IDs()
		color, k := GreedyColoring(g)
		colors := make([]int, len(ids))
		for i, id := range ids {
			colors[i] = color[id]
		}
		if !slices.Equal(colors, want.colors) || k != want.nColors || len(color) != len(ids) {
			t.Errorf("%s: GreedyColoring = %v (%d colors), want %v (%d)", name, colors, k, want.colors, want.nColors)
		}
		if got := MaximalMatching(g); !slices.Equal(got, want.matching) {
			t.Errorf("%s: MaximalMatching = %v, want %v", name, got, want.matching)
		}
		if got := IndependentSetGreedy(g); !slices.Equal(got, want.independent) {
			t.Errorf("%s: IndependentSetGreedy = %v, want %v", name, got, want.independent)
		}
		sir := SIR(g, []int64{ids[0], ids[len(ids)/2]}, 0.4, 0.3, 11)
		if !maps.Equal(sir.Infected, want.sirInfected) || sir.PeakInfected != want.sirPeak || sir.Rounds != want.sirRounds {
			t.Errorf("%s: SIR = %+v, want %v peak %d rounds %d", name, sir, want.sirInfected, want.sirPeak, want.sirRounds)
		}
		if got := PredictLinks(g, 6); !slices.Equal(got, want.links) {
			t.Errorf("%s: PredictLinks = %v, want %v", name, got, want.links)
		}
		if edges, total := MinimumSpanningForest(g, pinWeight); !slices.Equal(edges, want.mst) || total != want.mstTotal {
			t.Errorf("%s: MinimumSpanningForest = %v (%v), want %v (%v)", name, edges, total, want.mst, want.mstTotal)
		}
		if got := DegreeAssortativity(g); got != want.assortativity {
			t.Errorf("%s: DegreeAssortativity = %v, want %v", name, got, want.assortativity)
		}
		if alpha, ok := PowerLawExponent(g, 1); alpha != want.alpha || ok != want.alphaOK {
			t.Errorf("%s: PowerLawExponent = %v %v, want %v %v", name, alpha, ok, want.alpha, want.alphaOK)
		}
		dc := DegreeCentrality(g)
		for i, s := range dc {
			if s.ID != ids[i] || s.Score != want.centrality[i] {
				t.Errorf("%s: DegreeCentrality[%d] = %v, want (%d, %v)", name, i, s, ids[i], want.centrality[i])
			}
		}
		if len(dc) != len(want.centrality) {
			t.Errorf("%s: DegreeCentrality scored %d nodes, want %d", name, len(dc), len(want.centrality))
		}
		for _, p := range want.pairs {
			got := pairScores{p.u, p.v, CommonNeighbors(g, p.u, p.v), Jaccard(g, p.u, p.v),
				AdamicAdar(g, p.u, p.v), PreferentialAttachment(g, p.u, p.v)}
			if got != p {
				t.Errorf("%s: pair scores = %+v, want %+v", name, got, p)
			}
		}
	}
}

var pinnedDirected = map[string]pinDirected{
	"gnm": {
		hist:        [][2]int64{{0, 2}, {1, 4}, {2, 8}, {3, 5}, {4, 2}, {5, 1}, {6, 2}},
		pcts:        []int{0, 1, 1, 2, 3, 4, 6, 6},
		reciprocity: 0.1,
	},
	"hand": {
		hist:        [][2]int64{{0, 1}, {1, 4}, {2, 3}},
		pcts:        []int{0, 0, 1, 1, 2, 2, 2, 2},
		reciprocity: 0.3,
	},
}

var pinnedUndirected = map[string]pinUndirected{
	"gnm": {
		colors:      []int{1, 2, 2, 0, 0, 3, 0, 0, 1, 3, 0, 1, 1, 1, 1, 2, 2, 1, 2, 2, 3, 0, 4, 0},
		nColors:     5,
		matching:    [][2]int64{{0, 2}, {1, 5}, {3, 8}, {4, 16}, {6, 9}, {7, 11}, {10, 17}, {12, 15}, {14, 18}},
		independent: []int64{0, 1, 4, 9, 10, 11, 12, 13, 20, 22, 23},
		sirInfected: map[int64]int{0: 0, 1: 6, 2: 1, 3: 4, 4: 7, 5: 4, 6: 4, 7: 5, 8: 3, 9: 8, 10: 2, 11: 8, 12: 0, 13: 7, 14: 2, 15: 4, 16: 4, 17: 3, 18: 1, 19: 5, 20: 3, 21: 1, 22: 5},
		sirPeak:     9, sirRounds: 11,
		links:         []PredictedLink{{16, 19, 3.033047931131745}, {0, 6, 2.2072422458503604}, {6, 21, 2.144017937841996}, {5, 6, 2.0454725035562}, {2, 18, 2.041026924604167}, {14, 21, 1.9822481955478355}},
		mst:           []MSTEdge{{7, 14, 0.25}, {14, 15, 0.25}, {17, 21, 0.25}, {2, 14, 1.25}, {5, 7, 1.25}, {6, 9, 1.25}, {7, 11, 1.25}, {10, 17, 1.25}, {12, 21, 1.25}, {0, 7, 2.25}, {6, 19, 2.25}, {8, 10, 2.25}, {1, 6, 3.25}, {2, 21, 3.25}, {6, 16, 3.25}, {16, 20, 4.25}, {3, 17, 5.25}, {4, 19, 5.25}, {10, 18, 5.25}, {16, 17, 5.25}, {7, 22, 6.25}, {7, 13, 9.25}},
		mstTotal:      65.5,
		assortativity: -0.11086417642533727,
		alpha:         1.4580796951317452, alphaOK: true,
		centrality: []float64{0.30434782608695654, 0.13043478260869565, 0.30434782608695654, 0.21739130434782608, 0.08695652173913043, 0.30434782608695654, 0.391304347826087, 0.34782608695652173, 0.17391304347826086, 0.21739130434782608, 0.13043478260869565, 0.13043478260869565, 0.13043478260869565, 0.043478260869565216, 0.30434782608695654, 0.13043478260869565, 0.30434782608695654, 0.2608695652173913, 0.2608695652173913, 0.21739130434782608, 0.13043478260869565, 0.2608695652173913, 0.17391304347826086, 0},
		pairs: []pairScores{
			{0, 1, 1, 0.1111111111111111, 0.5138983423697507, 21},
			{0, 2, 2, 0.16666666666666666, 0.9947966893327386, 49},
			{0, 3, 0, 0, 0, 35},
			{0, 4, 2, 0.2857142857142857, 1.1352332769293625, 14},
			{1, 2, 3, 0.42857142857142855, 1.48291629805292, 21},
			{1, 3, 0, 0, 0, 15},
			{1, 4, 0, 0, 0, 6},
			{2, 3, 1, 0.09090909090909091, 0.5138983423697507, 35},
			{2, 4, 0, 0, 0, 14},
			{3, 4, 0, 0, 0, 10},
		},
	},
	"ws": {
		colors:      []int{2, 3, 0, 1, 2, 2, 0, 1, 1, 2, 0, 1, 2, 0, 2, 3, 1, 1, 0, 2, 1, 0, 3, 2},
		nColors:     4,
		matching:    [][2]int64{{0, 1}, {2, 3}, {4, 6}, {7, 10}, {8, 9}, {11, 12}, {13, 14}, {15, 16}, {17, 18}, {19, 21}, {20, 22}},
		independent: []int64{0, 4, 5, 7, 9, 12, 14, 18, 19, 23},
		sirInfected: map[int64]int{0: 0, 1: 1, 2: 2, 3: 3, 4: 3, 5: 4, 6: 2, 7: 6, 8: 4, 9: 4, 10: 3, 11: 1, 12: 0, 13: 2, 14: 3, 15: 3, 16: 2, 17: 3, 18: 3, 19: 8, 20: 5, 21: 6, 22: 4, 23: 6},
		sirPeak:     13, sirRounds: 11,
		links:         []PredictedLink{{4, 5, 2.064029975448575}, {10, 13, 2.0008056674402104}, {2, 6, 1.6315867470713192}, {3, 6, 1.6315867470713192}, {0, 3, 1.5315741611864495}, {8, 11, 1.4683498531780848}},
		mst:           []MSTEdge{{1, 2, 0.25}, {2, 4, 0.25}, {4, 8, 0.25}, {6, 12, 0.25}, {11, 22, 0.25}, {14, 15, 0.25}, {12, 21, 1.25}, {17, 18, 1.25}, {18, 20, 1.25}, {8, 10, 2.25}, {20, 21, 2.25}, {21, 23, 2.25}, {10, 11, 3.25}, {11, 13, 3.25}, {13, 17, 3.25}, {0, 1, 4.25}, {1, 3, 4.25}, {2, 5, 4.25}, {13, 14, 4.25}, {14, 16, 4.25}, {17, 19, 5.25}, {9, 10, 7.25}, {7, 13, 9.25}},
		mstTotal:      64.75,
		assortativity: 0.01056603773584968,
		alpha:         1.502722778783307, alphaOK: true,
		centrality: []float64{0.13043478260869565, 0.13043478260869565, 0.21739130434782608, 0.17391304347826086, 0.17391304347826086, 0.13043478260869565, 0.17391304347826086, 0.08695652173913043, 0.17391304347826086, 0.13043478260869565, 0.2608695652173913, 0.2608695652173913, 0.21739130434782608, 0.17391304347826086, 0.13043478260869565, 0.13043478260869565, 0.17391304347826086, 0.13043478260869565, 0.21739130434782608, 0.08695652173913043, 0.17391304347826086, 0.21739130434782608, 0.21739130434782608, 0.08695652173913043},
		pairs: []pairScores{
			{0, 1, 1, 0.2, 0.6213349345596119, 9},
			{0, 2, 1, 0.14285714285714285, 0.9102392266268375, 15},
			{0, 3, 2, 0.4, 1.5315741611864495, 12},
			{0, 4, 1, 0.16666666666666666, 0.6213349345596119, 12},
			{1, 2, 2, 0.3333333333333333, 1.6315867470713192, 15},
			{1, 3, 1, 0.16666666666666666, 0.6213349345596119, 12},
			{1, 4, 2, 0.4, 1.3426824550040934, 12},
			{2, 3, 3, 0.5, 2.541825973698157, 20},
			{2, 4, 1, 0.125, 0.7213475204444817, 20},
			{3, 4, 1, 0.14285714285714285, 0.6213349345596119, 16},
		},
	},
	"grid": {
		colors:      []int{0, 1, 0, 1, 1, 0, 1, 0, 0, 1, 0, 1},
		nColors:     2,
		matching:    [][2]int64{{0, 1}, {2, 3}, {4, 5}, {6, 7}, {8, 9}, {10, 11}},
		independent: []int64{0, 3, 5, 8, 11},
		sirInfected: map[int64]int{0: 0, 1: 1, 2: 2, 3: 4, 4: 3, 5: 2, 6: 0, 7: 2, 8: 5, 9: 3, 10: 1, 11: 3},
		sirPeak:     7, sirRounds: 8,
		links:         []PredictedLink{{1, 4, 2.164042561333445}, {2, 7, 2.164042561333445}, {4, 9, 2.164042561333445}, {7, 10, 2.164042561333445}, {0, 5, 1.820478453253675}, {3, 6, 1.820478453253675}},
		mst:           []MSTEdge{{1, 2, 0.25}, {4, 8, 0.25}, {4, 5, 1.25}, {7, 11, 1.25}, {0, 4, 3.25}, {10, 11, 3.25}, {0, 1, 4.25}, {3, 7, 4.25}, {6, 10, 5.25}, {9, 10, 7.25}, {2, 6, 8.25}},
		mstTotal:      38.75,
		assortativity: 0.12499999999999954,
		alpha:         1.5866646048005824, alphaOK: true,
		centrality: []float64{0.18181818181818182, 0.2727272727272727, 0.2727272727272727, 0.18181818181818182, 0.2727272727272727, 0.36363636363636365, 0.36363636363636365, 0.2727272727272727, 0.18181818181818182, 0.2727272727272727, 0.2727272727272727, 0.18181818181818182},
		pairs: []pairScores{
			{0, 1, 0, 0, 0, 6},
			{0, 2, 1, 0.25, 0.9102392266268375, 6},
			{0, 3, 0, 0, 0, 4},
			{0, 4, 0, 0, 0, 6},
			{1, 2, 0, 0, 0, 9},
			{1, 3, 1, 0.25, 0.9102392266268375, 6},
			{1, 4, 2, 0.5, 2.164042561333445, 9},
			{2, 3, 0, 0, 0, 6},
			{2, 4, 0, 0, 0, 9},
			{3, 4, 0, 0, 0, 6},
		},
	},
	"complete": {
		colors:      []int{0, 1, 2, 3, 4},
		nColors:     5,
		matching:    [][2]int64{{0, 1}, {2, 3}},
		independent: []int64{0},
		sirInfected: map[int64]int{0: 0, 1: 1, 2: 0, 3: 2, 4: 2},
		sirPeak:     3, sirRounds: 4,
		links:         []PredictedLink{},
		mst:           []MSTEdge{{1, 2, 0.25}, {2, 4, 0.25}, {0, 4, 3.25}, {1, 3, 4.25}},
		mstTotal:      8,
		assortativity: 0,
		alpha:         0, alphaOK: false,
		centrality: []float64{1, 1, 1, 1, 1},
		pairs: []pairScores{
			{0, 1, 3, 0.6, 2.164042561333445, 16},
			{0, 2, 3, 0.6, 2.164042561333445, 16},
			{0, 3, 3, 0.6, 2.164042561333445, 16},
			{0, 4, 3, 0.6, 2.164042561333445, 16},
			{1, 2, 3, 0.6, 2.164042561333445, 16},
			{1, 3, 3, 0.6, 2.164042561333445, 16},
			{1, 4, 3, 0.6, 2.164042561333445, 16},
			{2, 3, 3, 0.6, 2.164042561333445, 16},
			{2, 4, 3, 0.6, 2.164042561333445, 16},
			{3, 4, 3, 0.6, 2.164042561333445, 16},
		},
	},
	"hand": {
		colors:      []int{2, 0, 1, 0, 1, 1, 2, 0},
		nColors:     3,
		matching:    [][2]int64{{1, 2}, {3, 4}, {6, 7}},
		independent: []int64{1, 4, 6, 9},
		sirInfected: map[int64]int{1: 0, 2: 1, 3: 2, 5: 0, 6: 3},
		sirPeak:     3, sirRounds: 4,
		links:         []PredictedLink{{2, 7, 1.4426950408889634}, {4, 6, 1.4426950408889634}, {1, 4, 0.9102392266268375}, {1, 6, 0.9102392266268375}, {2, 4, 0.9102392266268375}, {3, 5, 0.9102392266268375}},
		mst:           []MSTEdge{{1, 2, 0.25}, {4, 5, 1.25}, {1, 3, 4.25}, {3, 4, 5.25}, {6, 7, 6.25}, {2, 6, 8.25}},
		mstTotal:      25.5,
		assortativity: -0.2698412698412698,
		alpha:         0, alphaOK: false,
		centrality: []float64{0.2857142857142857, 0.42857142857142855, 0.42857142857142855, 0.42857142857142855, 0.2857142857142857, 0.2857142857142857, 0.2857142857142857, 0},
		pairs: []pairScores{
			{1, 2, 1, 0.25, 0.9102392266268375, 6},
			{1, 3, 1, 0.25, 0.9102392266268375, 6},
			{1, 4, 1, 0.25, 0.9102392266268375, 6},
			{1, 5, 0, 0, 0, 2},
			{1, 6, 1, 0.3333333333333333, 0.9102392266268375, 4},
			{1, 7, 0, 0, 0, 4},
			{1, 9, 0, 0, 0, 0},
			{2, 3, 1, 0.2, 1.4426950408889634, 9},
			{2, 4, 1, 0.2, 0.9102392266268375, 9},
			{2, 5, 0, 0, 0, 3},
			{2, 6, 0, 0, 0, 6},
			{2, 7, 1, 0.25, 1.4426950408889634, 6},
			{2, 9, 0, 0, 0, 0},
			{3, 4, 0, 0, 0, 9},
			{3, 5, 1, 0.3333333333333333, 0.9102392266268375, 3},
			{3, 6, 1, 0.25, 0.9102392266268375, 6},
			{3, 7, 1, 0.25, 0.9102392266268375, 6},
			{3, 9, 0, 0, 0, 0},
			{4, 5, 0, 0, 0, 3},
			{4, 6, 1, 0.25, 1.4426950408889634, 6},
			{4, 7, 0, 0, 0, 6},
			{4, 9, 0, 0, 0, 0},
			{5, 6, 0, 0, 0, 2},
			{5, 7, 1, 0.5, 0.9102392266268375, 2},
			{5, 9, 0, 0, 0, 0},
			{6, 7, 0, 0, 0, 4},
			{6, 9, 0, 0, 0, 0},
			{7, 9, 0, 0, 0, 0},
		},
	},
}
