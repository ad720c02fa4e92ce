package ringo_test

import (
	"math"
	"reflect"
	"testing"

	"ringo"
)

// Tests for the extended façade surface: structural algorithms, motifs,
// graph ops, attributed networks, and the parallel BFS.

func TestFacadeStructuralAlgorithms(t *testing.T) {
	// Two triangles joined at node 2, with a pendant 4-9 edge.
	u := ringo.NewUGraph()
	for _, e := range [][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 9}} {
		u.AddEdge(e[0], e[1])
	}
	cuts := ringo.GetArticulationPoints(u)
	if len(cuts) != 2 || cuts[0] != 2 || cuts[1] != 4 {
		t.Fatalf("articulation points = %v", cuts)
	}
	bridges := ringo.GetBridges(u)
	if len(bridges) != 1 || bridges[0] != [2]int64{4, 9} {
		t.Fatalf("bridges = %v", bridges)
	}
	if _, ok := ringo.Bipartition(u); ok {
		t.Fatal("triangle-containing graph reported bipartite")
	}
	edges, total := ringo.MinimumSpanningForest(u, func(a, b int64) float64 { return 1 })
	if len(edges) != u.NumNodes()-1 {
		t.Fatalf("spanning tree edges = %d", len(edges))
	}
	if total != float64(u.NumNodes()-1) {
		t.Fatalf("unit-weight MST total = %v", total)
	}
}

func TestFacadeDAGVerbs(t *testing.T) {
	g := ringo.GenGNM(10, 0, 1) // nodes only
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	if !ringo.IsDAG(g) {
		t.Fatal("acyclic graph rejected")
	}
	order, err := ringo.TopoSort(g)
	if err != nil || len(order) != 10 {
		t.Fatalf("topo sort = (%d, %v)", len(order), err)
	}
	g.AddEdge(3, 1)
	if ringo.IsDAG(g) {
		t.Fatal("cycle accepted as DAG")
	}
}

func TestFacadeMotifsAndConvergedPageRank(t *testing.T) {
	g := ringo.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	mc := ringo.CountMotifs(g)
	if mc.CyclicTriangles != 1 {
		t.Fatalf("motifs = %+v", mc)
	}
	pr, iters := ringo.PageRankConverged(g, 0.85, 1e-10, 500)
	if iters == 0 || iters >= 500 {
		t.Fatalf("iters = %d", iters)
	}
	var sum float64
	for _, e := range pr {
		sum += e.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("converged sum = %v", sum)
	}
}

func TestFacadeGraphOps(t *testing.T) {
	g := ringo.GenGNM(30, 200, 2)
	sub := ringo.Subgraph(g, g.Nodes()[:10])
	if sub.NumNodes() != 10 {
		t.Fatalf("subgraph nodes = %d", sub.NumNodes())
	}
	rev := ringo.ReverseGraph(g)
	if rev.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed edge count")
	}
	un := ringo.UnionGraphs(g, rev)
	if un.NumNodes() != g.NumNodes() {
		t.Fatal("union node count")
	}
	if un.NumEdges() < g.NumEdges() {
		t.Fatal("union lost edges")
	}
	usub := ringo.SubgraphUndirected(ringo.AsUndirected(g), g.Nodes()[:10])
	if usub.NumNodes() != 10 {
		t.Fatal("undirected subgraph nodes")
	}
}

func TestFacadeToNetwork(t *testing.T) {
	tbl, err := ringo.NewTable(ringo.Schema{
		{Name: "src", Type: ringo.IntCol},
		{Name: "dst", Type: ringo.IntCol},
		{Name: "w", Type: ringo.FloatCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := tbl.AppendRow(1, 2, float64(i)); err != nil {
			t.Fatal(err)
		}
	}
	n, err := ringo.ToNetwork(tbl, "src", "dst", "w")
	if err != nil {
		t.Fatal(err)
	}
	if n.NumEdges() != 5 {
		t.Fatalf("network edges = %d, want 5 parallel", n.NumEdges())
	}
	if v, ok := n.EdgeAttr("w", 3); !ok || v != 3.0 {
		t.Fatalf("edge attr = (%v,%v)", v, ok)
	}
}

func TestFacadeLinkPredictionAndStats(t *testing.T) {
	u := ringo.NewUGraph()
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 1}, {5, 2}, {5, 3}} {
		u.AddEdge(e[0], e[1])
	}
	if ringo.CommonNeighbors(u, 1, 3) != 3 {
		t.Fatal("common neighbors")
	}
	if ringo.Jaccard(u, 1, 3) != 1 {
		t.Fatal("jaccard")
	}
	if ringo.AdamicAdar(u, 1, 3) <= 0 {
		t.Fatal("adamic-adar")
	}
	if ringo.PreferentialAttachment(u, 1, 3) != 9 {
		t.Fatal("preferential attachment")
	}
	preds := ringo.PredictLinks(u, 5)
	if len(preds) == 0 || preds[0].U != 1 || preds[0].V != 3 {
		t.Fatalf("predictions = %v", preds)
	}

	g := ringo.NewGraph()
	g.AddEdge(1, 2)
	g.AddEdge(2, 1)
	g.AddEdge(2, 3)
	if r := ringo.GetReciprocity(g); r < 0.6 || r > 0.7 {
		t.Fatalf("reciprocity = %v", r)
	}
	if a := ringo.GetDegreeAssortativity(u); a < -1 || a > 1 {
		t.Fatalf("assortativity = %v", a)
	}
	big := ringo.GenBarabasiAlbert(1500, 3, 2)
	if _, ok := ringo.FitPowerLaw(big, 3); !ok {
		t.Fatal("power law fit failed")
	}
	d := ringo.GenGNM(200, 1200, 3)
	if e := ringo.GetEffectiveDiameter(d, 20, 1); e <= 0 {
		t.Fatalf("effective diameter = %v", e)
	}
	if p := ringo.GetDegreePercentiles(d, []float64{50, 90}); p[1] < p[0] {
		t.Fatalf("percentiles = %v", p)
	}
}

func TestFacadeDiffusion(t *testing.T) {
	g := ringo.NewGraph()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, i+1)
	}
	active := ringo.SimulateCascade(g, []int64{0}, 1.0, 1)
	if len(active) != 11 {
		t.Fatalf("cascade reached %d", len(active))
	}
	u := ringo.AsUndirected(g)
	res := ringo.SimulateSIR(u, []int64{5}, 1.0, 1.0, 1)
	if len(res.Infected) != 11 {
		t.Fatalf("SIR reached %d", len(res.Infected))
	}
}

func TestFacadeSelectExpr(t *testing.T) {
	posts, err := ringo.GenStackOverflowPosts(ringo.DefaultSOConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaExpr, err := ringo.SelectExpr(posts, "Tag = Java and Type = question")
	if err != nil {
		t.Fatal(err)
	}
	jp, _ := ringo.Select(posts, "Tag", ringo.EQ, "Java")
	viaOps, _ := ringo.Select(jp, "Type", ringo.EQ, "question")
	if viaExpr.NumRows() != viaOps.NumRows() {
		t.Fatalf("expression path %d rows, operator path %d", viaExpr.NumRows(), viaOps.NumRows())
	}
}

func TestFacadeCombinatorialAlgorithms(t *testing.T) {
	u := ringo.GenBarabasiAlbert(120, 2, 9)
	comm, q := ringo.Louvain(u, 10)
	if len(comm) != 120 {
		t.Fatal("Louvain labels missing nodes")
	}
	if lp := ringo.GetModularity(u, ringo.GetCommunities(u, 15, 1)); q+1e-9 < lp {
		t.Fatalf("Louvain modularity %v below label propagation %v", q, lp)
	}
	color, k := ringo.GreedyColoring(u)
	if k < 2 {
		t.Fatalf("colors = %d", k)
	}
	u.ForEdges(func(a, b int64) {
		if a != b && color[a] == color[b] {
			t.Fatal("improper coloring")
		}
	})
	m := ringo.MaximalMatching(u)
	if len(m) == 0 {
		t.Fatal("empty matching")
	}
	is := ringo.IndependentSetGreedy(u)
	if len(is) == 0 {
		t.Fatal("empty independent set")
	}
}

func TestFacadeParallelBFS(t *testing.T) {
	g := ringo.GenGNM(500, 3000, 6)
	src := g.Nodes()[0]
	seq := ringo.GetBFS(g, src, ringo.OutEdges)
	parl := ringo.GetBFSParallel(g, src, ringo.OutEdges)
	if len(seq) != len(parl) {
		t.Fatalf("reach %d vs %d", len(seq), len(parl))
	}
	for id, d := range seq {
		if parl[id] != d {
			t.Fatalf("node %d: %d vs %d", id, d, parl[id])
		}
	}
}

// TestFacadeIncremental drives the incremental tier through the façade:
// in-place workspace mutations append deltas and patch cached views
// instead of rebuilding, the free PatchView function reproduces the
// workspace's patched view, and the dynamic algorithm variants agree
// with their cold oracles.
func TestFacadeIncremental(t *testing.T) {
	g := ringo.NewGraph()
	for i := int64(0); i < 30; i++ {
		g.AddEdge(i, (i+1)%30)
	}
	ws := ringo.NewWorkspace()
	ws.Set("G", ringo.Object{Graph: g})
	v0, err := ws.DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	prev := ringo.PageRankViewTol(v0, 0.85, 1e-9)

	// Round 1: mixed mutations, captured as a delta batch.
	for _, m := range []func() (bool, error){
		func() (bool, error) { return ws.AddGraphEdge("G", 3, 17) },
		func() (bool, error) { return ws.DelGraphEdge("G", 5, 6) },
		func() (bool, error) { return ws.AddGraphNode("G", 99) },
	} {
		if ok, err := m(); err != nil || !ok {
			t.Fatalf("mutation failed: ok=%v err=%v", ok, err)
		}
	}
	if n := ws.DeltaEdges(); n != 3 {
		t.Fatalf("DeltaEdges = %d, want 3", n)
	}
	deltas := append([]ringo.Delta(nil), ws.PendingDeltas("G")...)

	v1, err := ws.DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	if p, _ := ws.PatchStats(); p == 0 {
		t.Fatal("small batch over a warm view should patch, not rebuild")
	}

	// The free function over the stale view must land on the same CSR.
	patched := ringo.PatchView(v0, g.HasNode, g.HasEdge, deltas)
	if patched.NumNodes() != v1.NumNodes() || patched.NumEdges() != v1.NumEdges() {
		t.Fatalf("PatchView shape (%d,%d) != workspace view (%d,%d)",
			patched.NumNodes(), patched.NumEdges(), v1.NumNodes(), v1.NumEdges())
	}
	for i := int32(0); i < int32(patched.NumNodes()); i++ {
		if patched.ID(i) != v1.ID(i) || !reflect.DeepEqual(patched.Out(i), v1.Out(i)) {
			t.Fatalf("PatchView adjacency differs at row %d", i)
		}
	}

	// Dynamic PageRank vs the cold oracle on the new view.
	incr := ringo.PageRankIncr(v1, prev, 0.85, 1e-9)
	cold := ringo.PageRankViewTol(v1, 0.85, 1e-9)
	for _, want := range cold {
		got, _ := incr.Get(want.ID)
		if d := math.Abs(got - want.Score); d > 1e-6 {
			t.Fatalf("PageRankIncr[%d] off by %g", want.ID, d)
		}
	}
	// The round-1 batch contains a deletion: incremental WCC must refuse.
	if _, ok := ringo.GetWCCIncr(v1, ringo.GetWCCView(v0), deltas); ok {
		t.Fatal("GetWCCIncr accepted a batch with a deletion")
	}

	// Round 2: additions only — WCC and triangles update incrementally.
	u1, err := ws.UndirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	tri1 := ringo.CountTrianglesView(u1)
	comp1 := ringo.GetWCCView(v1)
	for _, e := range [][2]int64{{0, 2}, {99, 3}} {
		if ok, err := ws.AddGraphEdge("G", e[0], e[1]); err != nil || !ok {
			t.Fatalf("AddGraphEdge(%v): ok=%v err=%v", e, ok, err)
		}
	}
	// The log keeps the whole history since its base version, so the
	// batch separating v1 from the current state is the suffix after
	// round 1's deltas.
	deltas2 := append([]ringo.Delta(nil), ws.PendingDeltas("G")[len(deltas):]...)
	v2, err := ws.DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	u2, err := ws.UndirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	wcc2, ok := ringo.GetWCCIncr(v2, comp1, deltas2)
	if !ok {
		t.Fatal("GetWCCIncr refused an addition-only batch")
	}
	if !reflect.DeepEqual(wcc2, ringo.GetWCCView(v2)) {
		t.Fatal("GetWCCIncr differs from the cold recompute")
	}
	// Edge 0-2 closes the undirected triangle 0-1-2.
	got := ringo.CountTrianglesIncr(u1, u2, tri1, deltas2)
	if want := ringo.CountTrianglesView(u2); got != want || got != tri1+1 {
		t.Fatalf("CountTrianglesIncr = %d, want %d (was %d)", got, want, tri1)
	}
}
