package ringo_test

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"ringo"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// writeEdgeListFile writes g to path as a tab-separated edge list, each
// zero-degree node as a "# node <id>" line so the node set survives.
func writeEdgeListFile(t *testing.T, path string, g *graph.Directed) {
	t.Helper()
	var sb strings.Builder
	for _, src := range g.Nodes() {
		if g.OutDeg(src) == 0 && g.InDeg(src) == 0 {
			fmt.Fprintf(&sb, "# node %d\n", src)
		}
		for _, dst := range g.OutNeighbors(src) {
			fmt.Fprintf(&sb, "%d\t%d\n", src, dst)
		}
	}
	if err := os.WriteFile(path, []byte(sb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestStackOverflowExpertDemo runs the paper's §4.1 demo end to end on the
// synthetic posts table: load posts, select the Java ones, split questions
// from answers, join questions with their accepted answers, build the
// asker→answerer graph, run PageRank, and produce the experts table.
func TestStackOverflowExpertDemo(t *testing.T) {
	posts, err := ringo.GenStackOverflowPosts(ringo.DefaultSOConfig())
	if err != nil {
		t.Fatal(err)
	}
	jp, err := ringo.Select(posts, "Tag", ringo.EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	q, err := ringo.Select(jp, "Type", ringo.EQ, "question")
	if err != nil {
		t.Fatal(err)
	}
	a, err := ringo.Select(jp, "Type", ringo.EQ, "answer")
	if err != nil {
		t.Fatal(err)
	}
	qa, err := ringo.Join(q, a, "AcceptedId", "PostId")
	if err != nil {
		t.Fatal(err)
	}
	if qa.NumRows() == 0 {
		t.Fatal("no accepted Java answers; demo degenerate")
	}
	// Joining posts with posts collides every column: UserId-1 is the
	// asker, UserId-2 the accepted answerer.
	g, err := ringo.ToGraph(qa, "UserId-1", "UserId-2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty expert graph")
	}
	pr := ringo.GetPageRank(g)
	experts, err := ringo.TableFromMap(pr, "User", "Scr")
	if err != nil {
		t.Fatal(err)
	}
	if experts.NumRows() != g.NumNodes() {
		t.Fatalf("experts table %d rows for %d nodes", experts.NumRows(), g.NumNodes())
	}
	// Scores descending; the top expert should have answered at least one
	// accepted Java answer (i.e. have an in-edge).
	scr, err := experts.FloatCol("Scr")
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(scr); i++ {
		if scr[i-1] < scr[i] {
			t.Fatal("experts table not sorted by score")
		}
	}
	users, _ := experts.IntCol("User")
	if g.InDeg(users[0]) == 0 {
		t.Fatalf("top expert %d has no accepted answers", users[0])
	}
}

// TestFigure2Workflow exercises the full analytics loop of Figure 2:
// tables -> graph construction -> graph analytics -> results back into
// tables.
func TestFigure2Workflow(t *testing.T) {
	edges := ringo.GenRMATTable(10, 4000, 5)
	g, err := ringo.ToGraph(edges, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	// Analytics.
	pr := ringo.GetPageRank(g)
	wcc := ringo.GetWCC(g)
	tri := ringo.CountTriangles(ringo.AsUndirected(g))
	if tri < 0 {
		t.Fatal("negative triangles")
	}
	// Results back to tables and joined with node table.
	prTable, err := ringo.TableFromMap(pr, "node", "rank")
	if err != nil {
		t.Fatal(err)
	}
	compTable, err := ringo.TableFromIntMap(wcc.Label(), "node", "comp")
	if err != nil {
		t.Fatal(err)
	}
	joined, err := ringo.Join(prTable, compTable, "node", "node")
	if err != nil {
		t.Fatal(err)
	}
	if joined.NumRows() != g.NumNodes() {
		t.Fatalf("joined analytics table %d rows for %d nodes", joined.NumRows(), g.NumNodes())
	}
	// Aggregate rank mass per component — table analytics on graph results.
	byComp, err := joined.Aggregate([]string{"comp"}, ringo.Sum, "rank", "mass")
	if err != nil {
		t.Fatal(err)
	}
	if byComp.NumRows() != wcc.Count {
		t.Fatalf("aggregated %d components, want %d", byComp.NumRows(), wcc.Count)
	}
	mass, _ := byComp.FloatCol("mass")
	var total float64
	for _, m := range mass {
		total += m
	}
	if total < 0.999 || total > 1.001 {
		t.Fatalf("total rank mass = %v", total)
	}
}

func TestRoundTripThroughEdgeListFile(t *testing.T) {
	g := gen.GNM(50, 200, 9)
	path := t.TempDir() + "/g.tsv"
	writeEdgeListFile(t, path, g)
	back, err := graph.LoadFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatal("edge list round trip mismatch")
	}
	// The parallel loader must read the same file into the same graph.
	parG, err := ringo.LoadEdgeListParallel(path)
	if err != nil {
		t.Fatal(err)
	}
	if parG.NumNodes() != g.NumNodes() || parG.NumEdges() != g.NumEdges() {
		t.Fatal("parallel edge list load mismatch")
	}
}

func TestFacadeBulkBuild(t *testing.T) {
	srcs := []int64{1, 2, 3, 1, 4}
	dsts := []int64{2, 3, 1, 2, 4}
	g, err := graph.BuildDirectedCols(srcs, dsts)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 4 || g.NumEdges() != 4 { // duplicate collapsed, self-loop kept
		t.Fatalf("BuildDirectedCols: %d nodes, %d edges", g.NumNodes(), g.NumEdges())
	}
	u := ringo.AsUndirected(g)
	if u.NumNodes() != 4 || u.NumEdges() != 4 {
		t.Fatalf("AsUndirected: %d nodes, %d edges", u.NumNodes(), u.NumEdges())
	}
}

func TestEdgeListRoundTripKeepsIsolatedNodes(t *testing.T) {
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddNode(99)
	path := t.TempDir() + "/iso.tsv"
	writeEdgeListFile(t, path, g)
	back, err := ringo.LoadEdgeListParallel(path)
	if err != nil {
		t.Fatal(err)
	}
	if !back.HasNode(99) || back.NumNodes() != 3 {
		t.Fatal("text round trip lost the isolated node")
	}
	v, err := graph.LoadFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := v.Index(99); !ok || v.NumNodes() != 3 {
		t.Fatal("text round trip through LoadFileAuto lost the isolated node")
	}
}

func TestNaiveToGraphMatches(t *testing.T) {
	tbl := ringo.GenRMATTable(9, 2000, 8)
	fast, err := ringo.ToGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	// The per-edge-insert baseline: one AddEdge per row.
	naive := graph.NewDirected()
	src, _ := tbl.IntCol("src")
	dst, _ := tbl.IntCol("dst")
	for i := range src {
		naive.AddEdge(src[i], dst[i])
	}
	if fast.NumNodes() != naive.NumNodes() || fast.NumEdges() != naive.NumEdges() {
		t.Fatal("conversion variants disagree")
	}
}

func TestTableVerbsSurface(t *testing.T) {
	tbl, err := ringo.NewTable(ringo.Schema{
		{Name: "g", Type: ringo.IntCol},
		{Name: "t", Type: ringo.FloatCol},
		{Name: "who", Type: ringo.StringCol},
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if err := tbl.AppendRow(i%2, float64(i), "u"); err != nil {
			t.Fatal(err)
		}
	}
	nk, err := ringo.NextK(tbl, "g", "t", 1)
	if err != nil {
		t.Fatal(err)
	}
	if nk.NumRows() != 8 {
		t.Fatalf("NextK rows = %d", nk.NumRows())
	}
	sj, err := ringo.SimJoinTables(tbl, tbl, []string{"t"}, []string{"t"}, 0.5, ringo.L2)
	if err != nil {
		t.Fatal(err)
	}
	if sj.NumRows() != 10 { // only exact self-matches within 0.5
		t.Fatalf("SimJoin rows = %d", sj.NumRows())
	}
}
