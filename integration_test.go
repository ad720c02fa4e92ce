package ringo_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ringo"
	"ringo/internal/algo"
	"ringo/internal/graph"
)

// Integration tests exercising long operation chains across the table
// engine, the conversions and the algorithm library together — the
// iterative explore-build-analyze loop of Figure 2, stressed with random
// inputs.

// TestWorkflowInvariantsProperty runs a randomized end-to-end workflow and
// checks cross-module invariants on the way.
func TestWorkflowInvariantsProperty(t *testing.T) {
	f := func(rawEdges [][2]int16, cut int16) bool {
		if len(rawEdges) == 0 {
			return true
		}
		// 1. Edge log as a table.
		tbl, err := ringo.NewTable(ringo.Schema{
			{Name: "src", Type: ringo.IntCol},
			{Name: "dst", Type: ringo.IntCol},
		})
		if err != nil {
			return false
		}
		for _, e := range rawEdges {
			if err := tbl.AppendRow(int64(e[0]%64), int64(e[1]%64)); err != nil {
				return false
			}
		}
		// 2. Relational cleaning: drop edges below a cut, both ways.
		v := int64(cut % 64)
		hi, err := tbl.SelectExpr("src >= " + itoa(v) + " and dst >= " + itoa(v))
		if err != nil {
			return false
		}
		lo := tbl.SelectFunc(func(row int) bool {
			s, _ := tbl.IntCol("src")
			d, _ := tbl.IntCol("dst")
			return !(s[row] >= v && d[row] >= v)
		})
		if hi.NumRows()+lo.NumRows() != tbl.NumRows() {
			return false // selection must partition the table
		}
		// 3. Graph construction on the kept slice.
		g, err := ringo.ToGraph(hi, "src", "dst")
		if err != nil {
			return false
		}
		if err := validDirected(g); err != nil {
			return false
		}
		// 4. Analytics invariants.
		if g.NumNodes() > 0 {
			pr := ringo.GetPageRank(g)
			var sum float64
			for _, p := range pr {
				sum += p.Score
			}
			if sum < 0.999 || sum > 1.001 {
				return false
			}
			wcc := ringo.GetWCC(g)
			scc := ringo.GetSCC(g)
			if wcc.Count > scc.Count || scc.Count > g.NumNodes() {
				return false
			}
			u := ringo.AsUndirected(g)
			// Each triangle is counted once per corner by the per-node
			// kernel and once in all by the total.
			var corners int64
			for _, c := range algo.NodeTrianglesView(graph.BuildUView(u)) {
				corners += c
			}
			if 3*ringo.CountTriangles(u) != corners {
				return false
			}
		}
		// 5. Round trip back to a table keeps the edge multiset.
		back, err := ringo.ToTable(g, "src", "dst")
		if err != nil {
			return false
		}
		g2, err := ringo.ToGraph(back, "src", "dst")
		if err != nil {
			return false
		}
		return g2.NumEdges() == g.NumEdges() && g2.NumNodes() == g.NumNodes()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}

// TestAnalyticsAgreeAcrossRepresentations checks that the dynamic graph and
// its CSR snapshot describe the same topology under a battery of measures.
func TestAnalyticsAgreeAcrossRepresentations(t *testing.T) {
	tbl := ringo.GenRMATTable(11, 6000, 21)
	g, err := ringo.ToGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	csr := graph.BuildView(g)
	if csr.NumEdges() != g.NumEdges() || csr.NumNodes() != g.NumNodes() {
		t.Fatal("CSR dims differ")
	}
	// Degree agreement per node.
	g.ForNodes(func(id int64) {
		i, ok := csr.Index(id)
		if !ok {
			t.Fatalf("node %d missing from CSR", id)
		}
		if csr.OutDeg(i) != g.OutDeg(id) || csr.InDeg(i) != g.InDeg(id) {
			t.Fatalf("node %d degree mismatch", id)
		}
	})
	// Edge agreement: the same sorted out-neighbors per node.
	g.ForNodes(func(id int64) {
		i, _ := csr.Index(id)
		for j, x := range csr.Out(i) {
			if csr.ID(x) != g.OutNeighbors(id)[j] {
				t.Fatalf("node %d: CSR out-neighbor %d is %d, graph has %d", id, j, csr.ID(x), g.OutNeighbors(id)[j])
			}
		}
	})
}

// TestStackOverflowMultiTagSession reproduces the demo's "vary the
// parameters" step: experts for several tags from one loaded posts table,
// with per-tag graphs built independently.
func TestStackOverflowMultiTagSession(t *testing.T) {
	cfg := ringo.DefaultSOConfig()
	cfg.Questions = 4000
	posts, err := ringo.GenStackOverflowPosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	for _, tag := range []string{"Java", "Python", "Go"} {
		qa, err := posts.SelectExpr("Tag = " + tag + " and Type = question")
		if err != nil {
			t.Fatal(err)
		}
		ans, err := posts.SelectExpr("Tag = " + tag + " and Type = answer")
		if err != nil {
			t.Fatal(err)
		}
		pairs, err := ringo.Join(qa, ans, "AcceptedId", "PostId")
		if err != nil {
			t.Fatal(err)
		}
		if pairs.NumRows() == 0 {
			t.Fatalf("tag %s: no accepted answers", tag)
		}
		g, err := ringo.ToGraph(pairs, "UserId-1", "UserId-2")
		if err != nil {
			t.Fatal(err)
		}
		pr := ringo.GetPageRank(g)
		top := ringo.TopK(pr, 1)
		if len(top) != 1 || g.InDeg(top[0].ID) == 0 {
			t.Fatalf("tag %s: degenerate top expert", tag)
		}
	}
}

// TestCoAnswerGraphConstruction checks the demo's alternative graph: users
// who answered the same question, built by self-joining answers on the
// question id.
func TestCoAnswerGraphConstruction(t *testing.T) {
	cfg := ringo.DefaultSOConfig()
	cfg.Questions = 1500
	posts, err := ringo.GenStackOverflowPosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ans, err := posts.SelectExpr("Type = answer")
	if err != nil {
		t.Fatal(err)
	}
	co, err := ringo.Join(ans, ans, "ParentId", "ParentId")
	if err != nil {
		t.Fatal(err)
	}
	// Self-join row count: sum over questions of (answers per question)^2.
	counts, err := ans.Aggregate([]string{"ParentId"}, ringo.Count, "", "n")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := counts.IntCol("n")
	want := 0
	for _, c := range n {
		want += int(c * c)
	}
	if co.NumRows() != want {
		t.Fatalf("co-answer rows = %d, want %d", co.NumRows(), want)
	}
	g, err := ringo.ToUGraph(co, "UserId-1", "UserId-2")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 {
		t.Fatal("empty co-answer graph")
	}
	if err := validUndirected(g); err != nil {
		t.Fatal(err)
	}
}

// TestLeftJoinEnrichment exercises the outer-join path in a workflow:
// attach PageRank scores to every user row, including users with no score.
func TestLeftJoinEnrichment(t *testing.T) {
	posts, err := ringo.GenStackOverflowPosts(ringo.DefaultSOConfig())
	if err != nil {
		t.Fatal(err)
	}
	users, err := posts.Unique("UserId")
	if err != nil {
		t.Fatal(err)
	}
	qa, _ := posts.SelectExpr("Type = question")
	ans, _ := posts.SelectExpr("Type = answer")
	pairs, err := ringo.Join(qa, ans, "AcceptedId", "PostId")
	if err != nil {
		t.Fatal(err)
	}
	g, err := ringo.ToGraph(pairs, "UserId-1", "UserId-2")
	if err != nil {
		t.Fatal(err)
	}
	scores, err := ringo.TableFromMap(ringo.GetPageRank(g), "UserId", "Rank")
	if err != nil {
		t.Fatal(err)
	}
	enriched, err := users.LeftJoin(scores, "UserId", "UserId", -1)
	if err != nil {
		t.Fatal(err)
	}
	if enriched.NumRows() < users.NumRows() {
		t.Fatalf("left join dropped rows: %d < %d", enriched.NumRows(), users.NumRows())
	}
}

// validDirected holds g's adjacency vectors to the graph its own edge list
// builds: BuildView translates the out- and in-vectors as stored, while
// BuildViewCols sorts, deduplicates and transposes the out-edges, so the
// two views agree only when every vector is sorted and duplicate-free, the
// in-vectors mirror the out-vectors and the edge count is right.
func validDirected(g *graph.Directed) error {
	var srcs, dsts []int64
	g.ForEdges(func(s, d int64) {
		srcs, dsts = append(srcs, s), append(dsts, d)
	})
	want, err := graph.BuildViewCols(srcs, dsts, g.Nodes())
	if err != nil {
		return err
	}
	ids, outOff, inOff, out, in := graph.BuildView(g).ViewParts()
	wids, wOutOff, wInOff, wOut, wIn := want.ViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(outOff, wOutOff) || !slices.Equal(inOff, wInOff) ||
		!slices.Equal(out, wOut) || !slices.Equal(in, wIn) || g.NumEdges() != int64(len(srcs)) {
		return fmt.Errorf("graph of %d nodes, %d edges differs from the graph its edges build", g.NumNodes(), g.NumEdges())
	}
	return nil
}

// validUndirected is validDirected for an undirected graph: its vectors
// must equal the projection of the graph its own edge list builds, which
// holds only when every vector is sorted and duplicate-free, every edge
// sits in both endpoints' vectors and the edge count is right.
func validUndirected(g *graph.Undirected) error {
	var srcs, dsts []int64
	g.ForEdges(func(a, b int64) {
		srcs, dsts = append(srcs, a), append(dsts, b)
	})
	dv, err := graph.BuildViewCols(srcs, dsts, g.Nodes())
	if err != nil {
		return err
	}
	ids, off, arena := graph.BuildUView(g).UViewParts()
	wids, woff, warena := graph.ProjectUView(dv).UViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(off, woff) || !slices.Equal(arena, warena) || g.NumEdges() != int64(len(srcs)) {
		return fmt.Errorf("graph of %d nodes, %d edges differs from the graph its edges build", g.NumNodes(), g.NumEdges())
	}
	return nil
}
