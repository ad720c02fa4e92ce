package ringo_test

import (
	"fmt"
	"slices"
	"testing"
	"testing/quick"

	"ringo"
	"ringo/internal/algo"
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
		if err := validDirected(g, hi, "src", "dst"); err != nil {
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
			for _, c := range algo.NodeTrianglesView(u) {
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

// TestAnalyticsAgreeAcrossRepresentations checks that the per-edge model
// of the rows and the CSR graph ToGraph builds describe the same topology:
// node for node the same degrees and the same out-neighbors.
func TestAnalyticsAgreeAcrossRepresentations(t *testing.T) {
	tbl := ringo.GenRMATTable(11, 6000, 21)
	csr, err := ringo.ToGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	g := perEdgeGraph(tbl, "src", "dst", false)
	if csr.NumEdges() != g.edges() || csr.NumNodes() != len(g.out) {
		t.Fatal("CSR dims differ")
	}
	for id, out := range g.out {
		i, ok := csr.Index(id)
		if !ok {
			t.Fatalf("node %d missing from CSR", id)
		}
		if csr.OutDeg(i) != len(out) || csr.InDeg(i) != len(g.in[id]) {
			t.Fatalf("node %d degree mismatch", id)
		}
		for j, x := range csr.Out(i) {
			if csr.ID(x) != out[j] {
				t.Fatalf("node %d: CSR out-neighbor %d is %d, the model's %d", id, j, csr.ID(x), out[j])
			}
		}
	}
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
		if len(top) != 1 {
			t.Fatalf("tag %s: no top expert", tag)
		}
		if u, _ := g.Index(top[0].ID); g.InDeg(u) == 0 {
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
	if err := validUndirected(g, co, "UserId-1", "UserId-2"); err != nil {
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

// perEdgeModel is the per-edge model of an edge table's rows: every
// endpoint is a node and every row one arc (with both, its reverse too),
// duplicate arcs collapsing. out and in map each node to its ascending
// distinct out- and in-neighbors.
type perEdgeModel struct{ out, in map[int64][]int64 }

func perEdgeGraph(tbl *ringo.Table, srcCol, dstCol string, both bool) perEdgeModel {
	srcs, _ := tbl.IntCol(srcCol)
	dsts, _ := tbl.IntCol(dstCol)
	m := perEdgeModel{map[int64][]int64{}, map[int64][]int64{}}
	add := func(s, d int64) {
		m.out[s], m.in[d] = append(m.out[s], d), append(m.in[d], s)
		m.out[d], m.in[s] = m.out[d], m.in[s] // both endpoints are nodes
	}
	for i := range srcs {
		add(srcs[i], dsts[i])
		if both {
			add(dsts[i], srcs[i])
		}
	}
	for _, adj := range []map[int64][]int64{m.out, m.in} {
		for id, nbrs := range adj {
			slices.Sort(nbrs)
			adj[id] = slices.Compact(nbrs)
		}
	}
	return m
}

// edges counts the model's arcs.
func (m perEdgeModel) edges() int64 {
	var n int64
	for _, nbrs := range m.out {
		n += int64(len(nbrs))
	}
	return n
}

// sameAdjacency reports whether the CSR arrays ids, off, arena hold
// exactly adj: its node ids in ascending order, and at each node its
// neighbor ids in ascending order.
func sameAdjacency(ids, off []int64, arena []int32, adj map[int64][]int64) bool {
	if len(ids) != len(adj) || !slices.IsSorted(ids) {
		return false
	}
	for u, id := range ids {
		nbrs, ok := adj[id]
		if !ok || off[u+1]-off[u] != int64(len(nbrs)) {
			return false
		}
		for j, x := range arena[off[u]:off[u+1]] {
			if ids[x] != nbrs[j] {
				return false
			}
		}
	}
	return true
}

// validDirected holds the CSR graph ToGraph built from tbl, array for
// array, to the per-edge model of the same rows.
func validDirected(v *ringo.Graph, tbl *ringo.Table, srcCol, dstCol string) error {
	m := perEdgeGraph(tbl, srcCol, dstCol, false)
	ids, outOff, inOff, out, in := v.ViewParts()
	if !sameAdjacency(ids, outOff, out, m.out) || !sameAdjacency(ids, inOff, in, m.in) {
		return fmt.Errorf("graph of %d nodes, %d edges differs from the per-edge graph of its rows", v.NumNodes(), v.NumEdges())
	}
	return nil
}

// validUndirected is validDirected for ToUGraph: the out-lists of the
// per-edge model with both arcs of every row are the undirected adjacency.
func validUndirected(u *ringo.UGraph, tbl *ringo.Table, srcCol, dstCol string) error {
	ids, off, arena := u.UViewParts()
	if !sameAdjacency(ids, off, arena, perEdgeGraph(tbl, srcCol, dstCol, true).out) {
		return fmt.Errorf("graph of %d nodes, %d edges differs from the per-edge graph of its rows", u.NumNodes(), u.NumEdges())
	}
	return nil
}
