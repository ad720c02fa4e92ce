package conv

import (
	"fmt"
	"slices"
	"sync"
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/table"
)

// naiveToDirected is the per-edge-insert baseline the sort-first algorithm
// replaces: one AddEdge per row, paying a hash lookup plus a sorted
// insertion per edge. It is the reference the oracle tests compare against
// and the other side of the conversion ablation below.
func naiveToDirected(t *table.Table, srcCol, dstCol string) (*graph.Directed, error) {
	srcs, dsts, err := edgeColumns(t, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	g := graph.NewDirected()
	for i := range srcs {
		g.AddEdge(srcs[i], dsts[i])
	}
	return g, nil
}

func edgeTable(t *testing.T, edges ...[2]int64) *table.Table {
	t.Helper()
	src := make([]int64, len(edges))
	dst := make([]int64, len(edges))
	for i, e := range edges {
		src[i], dst[i] = e[0], e[1]
	}
	tbl, err := table.FromIntColumns([]string{"src", "dst"}, [][]int64{src, dst})
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func TestToDirectedBasic(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 3}, [2]int64{3, 1})
	g, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 4 {
		t.Fatalf("dims = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	for _, e := range [][2]int64{{1, 2}, {1, 3}, {2, 3}, {3, 1}} {
		if !g.HasEdge(e[0], e[1]) {
			t.Fatalf("missing edge %v", e)
		}
	}
	if g.HasEdge(2, 1) {
		t.Fatal("reverse edge invented")
	}
	if err := validDirected(g); err != nil {
		t.Fatal(err)
	}
}

func TestToDirectedDeduplicatesRows(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2}, [2]int64{1, 2}, [2]int64{1, 2})
	g, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestToDirectedSelfLoopsAndIsolatedSources(t *testing.T) {
	tbl := edgeTable(t, [2]int64{5, 5}, [2]int64{7, 5})
	g, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(5, 5) || !g.HasEdge(7, 5) {
		t.Fatal("edges missing")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	if err := validDirected(g); err != nil {
		t.Fatal(err)
	}
}

func TestToDirectedEmptyTable(t *testing.T) {
	tbl, err := table.FromIntColumns([]string{"src", "dst"}, [][]int64{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatalf("empty table produced (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	v, err := ToView(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if graph.ProjectUView(v).NumNodes() != 0 {
		t.Fatal("empty undirected conversion produced nodes")
	}
	back, err := ToEdgeTable(graph.BuildView(g), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != 0 {
		t.Fatal("empty graph export produced rows")
	}
}

func TestToDirectedErrors(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2})
	if _, err := ToDirected(tbl, "nope", "dst"); err == nil {
		t.Fatal("missing source column accepted")
	}
	if _, err := ToDirected(tbl, "src", "nope"); err == nil {
		t.Fatal("missing destination column accepted")
	}
	ft := table.MustNew(table.Schema{{Name: "f", Type: table.Float}, {Name: "d", Type: table.Int}})
	if _, err := ToDirected(ft, "f", "d"); err == nil {
		t.Fatal("float source column accepted")
	}
}

func TestToDirectedStringColumns(t *testing.T) {
	tbl := table.MustNew(table.Schema{{Name: "a", Type: table.String}, {Name: "b", Type: table.String}})
	for _, e := range [][2]string{{"x", "y"}, {"y", "z"}, {"x", "y"}} {
		if err := tbl.AppendRow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := ToDirected(tbl, "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 3 || g.NumEdges() != 2 {
		t.Fatalf("string graph dims = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
}

func TestNaiveMatchesSortFirst(t *testing.T) {
	tbl := edgeTable(t,
		[2]int64{1, 2}, [2]int64{3, 4}, [2]int64{1, 2}, [2]int64{4, 1}, [2]int64{2, 2})
	fast, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if fast.NumNodes() != naive.NumNodes() || fast.NumEdges() != naive.NumEdges() {
		t.Fatalf("fast (%d,%d) != naive (%d,%d)",
			fast.NumNodes(), fast.NumEdges(), naive.NumNodes(), naive.NumEdges())
	}
	naive.ForEdges(func(src, dst int64) {
		if !fast.HasEdge(src, dst) {
			t.Fatalf("sort-first lost edge %d->%d", src, dst)
		}
	})
}

func TestToEdgeTableRoundTrip(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 3}, [2]int64{3, 1})
	g, err := ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ToEdgeTable(graph.BuildView(g), "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if int64(back.NumRows()) != g.NumEdges() {
		t.Fatalf("edge table rows = %d, graph edges = %d", back.NumRows(), g.NumEdges())
	}
	g2, err := ToDirected(back, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	g.ForEdges(func(src, dst int64) {
		if !g2.HasEdge(src, dst) {
			t.Fatalf("round trip lost %d->%d", src, dst)
		}
	})
}

// Property: sort-first conversion equals a reference map-based edge-set
// construction for arbitrary edge tables.
func TestToDirectedMatchesReferenceProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		src := make([]int64, len(edges))
		dst := make([]int64, len(edges))
		ref := map[[2]int64]bool{}
		nodes := map[int64]bool{}
		for i, e := range edges {
			s, d := int64(e[0]%32), int64(e[1]%32)
			src[i], dst[i] = s, d
			ref[[2]int64{s, d}] = true
			nodes[s], nodes[d] = true, true
		}
		tbl, err := table.FromIntColumns([]string{"s", "d"}, [][]int64{src, dst})
		if err != nil {
			return false
		}
		g, err := ToDirected(tbl, "s", "d")
		if err != nil {
			return false
		}
		if validDirected(g) != nil {
			return false
		}
		if g.NumNodes() != len(nodes) || g.NumEdges() != int64(len(ref)) {
			return false
		}
		for e := range ref {
			if !g.HasEdge(e[0], e[1]) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

// Property: table -> graph -> table -> graph is a fixed point.
func TestConversionFixedPointProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		src := make([]int64, len(edges))
		dst := make([]int64, len(edges))
		for i, e := range edges {
			src[i], dst[i] = int64(e[0]%16), int64(e[1]%16)
		}
		tbl, err := table.FromIntColumns([]string{"s", "d"}, [][]int64{src, dst})
		if err != nil {
			return false
		}
		g1, err := ToDirected(tbl, "s", "d")
		if err != nil {
			return false
		}
		t2, err := ToEdgeTable(graph.BuildView(g1), "s", "d")
		if err != nil {
			return false
		}
		g2, err := ToDirected(t2, "s", "d")
		if err != nil {
			return false
		}
		if g1.NumNodes() != g2.NumNodes() || g1.NumEdges() != g2.NumEdges() {
			return false
		}
		ok := true
		g1.ForEdges(func(s, d int64) {
			if !g2.HasEdge(s, d) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func TestToDirectedLargeParallel(t *testing.T) {
	// Large enough to engage parallel sorting and parallel vector fill.
	const n = 30_000
	src := make([]int64, n)
	dst := make([]int64, n)
	x := uint64(1)
	for i := 0; i < n; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		src[i] = int64(x % 2000)
		dst[i] = int64((x >> 20) % 2000)
	}
	tbl, err := table.FromIntColumns([]string{"s", "d"}, [][]int64{src, dst})
	if err != nil {
		t.Fatal(err)
	}
	g, err := ToDirected(tbl, "s", "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := validDirected(g); err != nil {
		t.Fatal(err)
	}
	naive, err := naiveToDirected(tbl, "s", "d")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != naive.NumEdges() || g.NumNodes() != naive.NumNodes() {
		t.Fatalf("fast (%d,%d) != naive (%d,%d)",
			g.NumNodes(), g.NumEdges(), naive.NumNodes(), naive.NumEdges())
	}
}

// The conversion ablation (§2.4): sort-first against per-edge insertion on
// the LiveJournal stand-in at 1/500 scale (138K edge rows), the table the
// root package's Table 5 benchmarks convert.
var ablationTable = sync.OnceValue(func() *table.Table { return gen.RMATTable(13, 138_000, 101) })

func BenchmarkAblationConversionSortFirst(b *testing.B) {
	t := ablationTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ToDirected(t, "src", "dst"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAblationConversionNaive(b *testing.B) {
	t := ablationTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := naiveToDirected(t, "src", "dst"); err != nil {
			b.Fatal(err)
		}
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
