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

// naiveGraph is the per-edge-insert baseline the sort-first algorithm
// replaces: one hash lookup plus one sorted insertion per row and
// direction, the way a hash-of-nodes graph grows an edge at a time. It is
// the reference the oracle tests compare against and the other side of
// the conversion ablation below.
type naiveGraph struct {
	out, in map[int64][]int64 // every node is a key of both
	edges   int64
}

func naiveToDirected(t *table.Table, srcCol, dstCol string) (*naiveGraph, error) {
	srcs, dsts, err := edgeColumns(t, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	g := &naiveGraph{out: map[int64][]int64{}, in: map[int64][]int64{}}
	insert := func(adj map[int64][]int64, at, v int64) bool {
		pos, found := slices.BinarySearch(adj[at], v)
		if !found {
			adj[at] = slices.Insert(adj[at], pos, v)
		}
		return !found
	}
	for i := range srcs {
		s, d := srcs[i], dsts[i]
		for _, id := range []int64{s, d} {
			if _, ok := g.out[id]; !ok {
				g.out[id], g.in[id] = nil, nil
			}
		}
		if insert(g.out, s, d) {
			insert(g.in, d, s)
			g.edges++
		}
	}
	return g, nil
}

// sameAsNaive reports whether view v holds exactly the naive graph g.
func sameAsNaive(v *graph.View, g *naiveGraph) error {
	if v.NumNodes() != len(g.out) || v.NumEdges() != g.edges {
		return fmt.Errorf("view (%d,%d) != naive (%d,%d)", v.NumNodes(), v.NumEdges(), len(g.out), g.edges)
	}
	for u, id := range v.IDs() {
		for _, dir := range []struct {
			got  []int32
			want []int64
		}{{v.Out(int32(u)), g.out[id]}, {v.In(int32(u)), g.in[id]}} {
			if len(dir.got) != len(dir.want) {
				return fmt.Errorf("node %d: %d neighbours, naive %d", id, len(dir.got), len(dir.want))
			}
			for j, x := range dir.got {
				if v.ID(x) != dir.want[j] {
					return fmt.Errorf("node %d: neighbour %d is %d, naive %d", id, j, v.ID(x), dir.want[j])
				}
			}
		}
	}
	return nil
}

// toDirected runs ToDirected and returns the graph as its view, after
// holding it to ToView of the same columns: BuildView translates the
// thawed out- and in-vectors as stored, while ToView sorts, deduplicates
// and transposes, so the two agree only when every vector is sorted and
// duplicate-free, the in-vectors mirror the out-vectors and the counts are
// right.
func toDirected(tbl *table.Table, srcCol, dstCol string) (*graph.View, error) {
	g, err := ToDirected(tbl, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	want, err := ToView(tbl, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	v := graph.BuildView(g)
	ids, outOff, inOff, out, in := v.ViewParts()
	wids, wOutOff, wInOff, wOut, wIn := want.ViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(outOff, wOutOff) || !slices.Equal(inOff, wInOff) ||
		!slices.Equal(out, wOut) || !slices.Equal(in, wIn) ||
		g.NumNodes() != v.NumNodes() || g.NumEdges() != v.NumEdges() {
		return nil, fmt.Errorf("graph of %d nodes, %d edges differs from the view of its columns", g.NumNodes(), g.NumEdges())
	}
	return v, nil
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
	g, err := toDirected(tbl, "src", "dst")
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
}

func TestToDirectedDeduplicatesRows(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2}, [2]int64{1, 2}, [2]int64{1, 2})
	g, err := toDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("edges = %d, want 1 after dedup", g.NumEdges())
	}
}

func TestToDirectedSelfLoopsAndIsolatedSources(t *testing.T) {
	tbl := edgeTable(t, [2]int64{5, 5}, [2]int64{7, 5})
	g, err := toDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if !g.HasEdge(5, 5) || !g.HasEdge(7, 5) {
		t.Fatal("edges missing")
	}
	if g.NumNodes() != 2 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
}

func TestToDirectedEmptyTable(t *testing.T) {
	tbl, err := table.FromIntColumns([]string{"src", "dst"}, [][]int64{{}, {}})
	if err != nil {
		t.Fatal(err)
	}
	g, err := toDirected(tbl, "src", "dst")
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
	back, err := ToEdgeTable(g, "a", "b")
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
	g, err := toDirected(tbl, "a", "b")
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
	fast, err := toDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsNaive(fast, naive); err != nil {
		t.Fatal(err)
	}
}

func TestToEdgeTableRoundTrip(t *testing.T) {
	tbl := edgeTable(t, [2]int64{1, 2}, [2]int64{1, 3}, [2]int64{2, 3}, [2]int64{3, 1})
	g, err := toDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	back, err := ToEdgeTable(g, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if int64(back.NumRows()) != g.NumEdges() {
		t.Fatalf("edge table rows = %d, graph edges = %d", back.NumRows(), g.NumEdges())
	}
	g2, err := toDirected(back, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(g2.IDs(), g.IDs()) || g2.NumEdges() != g.NumEdges() {
		t.Fatal("round trip changed the graph")
	}
	for u := int32(0); int(u) < g.NumNodes(); u++ {
		if !slices.Equal(g.Out(u), g2.Out(u)) {
			t.Fatalf("round trip changed the out-edges of %d", g.ID(u))
		}
	}
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
		g, err := toDirected(tbl, "s", "d")
		if err != nil {
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
		g1, err := toDirected(tbl, "s", "d")
		if err != nil {
			return false
		}
		t2, err := ToEdgeTable(g1, "s", "d")
		if err != nil {
			return false
		}
		g2, err := toDirected(t2, "s", "d")
		if err != nil {
			return false
		}
		_, off1, _, out1, _ := g1.ViewParts()
		_, off2, _, out2, _ := g2.ViewParts()
		return slices.Equal(g1.IDs(), g2.IDs()) && slices.Equal(off1, off2) && slices.Equal(out1, out2)
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
	g, err := toDirected(tbl, "s", "d")
	if err != nil {
		t.Fatal(err)
	}
	naive, err := naiveToDirected(tbl, "s", "d")
	if err != nil {
		t.Fatal(err)
	}
	if err := sameAsNaive(g, naive); err != nil {
		t.Fatal(err)
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
