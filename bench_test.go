// Benchmarks regenerating each table of the Ringo paper's evaluation (§3)
// plus ablations for the repository's design choices. One benchmark
// (or group) per table; cmd/ringo-bench prints the same results in the
// paper's row format. Dataset scales are laptop-sized; the notes on each
// cmd/ringo-bench report map the measured shapes to the paper's numbers.
package ringo_test

import (
	"bytes"
	"sync"
	"testing"

	"ringo"
	"ringo/internal/algo"
	"ringo/internal/catalog"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/graph"
	"ringo/internal/table"
)

// Benchmark dataset: the LiveJournal stand-in at 1/500 scale (138K edge
// rows) and the Twitter stand-in at 1/10000 scale (150K edge rows). The
// core.Spec cache means each is generated once per process.
var (
	benchLJ = core.LJSim(0.002)
	benchTW = core.TWSim(0.0001)

	benchOnce   sync.Once
	benchGraphs map[string]*graph.Directed
	benchUndirs map[string]*graph.Undirected
)

func setupBench(b *testing.B) {
	b.Helper()
	benchOnce.Do(func() {
		benchGraphs = map[string]*graph.Directed{}
		benchUndirs = map[string]*graph.Undirected{}
		for _, s := range []core.Spec{benchLJ, benchTW} {
			g, err := conv.ToDirected(s.CachedEdgeTable(), "src", "dst")
			if err != nil {
				panic(err)
			}
			benchGraphs[s.Name] = g
			benchUndirs[s.Name] = graph.AsUndirected(g)
		}
	})
}

// --- Table 1: catalog statistics -----------------------------------------

func BenchmarkTable1Catalog(b *testing.B) {
	for i := 0; i < b.N; i++ {
		bins := catalog.Bins()
		if len(bins) != 6 {
			b.Fatal("wrong bin count")
		}
	}
}

// --- Table 2: in-memory object sizing ------------------------------------

func BenchmarkTable2MemorySizing(b *testing.B) {
	setupBench(b)
	t := benchLJ.CachedEdgeTable()
	g := benchGraphs[benchLJ.Name]
	for i := 0; i < b.N; i++ {
		if t.Bytes() <= 0 || g.Bytes() <= 0 {
			b.Fatal("zero size")
		}
	}
}

// --- Table 3: parallel graph algorithms ----------------------------------

func benchPageRank(b *testing.B, name string) {
	setupBench(b)
	g := benchGraphs[name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10)
	}
}

func BenchmarkTable3PageRankLJ(b *testing.B) { benchPageRank(b, "lj-sim") }
func BenchmarkTable3PageRankTW(b *testing.B) { benchPageRank(b, "tw-sim") }

func benchTriangles(b *testing.B, name string) {
	setupBench(b)
	u := benchUndirs[name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.TrianglesView(graph.BuildUView(u))
	}
}

func BenchmarkTable3TrianglesLJ(b *testing.B) { benchTriangles(b, "lj-sim") }
func BenchmarkTable3TrianglesTW(b *testing.B) { benchTriangles(b, "tw-sim") }

// --- Table 4: select and join --------------------------------------------

func BenchmarkTable4Select10K(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		sel, err := t.Select("src", table.LT, int64(64)) // small prefix of the skewed space
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}

func BenchmarkTable4SelectAllBut10K(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		sel, err := t.Select("src", table.GE, int64(64))
		if err != nil {
			b.Fatal(err)
		}
		_ = sel
	}
}

func benchJoin(b *testing.B, keys int64) {
	t := benchLJ.CachedEdgeTable()
	keyVals := make([]int64, keys)
	for i := range keyVals {
		keyVals[i] = int64(i)
	}
	right, err := table.New(table.Schema{{Name: "key", Type: table.Int}})
	if err != nil {
		b.Fatal(err)
	}
	for _, k := range keyVals {
		if err := right.AppendRow(k); err != nil {
			b.Fatal(err)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := t.Join(right, "src", "key")
		if err != nil {
			b.Fatal(err)
		}
		_ = j
	}
}

func BenchmarkTable4JoinSmallKeySet(b *testing.B) { benchJoin(b, 64) }
func BenchmarkTable4JoinLargeKeySet(b *testing.B) { benchJoin(b, 4096) }

// --- Table 5: conversions -------------------------------------------------

func BenchmarkTable5TableToGraph(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g, err := conv.ToDirected(t, "src", "dst")
		if err != nil {
			b.Fatal(err)
		}
		_ = g
	}
}

func BenchmarkTable5GraphToTable(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t, err := ringo.ToTable(g, "src", "dst")
		if err != nil {
			b.Fatal(err)
		}
		_ = t
	}
}

// --- Table 6: sequential algorithms --------------------------------------

func BenchmarkTable6ThreeCore(b *testing.B) {
	setupBench(b)
	u := benchUndirs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.KCore(u, 3)
	}
}

func BenchmarkTable6SSSP(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.SSSPUnweighted(g, nodes[i%len(nodes)])
	}
}

func BenchmarkTable6SCC(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.SCCView(graph.BuildView(g))
	}
}

// --- Ablation: hash-graph traversal vs CSR traversal ----------------------

func BenchmarkAblationTraverseHashGraph(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	nodes := g.Nodes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for _, id := range nodes {
			for _, nbr := range g.OutNeighbors(id) {
				sum += nbr
			}
		}
		if sum == 0 {
			b.Fatal("no edges traversed")
		}
	}
}

func BenchmarkAblationTraverseCSR(b *testing.B) {
	setupBench(b)
	v := graph.BuildView(benchGraphs[benchLJ.Name])
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var sum int64
		for u := int32(0); u < int32(v.NumNodes()); u++ {
			for _, nbr := range v.Out(u) {
				sum += int64(nbr)
			}
		}
		if sum == 0 {
			b.Fatal("no edges traversed")
		}
	}
}

// --- Ablation: parallel vs sequential algorithms -------------------------
// The parallel kernels run sequentially on one worker, so this ablation is
// the Table 3 benchmarks at -cpu 1 against more cores:
//
//	go test -run '^$' -bench 'Table3' -cpu 1,2,4 .

// --- Workspace snapshot encode/restore ------------------------------------

// BenchmarkSnapshotRoundTrip measures the full durability cycle the
// snapshot subsystem exists for: serialize a workspace holding an edge
// table, its graph and a PageRank score vector, then restore it into a fresh
// workspace. Per-object encode/decode runs in parallel.
func BenchmarkSnapshotRoundTrip(b *testing.B) {
	setupBench(b)
	ws := core.NewWorkspace()
	g := benchGraphs[benchLJ.Name]
	ws.Set("E", core.Object{Table: benchLJ.CachedEdgeTable()})
	ws.Set("G", core.Object{Graph: g})
	ws.Set("PR", core.Object{Scores: algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10)})
	var buf bytes.Buffer
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf.Reset()
		if err := ws.Snapshot(&buf); err != nil {
			b.Fatal(err)
		}
		back := core.NewWorkspace()
		if err := back.Restore(bytes.NewReader(buf.Bytes())); err != nil {
			b.Fatal(err)
		}
		if len(back.Names()) != 3 {
			b.Fatal("restore lost objects")
		}
	}
	b.SetBytes(int64(buf.Len()))
}

// --- Library benchmarks beyond the paper's tables ------------------------

func BenchmarkLibSelectExpr(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		if _, err := t.SelectExpr("src < 1000 and dst >= 16"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibGroupAggregate(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	for i := 0; i < b.N; i++ {
		if _, err := t.Aggregate([]string{"src"}, table.Count, "", "n"); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibNextK(b *testing.B) {
	t := benchLJ.CachedEdgeTable()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := t.NextK("src", "dst", 1); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLibLouvain(b *testing.B) {
	setupBench(b)
	u := benchUndirs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.LouvainView(graph.BuildUView(u), 5)
	}
}

func BenchmarkLibApproxBetweenness(b *testing.B) {
	setupBench(b)
	g := benchGraphs[benchLJ.Name]
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		algo.ApproxBetweennessView(graph.BuildView(g), 4, 1)
	}
}
