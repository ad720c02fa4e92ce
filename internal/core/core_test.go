package core

import (
	"strings"
	"testing"
	"time"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

func TestToGraphAndBack(t *testing.T) {
	tbl := gen.RMATTable(8, 500, 3)
	g, err := conv.ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() == 0 || g.NumEdges() == 0 {
		t.Fatal("empty graph from RMAT table")
	}
	back, err := conv.ToEdgeTable(graph.BuildView(g), "a", "b")
	if err != nil {
		t.Fatal(err)
	}
	if int64(back.NumRows()) != g.NumEdges() {
		t.Fatalf("edge table rows %d != edges %d", back.NumRows(), g.NumEdges())
	}
	u, err := conv.ToUndirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if u.NumNodes() != g.NumNodes() {
		t.Fatal("undirected node count differs")
	}
}

// TestGetPageRankSumsToOne checks the Table 3 configuration the facade's
// GetPageRank and the experiment harness run: ten iterations at
// DefaultDamping over a freshly built view.
func TestGetPageRankSumsToOne(t *testing.T) {
	tbl := gen.RMATTable(8, 500, 3)
	g, _ := conv.ToDirected(tbl, "src", "dst")
	pr := algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10)
	var sum float64
	for _, e := range pr {
		sum += e.Score
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("PageRank sum = %v", sum)
	}
}

func TestTableFromMapSortedDescending(t *testing.T) {
	m := algo.Scores{{ID: 1, Score: 0.2}, {ID: 2, Score: 0.9}, {ID: 3, Score: 0.5}}
	tbl, err := TableFromMap(m, "User", "Scr")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("rows = %d", tbl.NumRows())
	}
	scr, _ := tbl.FloatCol("Scr")
	for i := 1; i < len(scr); i++ {
		if scr[i-1] < scr[i] {
			t.Fatalf("scores not descending: %v", scr)
		}
	}
	user, _ := tbl.IntCol("User")
	if user[0] != 2 {
		t.Fatalf("top user = %d", user[0])
	}
}

func TestTableFromIntMap(t *testing.T) {
	tbl, err := TableFromIntMap(map[int64]int{5: 1, 3: 0}, "node", "comp")
	if err != nil {
		t.Fatal(err)
	}
	n, _ := tbl.IntCol("node")
	if n[0] != 3 || n[1] != 5 {
		t.Fatalf("keys = %v", n)
	}
}

func TestWorkspace(t *testing.T) {
	w := NewWorkspace()
	tbl := gen.RMATTable(6, 50, 1)
	w.Set("P", Object{Table: tbl})
	g, _ := conv.ToDirected(tbl, "src", "dst")
	w.Set("G", Object{Graph: g})
	w.Set("PR", Object{Scores: algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10)})

	if got, _ := w.Table("P"); got != tbl {
		t.Fatal("Table lookup failed")
	}
	if _, err := w.Table("G"); err == nil {
		t.Fatal("graph returned as table")
	}
	if _, err := w.Graph("missing"); err == nil {
		t.Fatal("missing name accepted")
	}
	if _, err := w.Scores("PR"); err != nil {
		t.Fatal(err)
	}
	names := w.Names()
	if len(names) != 3 || names[0] != "P" || names[2] != "PR" {
		t.Fatalf("names = %v", names)
	}
	// Rebinding keeps order and replaces.
	w.Set("P", Object{Graph: g})
	if len(w.Names()) != 3 {
		t.Fatal("rebinding duplicated name")
	}
	o, _ := w.Get("P")
	if o.Kind() != "graph" {
		t.Fatalf("rebound kind = %s", o.Kind())
	}
}

func TestWorkspaceProvenance(t *testing.T) {
	w := NewWorkspace()
	tbl := gen.RMATTable(5, 20, 1)
	w.SetWithProvenance("E", Object{Table: tbl}, "gen rmat E 5 20")
	if got := w.Provenance("E"); got != "gen rmat E 5 20" {
		t.Fatalf("provenance = %q", got)
	}
	if w.Provenance("missing") != "" {
		t.Fatal("missing name has provenance")
	}
	// Rebinding updates provenance.
	w.SetWithProvenance("E", Object{Table: tbl}, "select ...")
	if w.Provenance("E") != "select ..." {
		t.Fatal("provenance not updated on rebind")
	}
}

func TestObjectSummaries(t *testing.T) {
	tbl := gen.RMATTable(5, 20, 1)
	g, _ := conv.ToDirected(tbl, "src", "dst")
	for _, c := range []struct {
		o    Object
		want string
	}{
		{Object{Table: tbl}, "table"},
		{Object{Graph: g}, "graph"},
		{Object{Scores: algo.Scores{{ID: 1, Score: 1}}}, "scores"},
		{Object{Scores: algo.Scores{}}, "scores"},
		{Object{}, "empty"},
	} {
		if c.o.Kind() != c.want {
			t.Fatalf("kind = %s, want %s", c.o.Kind(), c.want)
		}
		if c.o.Summary() == "" {
			t.Fatal("empty summary")
		}
	}
}

func TestSpecScaling(t *testing.T) {
	small := LJSim(0.001)
	big := LJSim(0.01)
	if small.Edges >= big.Edges || small.RMATScale > big.RMATScale {
		t.Fatalf("scaling not monotone: %+v vs %+v", small, big)
	}
	if small.PaperName != "LiveJournal" || TWSim(0.001).PaperName != "Twitter2010" {
		t.Fatal("paper names wrong")
	}
	tbl := small.EdgeTable()
	if int64(tbl.NumRows()) != small.Edges {
		t.Fatalf("edge table rows = %d, want %d", tbl.NumRows(), small.Edges)
	}
	// Cache returns the same object.
	if small.CachedEdgeTable() != small.CachedEdgeTable() {
		t.Fatal("cache miss on identical spec")
	}
}

func TestTimedAndRate(t *testing.T) {
	d := Timed(func() { time.Sleep(5 * time.Millisecond) })
	if d < 5*time.Millisecond {
		t.Fatalf("Timed = %v", d)
	}
	if Rate(2_000_000, time.Second) != "2.0M/s" {
		t.Fatalf("Rate = %s", Rate(2_000_000, time.Second))
	}
	if Rate(5, 0) != "inf" {
		t.Fatal("zero-duration rate")
	}
	if !strings.HasSuffix(Rate(3_000_000_000, time.Second), "B/s") {
		t.Fatal("billion rate suffix")
	}
	if MB(1<<20) != "1.0MB" {
		t.Fatalf("MB = %s", MB(1<<20))
	}
}

func TestHeapDeltaDetectsAllocation(t *testing.T) {
	var sink []byte
	d := HeapDelta(func() {
		sink = make([]byte, 64<<20)
		for i := range sink {
			sink[i] = byte(i)
		}
	})
	if d < 32<<20 {
		t.Fatalf("HeapDelta = %d, want at least 32MB", d)
	}
	_ = sink
}

func TestReportPrint(t *testing.T) {
	r := Report{
		Title:  "T",
		Header: []string{"a", "long-header"},
		Rows:   [][]string{{"xxxxxx", "1"}, {"y", "2"}},
		Notes:  []string{"n1"},
	}
	var sb strings.Builder
	r.Print(&sb)
	out := sb.String()
	for _, want := range []string{"T", "long-header", "xxxxxx", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("report output missing %q:\n%s", want, out)
		}
	}
}

// Integration: run every experiment end to end at a tiny scale and check
// the paper's shape claims hold.
func TestExperimentsEndToEnd(t *testing.T) {
	specs := []Spec{LJSim(0.002), TWSim(0.0001)} // ~138K and ~150K edge rows

	t1 := Table1()
	if len(t1.Rows) != 6 {
		t.Fatalf("Table1 rows = %d", len(t1.Rows))
	}

	t2, err := Table2(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(t2.Rows) != 2 {
		t.Fatalf("Table2 rows = %d", len(t2.Rows))
	}

	t3, err := Table3(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(t3.Rows) != 4 {
		t.Fatalf("Table3 rows = %d", len(t3.Rows))
	}

	t4, err := Table4(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(t4.Rows) != 8 {
		t.Fatalf("Table4 rows = %d", len(t4.Rows))
	}

	t5, err := Table5(specs)
	if err != nil {
		t.Fatal(err)
	}
	if len(t5.Rows) != 4 {
		t.Fatalf("Table5 rows = %d", len(t5.Rows))
	}

	t6, err := Table6(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(t6.Rows) != 3 {
		t.Fatalf("Table6 rows = %d", len(t6.Rows))
	}

	fp, err := Footprint(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(fp.Rows) != 2 {
		t.Fatalf("Footprint rows = %d", len(fp.Rows))
	}
}

func TestTable4SelectCountsNear10K(t *testing.T) {
	spec := LJSim(0.002)
	r, err := Table4([]Spec{spec})
	if err != nil {
		t.Fatal(err)
	}
	// Row 0 is "Select 10K": output should be within 3x of 10K (duplicates
	// in the skewed column can overshoot slightly).
	var out int
	if _, err := fmtSscan(r.Rows[0][2], &out); err != nil {
		t.Fatal(err)
	}
	if out < 2_000 || out > 40_000 {
		t.Fatalf("Select 10K output = %d", out)
	}
}

func fmtSscan(s string, out *int) (int, error) {
	n := 0
	for _, c := range s {
		if c < '0' || c > '9' {
			break
		}
		n = n*10 + int(c-'0')
	}
	*out = n
	return n, nil
}
