package repl

import (
	"fmt"
	"os"
	"reflect"
	"strings"
	"sync"
	"testing"

	"ringo/internal/core"
	"ringo/internal/graph"
	"ringo/internal/table"
)

// saveEdgeListForTest writes g as a text edge list, for loadgraph
// format-sniffing tests.
func saveEdgeListForTest(path string, g *graph.View) error {
	var sb strings.Builder
	for u, id := range g.IDs() {
		for _, x := range g.Out(int32(u)) {
			fmt.Fprintf(&sb, "%d\t%d\n", id, g.ID(x))
		}
	}
	return os.WriteFile(path, []byte(sb.String()), 0o644)
}

// evalAll runs a script, failing the test on any error, and returns the
// last result.
func evalAll(t *testing.T, e *Engine, lines ...string) *Result {
	t.Helper()
	var last *Result
	for _, line := range lines {
		r, err := e.Eval(line)
		if err != nil {
			t.Fatalf("Eval(%q): %v", line, err)
		}
		last = r
	}
	return last
}

// TestEngineGoldenMessages locks down the deterministic summary for each
// binding verb.
func TestEngineGoldenMessages(t *testing.T) {
	e := New(nil)
	dir := t.TempDir()
	steps := []struct {
		cmd  string
		want string // exact message; "" means checked elsewhere
	}{
		{"gen rmat E 8 300 7", "E: 300 rows"},
		{"tograph G E src dst", ""}, // node count varies with the seed
		{"totable T G", ""},
		{"project P E src", "P: 300 rows"},
		{"groupcount C E src", ""},
		{"select S E src >= 0", "S: 300 rows"},
		{"filter F E src >= 0 and dst >= 0", "F: 300 rows"},
		{"pagerank PR G", ""},
		{"scores2table ST PR Node Score", ""},
		{"save E " + dir + "/e.tsv", "wrote 300 rows to " + dir + "/e.tsv"},
		{"mv P P2", "renamed P to P2"},
		{"rm P2", "deleted P2"},
	}
	for _, s := range steps {
		r, err := e.Eval(s.cmd)
		if err != nil {
			t.Fatalf("Eval(%q): %v", s.cmd, err)
		}
		if s.want != "" && r.Message != s.want {
			t.Errorf("Eval(%q) message = %q, want %q", s.cmd, r.Message, s.want)
		}
	}
	// Structured fields of binding commands.
	r := evalAll(t, e, "gen rmat E2 6 40 1")
	if r.Bound != "E2" || r.Kind != "table" {
		t.Fatalf("bound=%q kind=%q, want E2/table", r.Bound, r.Kind)
	}
	r = evalAll(t, e, "tograph G2 E2 src dst")
	if r.Bound != "G2" || r.Kind != "graph" {
		t.Fatalf("bound=%q kind=%q, want G2/graph", r.Bound, r.Kind)
	}
	if !strings.HasPrefix(r.Message, "G2: ") || !strings.HasSuffix(r.Message, " edges") {
		t.Fatalf("tograph message = %q", r.Message)
	}
	r = evalAll(t, e, "pagerank PR2 G2")
	if r.Bound != "PR2" || r.Kind != "scores" {
		t.Fatalf("bound=%q kind=%q, want PR2/scores", r.Bound, r.Kind)
	}
	if r.ElapsedNS <= 0 {
		t.Fatal("pagerank did not record elapsed time")
	}
}

func TestEngineJoinMessageListsColumns(t *testing.T) {
	e := New(nil)
	r := evalAll(t, e,
		"gen rmat A 6 40 1",
		"gen rmat B 6 40 2",
		"join J A B src src",
	)
	if !strings.Contains(r.Message, "(") || !strings.Contains(r.Message, "src") {
		t.Fatalf("join message missing column list: %q", r.Message)
	}
}

func TestEngineTabularResults(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat E 7 120 3", "tograph G E src dst", "pagerank PR G")

	r := evalAll(t, e, "top PR 5")
	if len(r.Columns) != 3 || len(r.Rows) != 5 {
		t.Fatalf("top: columns=%v rows=%d", r.Columns, len(r.Rows))
	}
	if r.Rows[0][0] != "1" {
		t.Fatalf("top rank column = %q, want 1", r.Rows[0][0])
	}

	r = evalAll(t, e, "show E 4")
	if len(r.Columns) != 2 || len(r.Rows) != 4 || r.Truncated != 116 {
		t.Fatalf("show: columns=%v rows=%d truncated=%d", r.Columns, len(r.Rows), r.Truncated)
	}

	r = evalAll(t, e, "ls")
	if len(r.Columns) != 3 || len(r.Rows) != 3 {
		t.Fatalf("ls: columns=%v rows=%d", r.Columns, len(r.Rows))
	}
	if r.Rows[0][0] != "E" || r.Rows[0][2] != "gen rmat E 7 120 3" {
		t.Fatalf("ls first row = %v", r.Rows[0])
	}

	// Empty workspace listing.
	r = evalAll(t, New(nil), "ls")
	if r.Message != "(workspace empty)" || len(r.Rows) != 0 {
		t.Fatalf("empty ls = %+v", r)
	}
}

func TestEngineAlgoVerbs(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat E 8 600 5", "tograph G E src dst")
	for alg, want := range map[string]string{
		"triangles":  "triangles",
		"wcc":        "weak components",
		"scc":        "strong components",
		"3core":      "3-core:",
		"diam":       "approximate diameter",
		"motifs":     "wedges",
		"bridges":    "bridges",
		"cuts":       "articulation points",
		"toposort":   "", // cyclic R-MAT graphs report not-a-DAG
		"clustering": "average clustering coefficient",
	} {
		r := evalAll(t, e, "algo G "+alg)
		if want != "" && !strings.Contains(r.Message, want) {
			t.Errorf("algo %s message = %q, want substring %q", alg, r.Message, want)
		}
	}
}

func TestEngineErrors(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat E 6 40 1", "tograph G E src dst", "pagerank PR G")
	for _, line := range []string{
		"",                        // empty command
		"bogus",                   // unknown verb
		"select X",                // usage
		"select X missing c == 1", // unknown object
		"select X G src == 1",     // wrong kind: graph, not table
		"pagerank X E",            // wrong kind: table, not graph
		"top E",                   // wrong kind: table, not scores
		"algo E wcc",              // wrong kind
		"algo G nosuch",           // unknown algorithm
		"gen rmat X bad 5",        // unparseable number
		"gen nope X",              // unknown generator
		"load X /nonexistent a:int",
		"load X /nonexistent a:nosuchtype",
		"loadgraph X /nonexistent",
		"order missing asc a",
		"order E sideways src",
		"show missing",
		"show E -1", // negative row count
		"top G 5",
		"top PR -1", // negative k would panic TopK's slice bound
		"top PR 0",
		"top PR x",
		"rm missing",
		"mv missing elsewhere",
		"mv missing missing", // self-rename of a nonexistent object

		"join X E missing src src",
	} {
		if _, err := e.Eval(line); err == nil {
			t.Errorf("Eval(%q) did not error", line)
		}
	}
	// Errors must not bind anything.
	if names := e.Workspace().Names(); len(names) != 3 {
		t.Fatalf("error cases changed workspace: %v", names)
	}
}

func TestReadOnlyClassification(t *testing.T) {
	for line, want := range map[string]bool{
		"ls":                true,
		"show T 5":          true,
		"top PR":            true,
		"algo G wcc":        true,
		"help":              true,
		"save T /tmp/x.tsv": true,
		"":                  true,
		"unknowncmd x":      true,
		"gen rmat E 6 40":   false,
		"load T f a:int":    false,
		"select X T c == 1": false,
		"order T asc c":     false,
		"pagerank PR G":     false,
		"rm X":              false,
		"mv A B":            false,
		"tograph G T s d":   false,
		"snapshot /tmp/w":   true,
		"restore /tmp/w":    false,
	} {
		if got := ReadOnly(line); got != want {
			t.Errorf("ReadOnly(%q) = %v, want %v", line, got, want)
		}
	}
}

func TestTouchesFilesClassification(t *testing.T) {
	for line, want := range map[string]bool{
		"load T f a:int":    true,
		"loadgraph G f":     true,
		"mapgraph G f":      true,
		"save T /tmp/x.tsv": true,
		"snapshot /tmp/w":   true,
		"restore /tmp/w":    true,
		"ls":                false,
		"gen rmat E 6 40":   false,
		"pagerank PR G":     false,
		"":                  false,
	} {
		if got := TouchesFiles(line); got != want {
			t.Errorf("TouchesFiles(%q) = %v, want %v", line, got, want)
		}
	}
	want := []string{"load", "loadgraph", "mapgraph", "restore", "save", "snapshot", "source"}
	if got := FileVerbs(); !reflect.DeepEqual(got, want) {
		t.Errorf("FileVerbs() = %v, want %v", got, want)
	}
}

// TestEngineSnapshotRestoreVerbs drives the full verb path: build a mixed
// workspace, snapshot it, wipe, restore, and query the restored objects.
func TestEngineSnapshotRestoreVerbs(t *testing.T) {
	e := New(nil)
	path := t.TempDir() + "/ws.rsnp"
	evalAll(t, e,
		"gen rmat E 7 120 3",
		"tograph G E src dst",
		"pagerank PR G",
	)
	r := evalAll(t, e, "snapshot "+path)
	if want := "snapshot: wrote 3 objects to " + path; r.Message != want {
		t.Fatalf("snapshot message = %q, want %q", r.Message, want)
	}
	prov := e.Workspace().Provenance("G")

	// Restore into a second engine and keep working there.
	e2 := New(nil)
	r = evalAll(t, e2, "restore "+path)
	if want := "restored 3 objects from " + path; r.Message != want {
		t.Fatalf("restore message = %q, want %q", r.Message, want)
	}
	if got := e2.Workspace().Provenance("G"); got != prov {
		t.Fatalf("provenance = %q, want %q", got, prov)
	}
	r = evalAll(t, e2, "top PR 3")
	if len(r.Rows) != 3 {
		t.Fatalf("top over restored scores returned %d rows", len(r.Rows))
	}
	r = evalAll(t, e2, "algo G wcc")
	if r.Message == "" {
		t.Fatal("algo over restored graph returned no message")
	}

	if _, err := e2.Eval("restore " + path + ".missing"); err == nil {
		t.Fatal("restore of missing file did not error")
	}
	if _, err := e2.Eval("snapshot"); err == nil {
		t.Fatal("snapshot without a path did not error")
	}
}

// TestEngineSaveLoadTableRoundTrip: "save" writes a header line, so "load"
// must recognise it — an int column would fail to parse it, and a table of
// string columns would silently gain the column names as its first row.
func TestEngineSaveLoadTableRoundTrip(t *testing.T) {
	e := New(nil)
	dir := t.TempDir()
	rows := func(name string) [][]string {
		t.Helper()
		return evalAll(t, e, "show "+name+" 1000").Rows
	}

	evalAll(t, e, "gen rmat E 7 120 3", "save E "+dir+"/e.tsv", "load E2 "+dir+"/e.tsv src:int dst:int")
	if got, want := rows("E2"), rows("E"); len(want) != 120 || !reflect.DeepEqual(got, want) {
		t.Fatalf("int table changed across save/load: %d rows -> %d rows", len(want), len(got))
	}

	// A headerless file keeps its first line as data, even one that looks
	// like column names of some other schema.
	raw := "name\tlang\nada\tgo\ngrace\tcobol\n"
	if err := os.WriteFile(dir+"/s.tsv", []byte(raw), 0o644); err != nil {
		t.Fatal(err)
	}
	evalAll(t, e, "load S "+dir+"/s.tsv who:string what:string")
	if got := rows("S"); len(got) != 3 || got[0][0] != "name" {
		t.Fatalf("headerless load dropped or reordered rows: %v", got)
	}
	evalAll(t, e, "save S "+dir+"/s2.tsv", "load S2 "+dir+"/s2.tsv who:string what:string")
	if got, want := rows("S2"), rows("S"); !reflect.DeepEqual(got, want) {
		t.Fatalf("string table changed across save/load:\n got %v\nwant %v", got, want)
	}
}

// TestEngineSaveGraphLoadGraphRoundTrip: save writes a graph of either
// kind as an RNGM image, and loadgraph binds it back as a heap view equal
// to the original array for array; text edge lists load through the same
// verb, and a file in the retired RNGO layout is refused by name rather
// than parsed as text.
func TestEngineSaveGraphLoadGraphRoundTrip(t *testing.T) {
	e := New(nil)
	dir := t.TempDir()
	evalAll(t, e,
		"gen rmat E 7 120 3",
		"tograph G E src dst",
	)
	v, err := e.Workspace().DirectedView("G")
	if err != nil {
		t.Fatal(err)
	}
	e.Workspace().Set("U", core.Object{UView: graph.ProjectUView(v)})
	r := evalAll(t, e, "save G "+dir+"/g.rngm")
	if !strings.Contains(r.Message, "(RNGM)") {
		t.Fatalf("graph save message = %q", r.Message)
	}
	r = evalAll(t, e, "loadgraph G2 "+dir+"/g.rngm")
	if r.Kind != "graph" {
		t.Fatalf("loadgraph kind = %q", r.Kind)
	}
	v2, err := e.Workspace().DirectedView("G2")
	if err != nil {
		t.Fatal(err)
	}
	parts := func(v *graph.View) []any {
		ids, outOff, inOff, out, in := v.ViewParts()
		return []any{ids, outOff, inOff, out, in}
	}
	if !reflect.DeepEqual(parts(v2), parts(v)) {
		t.Fatal("save + loadgraph changed the directed graph's CSR arrays")
	}

	r = evalAll(t, e, "save U "+dir+"/u.rngm", "loadgraph U2 "+dir+"/u.rngm")
	if r.Kind != "ugraph" {
		t.Fatalf("loadgraph of an undirected image bound kind %q", r.Kind)
	}
	uparts := func(name string) []any {
		t.Helper()
		u, err := e.Workspace().UndirectedView(name)
		if err != nil {
			t.Fatal(err)
		}
		ids, off, arena := u.UViewParts()
		return []any{ids, off, arena}
	}
	if !reflect.DeepEqual(uparts("U2"), uparts("U")) {
		t.Fatal("save + loadgraph changed the undirected graph's CSR arrays")
	}

	// Text edge lists still load through the same verb.
	if err := saveEdgeListForTest(dir+"/g.txt", v); err != nil {
		t.Fatal(err)
	}
	evalAll(t, e, "loadgraph G3 "+dir+"/g.txt")
	g3, err := e.Workspace().DirectedView("G3")
	if err != nil {
		t.Fatal(err)
	}
	if g3.NumEdges() != v.NumEdges() {
		t.Fatalf("edge-list round trip edges %d != %d", g3.NumEdges(), v.NumEdges())
	}

	// The header an older build's save wrote for an empty graph: magic,
	// version 1, zero nodes, zero edges.
	rngo := append([]byte("RNGO\x01\x00\x00\x00"), make([]byte, 16)...)
	if err := os.WriteFile(dir+"/old.rngo", rngo, 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = e.Eval("loadgraph O " + dir + "/old.rngo")
	if err == nil || !strings.Contains(err.Error(), "RNGO graph") || !strings.Contains(err.Error(), "save the graph again") {
		t.Fatalf("loadgraph of an RNGO file: error %v, want the format named and the way back", err)
	}
}

// countingCache is a trivial Cache for engine-level cache behavior tests.
type countingCache struct {
	mu   sync.Mutex
	m    map[string]CachedResult
	hits int
	puts int
}

func newCountingCache() *countingCache { return &countingCache{m: make(map[string]CachedResult)} }

func (c *countingCache) Get(key string) (CachedResult, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	v, ok := c.m[key]
	if ok {
		c.hits++
	}
	return v, ok
}

func (c *countingCache) Put(key string, v CachedResult) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.puts++
	c.m[key] = v
}

func TestEnginePageRankCaching(t *testing.T) {
	e := New(nil)
	cache := newCountingCache()
	e.SetCache(cache)
	evalAll(t, e, "gen rmat E 8 500 2", "tograph G E src dst")

	r1 := evalAll(t, e, "pagerank PR G")
	if r1.Cached {
		t.Fatal("first pagerank reported cached")
	}
	// Re-query under a different output name: same computation, served
	// from cache without recomputation.
	r2 := evalAll(t, e, "pagerank PR2 G")
	if !r2.Cached || cache.hits != 1 {
		t.Fatalf("second pagerank cached=%v hits=%d, want true/1", r2.Cached, cache.hits)
	}
	if r2.ElapsedNS != 0 {
		t.Fatal("cached pagerank reported compute time")
	}
	// The cached scores really bind: top works on PR2.
	if r := evalAll(t, e, "top PR2 3"); len(r.Rows) != 3 {
		t.Fatalf("top over cached scores: %d rows", len(r.Rows))
	}
	// Rebinding the graph invalidates via the fingerprint.
	evalAll(t, e, "tograph G E src dst")
	r3 := evalAll(t, e, "pagerank PR3 G")
	if r3.Cached {
		t.Fatal("pagerank after graph rebind served stale cache entry")
	}
}

func TestEngineAlgoCachingAndOrderInvalidation(t *testing.T) {
	e := New(nil)
	cache := newCountingCache()
	e.SetCache(cache)
	evalAll(t, e, "gen rmat E 8 400 9", "tograph G E src dst")

	r1 := evalAll(t, e, "algo G wcc")
	r2 := evalAll(t, e, "algo G wcc")
	if r1.Cached || !r2.Cached {
		t.Fatalf("algo caching: first=%v second=%v", r1.Cached, r2.Cached)
	}
	if r2.Message != r1.Message {
		t.Fatalf("cached message %q != computed %q", r2.Message, r1.Message)
	}
	// Different algorithm over the same graph is a different key.
	if r := evalAll(t, e, "algo G triangles"); r.Cached {
		t.Fatal("triangles hit the wcc cache entry")
	}

	// In-place order bumps the table version, so table-derived cache keys
	// can never serve stale results.
	fpBefore, _ := e.Workspace().Fingerprint("E")
	evalAll(t, e, "order E desc src")
	fpAfter, _ := e.Workspace().Fingerprint("E")
	if fpBefore == fpAfter {
		t.Fatal("order did not change the table fingerprint")
	}
}

func TestRenderClassicFormats(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat E 7 100 4", "tograph G E src dst", "pagerank PR G")

	var b strings.Builder
	r := evalAll(t, e, "top PR 2")
	r.Render(&b)
	if !strings.Contains(b.String(), ". node ") {
		t.Fatalf("top render: %q", b.String())
	}

	b.Reset()
	r = evalAll(t, e, "show E 2")
	r.Render(&b)
	if !strings.Contains(b.String(), "src\tdst") || !strings.Contains(b.String(), "more rows") {
		t.Fatalf("show render: %q", b.String())
	}

	b.Reset()
	r = evalAll(t, e, "ls")
	r.Render(&b)
	if !strings.Contains(b.String(), "from: gen rmat E 7 100 4") {
		t.Fatalf("ls render missing provenance: %q", b.String())
	}

	b.Reset()
	r = evalAll(t, e, "algo G wcc")
	r.Render(&b)
	if !strings.Contains(b.String(), "weak components, largest") || !strings.Contains(b.String(), " in ") {
		t.Fatalf("algo render missing timing: %q", b.String())
	}

	// order has no output.
	b.Reset()
	r = evalAll(t, e, "order E asc src")
	r.Render(&b)
	if b.String() != "" {
		t.Fatalf("order rendered %q, want empty", b.String())
	}
}

// TestSelectBuildsIndexOnSecondUse drives index admission through the
// select verb: the first equality select on a column scans, the second is
// served by the index it builds, both select the same rows for EQ and NE
// on int and string columns, and afterwards the indexes verb shows one
// built index.
func TestSelectBuildsIndexOnSecondUse(t *testing.T) {
	for _, q := range []string{"k = 3", "k != 3", "tag = java", "tag != java"} {
		tbl, err := table.New(table.Schema{{Name: "k", Type: table.Int}, {Name: "tag", Type: table.String}})
		if err != nil {
			t.Fatal(err)
		}
		for i := 0; i < 500; i++ {
			if err := tbl.AppendRow(int64(i%7), []string{"go", "java", "sql"}[i%3]); err != nil {
				t.Fatal(err)
			}
		}
		e := New(nil)
		e.Workspace().Set("T", core.Object{Table: tbl})
		evalAll(t, e, "select Scan T "+q, "select Indexed T "+q)
		scan, _ := e.Workspace().Table("Scan")
		indexed, _ := e.Workspace().Table("Indexed")
		if !reflect.DeepEqual(scan.RowIDs(), indexed.RowIDs()) || scan.NumRows() == 0 {
			t.Fatalf("%s: scan selected rows %v, index %v", q, scan.RowIDs(), indexed.RowIDs())
		}
		r := evalAll(t, e, "indexes")
		if entries, bytes := r.Rows[0][2], r.Rows[0][3]; entries != "1" || bytes == "0" {
			t.Fatalf("%s: indexes shows %s entries, %s bytes; want one built index", q, entries, bytes)
		}
	}
}
