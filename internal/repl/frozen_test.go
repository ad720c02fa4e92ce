package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/graph"
)

// isoNode is the isolated node the file roads of
// TestFrozenBindingMatchesHashBinding carry.
const isoNode = 6000

// TestFrozenBindingMatchesHashBinding runs the same verbs on a binding
// made by a verb — a directed graph bound as its CSR view — and on a twin
// engine whose binding is set from the same graph as a hash graph (which
// the workspace binds as its view), with the same provenance at the same
// version. Every road that binds a view is checked: tograph, loadgraph of
// an RNGO file save wrote, loadgraph of a text edge list with "# node"
// lines, and restore. Every answer, every written byte and the workspace
// digest must agree, before and after mutations; a mutation folds nothing
// and the first query after it folds the pending deltas into the view
// with one patch, never a rebuild.
func TestFrozenBindingMatchesHashBinding(t *testing.T) {
	const genE = "gen rmat E 9 2000 11"
	files := t.TempDir()
	setup := New(nil)
	evalAll(t, setup, genE)
	tbl, err := setup.Workspace().Table("E")
	if err != nil {
		t.Fatal(err)
	}
	srcs, _ := tbl.IntCol("src")
	dsts, _ := tbl.IntCol("dst")
	// The file roads carry the isolated node isoNode, which only an RNGO
	// record or a "# node" line keeps.
	rngoPath := filepath.Join(files, "g.rngo")
	evalAll(t, setup, "tograph S E src dst", fmt.Sprintf("addnode S %d", isoNode), "save S "+rngoPath)
	var text strings.Builder
	fmt.Fprintf(&text, "# node %d\n# node %d\n", isoNode, srcs[0])
	for i := range srcs {
		fmt.Fprintf(&text, "%d\t%d\n", srcs[i], dsts[i])
	}
	fmt.Fprintf(&text, "# node %d\n", isoNode)
	textPath := filepath.Join(files, "g.txt")
	if err := os.WriteFile(textPath, []byte(text.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	loadRNGO := "loadgraph G " + rngoPath
	snapPath := filepath.Join(files, "ws.rngs")
	evalAll(t, New(nil), genE, loadRNGO, "snapshot "+snapPath)

	for _, road := range []struct {
		name, bind, prov string
		iso              bool
	}{
		{"tograph", "tograph G E src dst", "tograph G E src dst", false},
		{"loadgraph-rngo", loadRNGO, loadRNGO, true},
		{"loadgraph-text", "loadgraph G " + textPath, "loadgraph G " + textPath, true},
		{"restore", "restore " + snapPath, loadRNGO, true},
	} {
		t.Run(road.name, func(t *testing.T) {
			frozen, hashed := New(nil), New(nil)
			if road.name != "restore" {
				evalAll(t, frozen, genE)
			}
			evalAll(t, frozen, road.bind)
			evalAll(t, hashed, genE)
			g, err := conv.ToDirected(tbl, "src", "dst")
			if err != nil {
				t.Fatal(err)
			}
			if road.iso {
				g.AddNode(isoNode)
			}
			hashed.Workspace().SetWithProvenance("G", core.Object{Graph: g}, road.prov)
			checkFrozenTwins(t, frozen, hashed, srcs, dsts, road.iso)
		})
	}
}

// checkFrozenTwins runs the read verbs, then mutations and more reads, on
// binding G of a verb-bound engine and its hash-set twin, requiring
// the same results, bytes and digests throughout; G is the graph of the
// edge columns, plus the isolated node isoNode when iso is set.
func checkFrozenTwins(t *testing.T, frozen, hashed *Engine, srcs, dsts []int64, iso bool) {
	t.Helper()
	bound, _ := frozen.Workspace().Get("G")
	if bound.View == nil || bound.Graph != nil {
		t.Fatal("the binding is not a view")
	}
	dir := t.TempDir()
	// both runs one line on each engine and requires the same result.
	both := func(line string) {
		t.Helper()
		rf, rh := evalAll(t, frozen, line), evalAll(t, hashed, line)
		rf.ElapsedNS, rh.ElapsedNS = 0, 0
		if !reflect.DeepEqual(rf, rh) {
			t.Fatalf("%q: frozen %+v, hash %+v", line, rf, rh)
		}
	}
	sameDigest := func(when string) {
		t.Helper()
		df, err := frozen.Workspace().Digest()
		if err != nil {
			t.Fatal(err)
		}
		dh, err := hashed.Workspace().Digest()
		if err != nil {
			t.Fatal(err)
		}
		if df != dh {
			t.Fatalf("%s: digests differ: frozen %s, hash %s", when, df, dh)
		}
	}
	sameFile := func(verb, name string) {
		t.Helper()
		var out [2][]byte
		for i, e := range []*Engine{frozen, hashed} {
			path := filepath.Join(dir, name+[]string{".frozen", ".hash"}[i])
			evalAll(t, e, verb+" G "+path)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = b
		}
		if !bytes.Equal(out[0], out[1]) {
			t.Fatalf("%s writes %d bytes for the frozen binding, %d for the hash one", verb, len(out[0]), len(out[1]))
		}
	}

	sameDigest("after binding")
	both("ls")
	for _, alg := range []string{"triangles", "wcc", "scc", "3core", "diam", "motifs", "bridges", "cuts", "toposort", "clustering"} {
		both("algo G " + alg)
	}
	both("pagerank PR G")
	both("top PR 10")
	both("scores2table T PR node score")
	both("show T 50")
	both("totable ET G")
	both("show ET 5000")
	sameFile("save", "g.rngo")
	sameFile("savemapped", "g.rngm")
	sameDigest("after the read verbs")

	// A mutation that changes nothing leaves the binding's view alone.
	src, dst := srcs[0], dsts[0]
	edge := fmt.Sprintf("G %d %d", src, dst)
	p0, r0 := frozen.Workspace().PatchStats()
	both("addedge " + edge)
	if o, _ := frozen.Workspace().Get("G"); o.View != bound.View {
		t.Fatal("a no-op addedge changed the binding's view")
	}

	// The fold: the mutation logs, the first query after it patches.
	both("addedge G 5000 5001")
	if p, r := frozen.Workspace().PatchStats(); p != p0 || r != r0 {
		t.Fatalf("addedge folded: patches %d→%d, rebuilds %d→%d", p0, p, r0, r)
	}
	both("pagerank PR G")
	if p, r := frozen.Workspace().PatchStats(); p != p0+1 || r != r0 {
		t.Fatalf("first query after addedge: patches %d→%d, rebuilds %d→%d; want one fold", p0, p, r0, r)
	}
	if o, _ := frozen.Workspace().Get("G"); o.View == nil || o.View == bound.View || o.Graph != nil {
		t.Fatal("the fold did not rebind the binding as its folded view")
	}
	both("deledge " + edge)
	both("addnode G 7000")
	both("pagerank PR G")
	both("top PR 10")
	both("algo G wcc")
	sameDigest("after the mutations")

	// And the mutated graph answers as a graph rebuilt from its edges.
	ref := graph.NewDirected()
	for i := range srcs {
		if srcs[i] != src || dsts[i] != dst {
			ref.AddEdge(srcs[i], dsts[i])
		}
	}
	ref.AddEdge(5000, 5001)
	ref.AddNode(src)
	ref.AddNode(dst)
	ref.AddNode(7000)
	if iso {
		ref.AddNode(isoNode)
	}
	want := algo.PageRankView(graph.BuildView(ref), algo.DefaultDamping, 10)
	got, err := frozen.Workspace().Scores("PR")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatal("pagerank after the mutations differs from pagerank of the rebuilt graph")
	}
}

// TestNoBindingHoldsAHashGraph: every road to a graph binding leaves a CSR
// view in it, never a hash graph — Set of a hash graph, tograph, loadgraph,
// restore of the golden snapshot (with its undirected object), and every
// mutation verb followed by a query.
func TestNoBindingHoldsAHashGraph(t *testing.T) {
	e := New(nil)
	rngo := filepath.Join(t.TempDir(), "g.rngo")
	viewOnly := func(road, name string) {
		t.Helper()
		o, ok := e.Workspace().Get(name)
		if !ok || o.Graph != nil || (o.View == nil && o.UView == nil) {
			t.Fatalf("after %s, %s is bound as %+v", road, name, o)
		}
	}
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	e.Workspace().Set("H", core.Object{Graph: g})
	viewOnly("Set of a hash graph", "H")
	evalAll(t, e, "gen rmat E 7 300 5", "tograph G E src dst")
	viewOnly("tograph", "G")
	evalAll(t, e, "save G "+rngo, "loadgraph L "+rngo)
	viewOnly("loadgraph", "L")
	for _, line := range []string{"addedge G 1000 1001", "deledge G 1000 1001", "addnode G 2000"} {
		evalAll(t, e, line, "pagerank PR G")
		viewOnly(line, "G")
	}
	evalAll(t, e, "restore ../snapshot/testdata/workspace.rngs")
	kinds := map[string]bool{}
	for _, name := range e.Workspace().Names() {
		if k := e.Workspace().Kind(name); k == "graph" || k == "ugraph" {
			viewOnly("restore", name)
			kinds[k] = true
		}
	}
	if !kinds["graph"] || !kinds["ugraph"] {
		t.Fatalf("the golden snapshot restored graph kinds %v, want both", kinds)
	}
	for _, name := range e.Workspace().Names() {
		if e.Workspace().Kind(name) == "ugraph" {
			evalAll(t, e, "addedge "+name+" 70 71", "algo "+name+" triangles")
			viewOnly("a mutation of the undirected binding", name)
		}
	}
}
