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

// TestFrozenBindingMatchesHashBinding runs the same verbs on a frozen
// binding — a directed graph bound as its CSR view, which it stays until
// its first mutation — and on a twin engine whose binding is the same
// graph as a hash graph, set with the same provenance at the same version.
// Every road that binds a view is checked: tograph, loadgraph of an RNGO
// file save wrote, loadgraph of a text edge list with "# node" lines, and
// restore. Every answer, every written byte and the workspace digest must
// agree, before and after the mutations that thaw the frozen binding; the
// first query after the thaw must patch the frozen view, not rebuild.
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

// checkFrozenTwins runs the read verbs, then the thawing mutations and
// more reads, on binding G of a frozen engine and its hash twin, requiring
// the same results, bytes and digests throughout; G is the graph of the
// edge columns, plus the isolated node isoNode when iso is set.
func checkFrozenTwins(t *testing.T, frozen, hashed *Engine, srcs, dsts []int64, iso bool) {
	t.Helper()
	if o, _ := frozen.Workspace().Get("G"); o.View == nil || o.Graph != nil {
		t.Fatal("the binding is not a frozen view")
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

	// A mutation that changes nothing leaves the binding frozen.
	src, dst := srcs[0], dsts[0]
	edge := fmt.Sprintf("G %d %d", src, dst)
	both("addedge " + edge)
	if o, _ := frozen.Workspace().Get("G"); o.View == nil {
		t.Fatal("a no-op addedge thawed the binding")
	}

	// The thaw: the first query after it patches the frozen view.
	p0, r0 := frozen.Workspace().PatchStats()
	both("addedge G 5000 5001")
	if o, _ := frozen.Workspace().Get("G"); o.Graph == nil || o.View != nil {
		t.Fatal("addedge did not thaw the binding into a hash graph")
	}
	both("pagerank PR G")
	if p, r := frozen.Workspace().PatchStats(); p != p0+1 || r != r0 {
		t.Fatalf("first query after the thaw: patches %d→%d, rebuilds %d→%d; want one patch", p0, p, r0, r)
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
		t.Fatal("pagerank after the thaw differs from pagerank of the rebuilt graph")
	}
}
