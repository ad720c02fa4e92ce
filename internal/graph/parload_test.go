package graph

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// thaw is FromView over a loader's result, for tests that compare graphs.
func thaw(v *View, err error) (*Directed, error) {
	if err != nil {
		return nil, err
	}
	return FromView(v), nil
}

// sameDirected reports whether two directed graphs have identical node sets
// and identical (sorted) adjacency vectors in both directions.
func sameDirected(a, b *Directed) error {
	na, nb := a.Nodes(), b.Nodes()
	if !slices.Equal(na, nb) {
		return fmt.Errorf("node sets differ: %d vs %d nodes", len(na), len(nb))
	}
	if a.NumEdges() != b.NumEdges() {
		return fmt.Errorf("edge counts differ: %d vs %d", a.NumEdges(), b.NumEdges())
	}
	for _, id := range na {
		if !slices.Equal(a.OutNeighbors(id), b.OutNeighbors(id)) {
			return fmt.Errorf("out-neighbors of %d differ", id)
		}
		if !slices.Equal(a.InNeighbors(id), b.InNeighbors(id)) {
			return fmt.Errorf("in-neighbors of %d differ", id)
		}
	}
	return nil
}

// randomEdgeListText renders a randomized edge list exercising every
// syntactic feature the loaders accept: comments, node declarations, blank
// lines, mixed separators and padding, duplicate edges, self-loops, extra
// fields, negative and large ids.
func randomEdgeListText(rng *rand.Rand, nEdges int) string {
	var sb strings.Builder
	sb.WriteString("# randomized edge list\n")
	seps := []string{"\t", " ", "  ", " \t "}
	for i := 0; i < nEdges; i++ {
		switch rng.Intn(12) {
		case 0:
			sb.WriteString("\n")
		case 1:
			sb.WriteString("# a comment line\n")
		case 2:
			fmt.Fprintf(&sb, "# node %d\n", rng.Int63n(1000)-500)
		default:
			src := rng.Int63n(200) - 100
			dst := rng.Int63n(200) - 100
			if rng.Intn(10) == 0 {
				dst = src // self-loop
			}
			pad := ""
			if rng.Intn(4) == 0 {
				pad = "  "
			}
			fmt.Fprintf(&sb, "%s%d%s%d", pad, src, seps[rng.Intn(len(seps))], dst)
			if rng.Intn(8) == 0 {
				fmt.Fprintf(&sb, "\tignored-field")
			}
			if rng.Intn(3) != 0 || i == nEdges-1 {
				sb.WriteString("\n")
			} else {
				sb.WriteString("\r\n")
			}
		}
	}
	return sb.String()
}

func TestParallelMatchesSequentialRandomized(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		text := randomEdgeListText(rng, 2000)
		seq, err := loadEdgeList(strings.NewReader(text))
		if err != nil {
			t.Fatalf("seed %d: sequential load: %v", seed, err)
		}
		par, err := ParseEdgeList([]byte(text))
		if err != nil {
			t.Fatalf("seed %d: parallel load: %v", seed, err)
		}
		if err := seq.Validate(); err != nil {
			t.Fatalf("seed %d: sequential graph invalid: %v", seed, err)
		}
		if err := identicalViews(par, BuildView(seq)); err != nil {
			t.Fatalf("seed %d: loaders disagree: %v", seed, err)
		}
	}
}

func TestParallelLoaderManyChunks(t *testing.T) {
	// Enough lines that every worker gets a multi-line chunk, with ids wide
	// enough to shuffle across chunk boundaries.
	rng := rand.New(rand.NewSource(99))
	var sb strings.Builder
	for i := 0; i < 50_000; i++ {
		fmt.Fprintf(&sb, "%d\t%d\n", rng.Int63n(5000), rng.Int63n(5000))
	}
	text := sb.String()
	seq, err := loadEdgeList(strings.NewReader(text))
	if err != nil {
		t.Fatal(err)
	}
	par, err := ParseEdgeList([]byte(text))
	if err != nil {
		t.Fatal(err)
	}
	if err := identicalViews(par, BuildView(seq)); err != nil {
		t.Fatal(err)
	}
}

func TestParallelLoaderErrorLineNumbers(t *testing.T) {
	cases := []struct {
		in   string
		line int
	}{
		{"1 2\nbogus\n3 4\n", 2},
		{"1 2\n3 4\n5\n", 3},
		{"99999999999999999999999999 1\n", 1},
		{"1 2\n# fine\n\n1 x\n", 4},
		{"-9223372036854775808 1\n", 1},
		{"1 -9223372036854775808\n", 1},
	}
	for _, c := range cases {
		_, seqErr := loadEdgeList(strings.NewReader(c.in))
		_, parErr := ParseEdgeList([]byte(c.in))
		if seqErr == nil || parErr == nil {
			t.Fatalf("input %q: expected both loaders to fail, got seq=%v par=%v", c.in, seqErr, parErr)
		}
		want := fmt.Sprintf("line %d", c.line)
		if !strings.Contains(seqErr.Error(), want) {
			t.Errorf("input %q: sequential error %q missing %q", c.in, seqErr, want)
		}
		if !strings.Contains(parErr.Error(), want) {
			t.Errorf("input %q: parallel error %q missing %q", c.in, parErr, want)
		}
	}
}

func TestScannerErrorCarriesLineNumber(t *testing.T) {
	// A line longer than the scanner's 4 MiB cap: the sequential loader must
	// name the failing line, not just say "token too long".
	long := "# " + strings.Repeat("x", 1<<22+10)
	in := "1 2\n2 3\n" + long + "\n4 5\n"
	_, err := loadEdgeList(strings.NewReader(in))
	if err == nil {
		t.Fatal("expected scanner overflow error")
	}
	if !strings.Contains(err.Error(), "line 3") {
		t.Fatalf("error %q does not name line 3", err)
	}
	// The parallel path has no line cap; the same input must parse.
	v, err := ParseEdgeList([]byte(in))
	if err != nil {
		t.Fatalf("parallel load of long line: %v", err)
	}
	if !hasViewEdge(v, 4, 5) || v.NumEdges() != 3 {
		t.Fatalf("parallel load mangled input: %d edges", v.NumEdges())
	}
}

func TestSaveEdgeListKeepsIsolatedNodes(t *testing.T) {
	g := NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddNode(50) // isolated
	g.AddNode(-7) // isolated, negative id
	text := saveEdgeList(g)
	if !strings.Contains(text, "# node 50\n") || !strings.Contains(text, "# node -7\n") {
		t.Fatalf("isolated node comments missing from:\n%s", text)
	}
	for _, load := range []func() (*Directed, error){
		func() (*Directed, error) { return loadEdgeList(strings.NewReader(text)) },
		func() (*Directed, error) { return thaw(ParseEdgeList([]byte(text))) },
	} {
		back, err := load()
		if err != nil {
			t.Fatal(err)
		}
		if err := sameDirected(g, back); err != nil {
			t.Fatalf("round trip lost structure: %v", err)
		}
		if !back.HasNode(50) || !back.HasNode(-7) {
			t.Fatal("round trip dropped isolated nodes")
		}
	}
}

func TestNodeCommentVariants(t *testing.T) {
	in := "# node 5\n#node 6\n# node 7 extra\n# nodes 8\n# node notanum\n1 2\n"
	for name, load := range map[string]func() (*Directed, error){
		"seq": func() (*Directed, error) { return loadEdgeList(strings.NewReader(in)) },
		"par": func() (*Directed, error) { return thaw(ParseEdgeList([]byte(in))) },
	} {
		g, err := load()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if !g.HasNode(5) || !g.HasNode(6) {
			t.Fatalf("%s: node declarations not honored", name)
		}
		for _, id := range []int64{7, 8} {
			if g.HasNode(id) {
				t.Fatalf("%s: malformed declaration created node %d", name, id)
			}
		}
		if g.NumNodes() != 4 {
			t.Fatalf("%s: want 4 nodes, got %d", name, g.NumNodes())
		}
	}
}

func TestBuildDirectedMatchesAddEdge(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + int(seed)*7000 // crosses the parallel relabel's threshold
		srcs, dsts := make([]int64, n), make([]int64, n)
		ref := NewDirected()
		for i := range srcs {
			srcs[i], dsts[i] = rng.Int63n(300)-150, rng.Int63n(300)-150
			ref.AddEdge(srcs[i], dsts[i])
		}
		g, err := BuildDirectedCols(srcs, dsts)
		if err != nil {
			t.Fatal(err)
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("seed %d: bulk graph invalid: %v", seed, err)
		}
		if err := sameDirected(ref, g); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBuildColsLengthMismatch(t *testing.T) {
	if _, err := BuildDirectedCols([]int64{1}, nil); err == nil {
		t.Fatal("BuildDirectedCols accepted mismatched columns")
	}
	if _, err := BuildViewCols(nil, []int64{1}, []int64{1}); err == nil {
		t.Fatal("BuildViewCols accepted mismatched columns")
	}
}

// TestBuildUndirectedMatchesAddEdge holds the undirected projection of a
// bulk build — the facade's ToUGraph road — to per-edge AddEdge on an
// undirected graph.
func TestBuildUndirectedMatchesAddEdge(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		n := 1000 + int(seed)*7000
		srcs := make([]int64, n)
		dsts := make([]int64, n)
		ref := NewUndirectedCap(0)
		for i := range srcs {
			src := rng.Int63n(300) - 150
			dst := rng.Int63n(300) - 150
			if rng.Intn(12) == 0 {
				dst = src
			}
			srcs[i], dsts[i] = src, dst
			ref.AddEdge(src, dst)
		}
		d, err := BuildViewCols(srcs, dsts, nil)
		if err != nil {
			t.Fatal(err)
		}
		g := ProjectUView(d)
		if ref.NumNodes() != g.NumNodes() || ref.NumEdges() != g.NumEdges() {
			t.Fatalf("seed %d: size mismatch: %d/%d nodes, %d/%d edges",
				seed, ref.NumNodes(), g.NumNodes(), ref.NumEdges(), g.NumEdges())
		}
		if err := sameUView(g, buildUView(ref)); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

func TestBuildDirectedRejectsReservedID(t *testing.T) {
	if _, err := BuildDirectedCols([]int64{tombstone}, []int64{1}); err == nil {
		t.Fatal("BuildDirectedCols accepted the reserved id")
	}
	if _, err := BuildViewCols(nil, nil, []int64{1, tombstone}); err == nil {
		t.Fatal("BuildViewCols accepted the reserved id as a declared node")
	}
}

func TestBuildDirectedEmpty(t *testing.T) {
	g, err := BuildDirectedCols(nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 0 || g.NumEdges() != 0 {
		t.Fatal("empty build not empty")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestBuildDirectedArenaIsolation: vectors are carved from a shared arena;
// growing one node's adjacency must not corrupt a neighbor's vector.
func TestBuildDirectedArenaIsolation(t *testing.T) {
	g, err := BuildDirectedCols([]int64{1, 1, 4, 4}, []int64{2, 3, 5, 6})
	if err != nil {
		t.Fatal(err)
	}
	g.AddEdge(1, 9) // grows node 1's out-vector, adjacent to node 4's in the arena
	if !slices.Equal(g.OutNeighbors(4), []int64{5, 6}) {
		t.Fatalf("arena neighbor clobbered: out(4) = %v", g.OutNeighbors(4))
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

// benchEdgeListText memoizes a ~1M-line generated edge list so the Seq/Par
// benchmark pair parses identical bytes.
var benchEdgeList []byte

func benchEdgeListText(b *testing.B) []byte {
	if benchEdgeList == nil {
		const n = 1 << 20
		rng := rand.New(rand.NewSource(1))
		buf := make([]byte, 0, n*14)
		for i := 0; i < n; i++ {
			buf = strconv.AppendInt(buf, rng.Int63n(1<<18), 10)
			buf = append(buf, '\t')
			buf = strconv.AppendInt(buf, rng.Int63n(1<<18), 10)
			buf = append(buf, '\n')
		}
		benchEdgeList = buf
	}
	b.SetBytes(int64(len(benchEdgeList)))
	return benchEdgeList
}

func BenchmarkLoadEdgeListSeq(b *testing.B) {
	text := benchEdgeListText(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := loadEdgeList(bytes.NewReader(text)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkLoadEdgeListPar(b *testing.B) {
	text := benchEdgeListText(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ParseEdgeList(text); err != nil {
			b.Fatal(err)
		}
	}
}
