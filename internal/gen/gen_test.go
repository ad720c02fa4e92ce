package gen

import (
	"fmt"
	"slices"
	"sort"
	"testing"

	"ringo/internal/conv"
	"ringo/internal/graph"
	"ringo/internal/table"
)

func TestRMATDeterministicAndInRange(t *testing.T) {
	src1, dst1 := RMATEdges(10, 5000, 0.57, 0.19, 0.19, 42)
	src2, dst2 := RMATEdges(10, 5000, 0.57, 0.19, 0.19, 42)
	for i := range src1 {
		if src1[i] != src2[i] || dst1[i] != dst2[i] {
			t.Fatal("RMAT not deterministic for fixed seed")
		}
		if src1[i] < 0 || src1[i] >= 1024 || dst1[i] < 0 || dst1[i] >= 1024 {
			t.Fatalf("edge (%d,%d) outside 2^10 node space", src1[i], dst1[i])
		}
	}
	src3, _ := RMATEdges(10, 5000, 0.57, 0.19, 0.19, 43)
	same := true
	for i := range src1 {
		if src1[i] != src3[i] {
			same = false
			break
		}
	}
	if same {
		t.Fatal("different seeds produced identical edges")
	}
}

func TestRMATSkewedDegrees(t *testing.T) {
	// R-MAT with canonical parameters must be much more skewed than uniform:
	// the max out-degree should far exceed the mean.
	tbl := RMATTable(12, 40_000, 7)
	g, err := conv.ToDirected(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	maxDeg := 0
	g.ForNodes(func(id int64) {
		if d := g.OutDeg(id); d > maxDeg {
			maxDeg = d
		}
	})
	mean := float64(g.NumEdges()) / float64(g.NumNodes())
	if float64(maxDeg) < 10*mean {
		t.Fatalf("max degree %d not skewed vs mean %.1f", maxDeg, mean)
	}
}

func TestGNM(t *testing.T) {
	g := GNM(100, 500, 3)
	if g.NumNodes() != 100 || g.NumEdges() != 500 {
		t.Fatalf("GNM dims = (%d,%d)", g.NumNodes(), g.NumEdges())
	}
	g.ForEdges(func(s, d int64) {
		if s == d {
			t.Fatal("GNM produced self-loop")
		}
	})
	if err := validDirected(g); err != nil {
		t.Fatal(err)
	}
}

func TestGNPEdgeCountNearExpectation(t *testing.T) {
	const n = 200
	const p = 0.05
	g := GNP(n, p, 11)
	expect := p * float64(n) * float64(n-1)
	got := float64(g.NumEdges())
	if got < expect*0.8 || got > expect*1.2 {
		t.Fatalf("GNP edges = %v, expected about %v", got, expect)
	}
	g.ForEdges(func(s, d int64) {
		if s == d {
			t.Fatal("GNP produced self-loop")
		}
	})
	if GNP(50, 0, 1).NumEdges() != 0 {
		t.Fatal("GNP(p=0) has edges")
	}
	full := GNP(10, 1, 1)
	if full.NumEdges() != 90 {
		t.Fatalf("GNP(p=1) edges = %d, want 90", full.NumEdges())
	}
}

func TestBarabasiAlbert(t *testing.T) {
	g := BarabasiAlbert(300, 3, 5)
	if g.NumNodes() != 300 {
		t.Fatalf("BA nodes = %d", g.NumNodes())
	}
	// Each of the 296 arrivals adds exactly 3 edges to the seed clique's 6.
	want := int64(6 + 296*3)
	if g.NumEdges() != want {
		t.Fatalf("BA edges = %d, want %d", g.NumEdges(), want)
	}
	if err := validUndirected(g); err != nil {
		t.Fatal(err)
	}
	// Preferential attachment produces a hub far above the minimum degree.
	degs := []int{}
	g.ForNodes(func(id int64) { degs = append(degs, g.Deg(id)) })
	sort.Ints(degs)
	if degs[len(degs)-1] < 3*degs[0] {
		t.Fatalf("BA degrees not skewed: min %d max %d", degs[0], degs[len(degs)-1])
	}
}

func TestWattsStrogatz(t *testing.T) {
	g := WattsStrogatz(100, 2, 0.1, 9)
	if g.NumNodes() != 100 {
		t.Fatalf("WS nodes = %d", g.NumNodes())
	}
	// Ring lattice has n*k edges; rewiring can only collide occasionally.
	if g.NumEdges() < 180 || g.NumEdges() > 200 {
		t.Fatalf("WS edges = %d, want about 200", g.NumEdges())
	}
	if err := validUndirected(g); err != nil {
		t.Fatal(err)
	}
}

func TestDeterministicTopologies(t *testing.T) {
	if g := Star(5); g.NumNodes() != 6 || g.NumEdges() != 5 || g.InDeg(0) != 5 {
		t.Fatal("Star wrong")
	}
	if g := Ring(7); g.NumEdges() != 7 || !g.HasEdge(6, 0) {
		t.Fatal("Ring wrong")
	}
	grid := Grid(3, 4)
	if grid.NumNodes() != 12 || grid.NumEdges() != int64(3*3+2*4) {
		t.Fatalf("Grid dims = (%d,%d)", grid.NumNodes(), grid.NumEdges())
	}
	if k := Complete(5); k.NumEdges() != 10 {
		t.Fatal("Complete wrong")
	}
}

func TestGeneratorPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"rmat-scale": func() { RMATEdges(0, 1, 0.5, 0.2, 0.2, 1) },
		"gnm-over":   func() { GNM(3, 100, 1) },
		"ba-params":  func() { BarabasiAlbert(2, 2, 1) },
		"ws-params":  func() { WattsStrogatz(3, 2, 0.1, 1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s: expected panic", name)
				}
			}()
			fn()
		}()
	}
}

func TestStackOverflowPosts(t *testing.T) {
	cfg := DefaultSOConfig()
	tbl, err := StackOverflowPosts(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() < cfg.Questions {
		t.Fatalf("rows = %d, want at least %d questions", tbl.NumRows(), cfg.Questions)
	}
	// Questions + answers partition the table.
	qs, err := tbl.Select("Type", table.EQ, "question")
	if err != nil {
		t.Fatal(err)
	}
	if qs.NumRows() != cfg.Questions {
		t.Fatalf("questions = %d", qs.NumRows())
	}
	// Every accepted id refers to an answer post, and answers carry -1.
	accepted, _ := qs.IntCol("AcceptedId")
	ans, err := tbl.Select("Type", table.EQ, "answer")
	if err != nil {
		t.Fatal(err)
	}
	answerIDs := map[int64]bool{}
	ids, _ := ans.IntCol("PostId")
	for _, id := range ids {
		answerIDs[id] = true
	}
	nAccepted := 0
	for _, a := range accepted {
		if a == -1 {
			continue
		}
		nAccepted++
		if !answerIDs[a] {
			t.Fatalf("accepted id %d is not an answer", a)
		}
	}
	if nAccepted == 0 {
		t.Fatal("no question accepted an answer; demo join would be empty")
	}
	aAccepted, _ := ans.IntCol("AcceptedId")
	for _, a := range aAccepted {
		if a != -1 {
			t.Fatal("answer row has non-empty AcceptedId")
		}
	}
	// Every answer's ParentId is a question; questions carry -1.
	questionIDs := map[int64]bool{}
	qIDs, _ := qs.IntCol("PostId")
	for _, id := range qIDs {
		questionIDs[id] = true
	}
	parents, _ := ans.IntCol("ParentId")
	for _, p := range parents {
		if !questionIDs[p] {
			t.Fatalf("answer parent %d is not a question", p)
		}
	}
	qParents, _ := qs.IntCol("ParentId")
	for _, p := range qParents {
		if p != -1 {
			t.Fatal("question row has a parent")
		}
	}
	// Java posts exist for the demo.
	java, err := tbl.Select("Tag", table.EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	if java.NumRows() == 0 {
		t.Fatal("no Java posts generated")
	}
	// Deterministic.
	tbl2, _ := StackOverflowPosts(cfg)
	if tbl2.NumRows() != tbl.NumRows() {
		t.Fatal("generator not deterministic")
	}
}

func TestStackOverflowConfigValidation(t *testing.T) {
	if _, err := StackOverflowPosts(SOConfig{Questions: 0, Users: 5}); err == nil {
		t.Fatal("zero questions accepted")
	}
	if _, err := StackOverflowPosts(SOConfig{Questions: 5, Users: 5, AcceptProb: 2}); err == nil {
		t.Fatal("bad accept probability accepted")
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
