package ringo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strings"
	"testing"

	"ringo"
	"ringo/internal/algo"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// facadeUse matches a spelled facade name, ringo.<Exported>.
var facadeUse = regexp.MustCompile(`\bringo\.([A-Z][A-Za-z0-9_]*)`)

// TestFacadeExportsAreUsed holds ringo.go to its inclusion rule: an exported
// name stays only if a non-test .go file under examples/ or cmd/,
// example_test.go, doc.go or README.md spells it as ringo.<Name>, or if it
// is a type in the signature of a function that stays. A name that fails
// the rule belongs in its internal package, not in the facade.
func TestFacadeExportsAreUsed(t *testing.T) {
	sources := []string{"example_test.go", "doc.go", "README.md"}
	for _, dir := range []string{"examples", "cmd"} {
		err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
			if err == nil && !d.IsDir() && strings.HasSuffix(path, ".go") && !strings.HasSuffix(path, "_test.go") {
				sources = append(sources, path)
			}
			return err
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	used := map[string]bool{}
	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, m := range facadeUse.FindAllStringSubmatch(string(data), -1) {
			used[m[1]] = true
		}
	}

	f, err := parser.ParseFile(token.NewFileSet(), "ringo.go", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	types := map[string]bool{} // exported type names
	var names []string         // every exported name
	for _, decl := range f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			names = append(names, d.Name.Name)
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					types[s.Name.Name] = true
					names = append(names, s.Name.Name)
				case *ast.ValueSpec:
					for _, n := range s.Names {
						names = append(names, n.Name)
					}
				}
			}
		}
	}
	// Types a kept function's parameters or results mention stay too.
	for _, decl := range f.Decls {
		if fd, ok := decl.(*ast.FuncDecl); ok && used[fd.Name.Name] {
			ast.Inspect(fd.Type, func(n ast.Node) bool {
				if id, ok := n.(*ast.Ident); ok && types[id.Name] {
					used[id.Name] = true
				}
				return true
			})
		}
	}
	var unused []string
	for _, n := range names {
		if ast.IsExported(n) && !used[n] {
			unused = append(unused, n)
		}
	}
	sort.Strings(unused)
	if len(unused) > 0 {
		t.Errorf("ringo.go exports %d names no example, cmd, example_test.go, doc.go or README.md uses: %s",
			len(unused), strings.Join(unused, ", "))
	}
}

// TestToUGraphMergesDirections: ToUGraph makes each row (u,v) the edge
// {u,v}, so reverse duplicates collapse and a self-loop is one edge.
func TestToUGraphMergesDirections(t *testing.T) {
	tbl, err := ringo.NewTable(ringo.Schema{{Name: "src", Type: ringo.IntCol}, {Name: "dst", Type: ringo.IntCol}})
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range [][2]int64{{1, 2}, {2, 1}, {2, 3}, {4, 4}} {
		if err := tbl.AppendRow(e[0], e[1]); err != nil {
			t.Fatal(err)
		}
	}
	g, err := ringo.ToUGraph(tbl, "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 { // {1,2}, {2,3}, {4,4}
		t.Fatalf("undirected edges = %d, want 3", g.NumEdges())
	}
	if err := validUndirected(g, tbl, "src", "dst"); err != nil {
		t.Fatal(err)
	}
}

// uview is the CSR view of the undirected graph with the given edges:
// BuildViewCols of one arc per edge, projected.
func uview(edges [][2]int64) *graph.UView {
	var srcs, dsts []int64
	for _, e := range edges {
		srcs, dsts = append(srcs, e[0]), append(dsts, e[1])
	}
	v, err := graph.BuildViewCols(srcs, dsts, nil)
	if err != nil {
		panic(err)
	}
	return graph.ProjectUView(v)
}

// The tests below predate the curated facade. The capabilities they cover
// left it but not the engine, so each now reaches them through its
// internal package: the facade lost names, not behaviour.

func TestFacadeStructuralAlgorithms(t *testing.T) {
	// Two triangles joined at node 2, with a pendant 4-9 edge.
	uv := uview([][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}, {3, 4}, {2, 4}, {4, 9}})
	cuts := algo.ArticulationPointsView(uv)
	if len(cuts) != 2 || cuts[0] != 2 || cuts[1] != 4 {
		t.Fatalf("articulation points = %v", cuts)
	}
	bridges := algo.BridgesView(uv)
	if len(bridges) != 1 || bridges[0] != [2]int64{4, 9} {
		t.Fatalf("bridges = %v", bridges)
	}
	if _, ok := algo.BipartitionView(uv); ok {
		t.Fatal("triangle-containing graph reported bipartite")
	}
	edges, total := algo.MinimumSpanningForest(uv, func(a, b int64) float64 { return 1 })
	if len(edges) != uv.NumNodes()-1 {
		t.Fatalf("spanning tree edges = %d", len(edges))
	}
	if total != float64(uv.NumNodes()-1) {
		t.Fatalf("unit-weight MST total = %v", total)
	}
}

func TestFacadeDAGVerbs(t *testing.T) {
	nodes := gen.GNM(10, 0, 1).IDs() // nodes only
	g, err := graph.BuildViewCols([]int64{1, 2}, []int64{2, 3}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	order, err := algo.TopoSortView(g)
	if err != nil || len(order) != 10 {
		t.Fatalf("topo sort = (%d, %v)", len(order), err)
	}
	cyclic, err := graph.BuildViewCols([]int64{1, 2, 3}, []int64{2, 3, 1}, nodes)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := algo.TopoSortView(cyclic); err == nil {
		t.Fatal("cycle accepted as DAG")
	}
}

func TestFacadeMotifs(t *testing.T) {
	g, err := graph.BuildViewCols([]int64{1, 2, 3}, []int64{2, 3, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	mc := algo.CountMotifsView(g)
	if mc.CyclicTriangles != 1 {
		t.Fatalf("motifs = %+v", mc)
	}
}

func TestFacadeLinkPredictionAndStats(t *testing.T) {
	u := uview([][2]int64{{1, 2}, {2, 3}, {3, 4}, {4, 1}, {5, 1}, {5, 2}, {5, 3}})
	if algo.CommonNeighbors(u, 1, 3) != 3 {
		t.Fatal("common neighbors")
	}
	if algo.Jaccard(u, 1, 3) != 1 {
		t.Fatal("jaccard")
	}
	if algo.AdamicAdar(u, 1, 3) <= 0 {
		t.Fatal("adamic-adar")
	}
	if algo.PreferentialAttachment(u, 1, 3) != 9 {
		t.Fatal("preferential attachment")
	}
	preds := algo.PredictLinks(u, 5)
	if len(preds) == 0 || preds[0].U != 1 || preds[0].V != 3 {
		t.Fatalf("predictions = %v", preds)
	}

	g, err := graph.BuildViewCols([]int64{1, 2, 2}, []int64{2, 1, 3}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if r := algo.Reciprocity(g); r < 0.6 || r > 0.7 {
		t.Fatalf("reciprocity = %v", r)
	}
	if a := algo.DegreeAssortativity(u); a < -1 || a > 1 {
		t.Fatalf("assortativity = %v", a)
	}
	big := gen.BarabasiAlbert(1500, 3, 2)
	if _, ok := algo.PowerLawExponent(big, 3); !ok {
		t.Fatal("power law fit failed")
	}
	d := gen.GNM(200, 1200, 3)
	if e := algo.EffectiveDiameterView(d, 20, 1); e <= 0 {
		t.Fatalf("effective diameter = %v", e)
	}
	if p := algo.DegreePercentiles(d, []float64{50, 90}); p[1] < p[0] {
		t.Fatalf("percentiles = %v", p)
	}
}

func TestFacadeDiffusion(t *testing.T) {
	var srcs, dsts []int64
	for i := int64(0); i < 10; i++ {
		srcs, dsts = append(srcs, i), append(dsts, i+1)
	}
	g, err := graph.BuildViewCols(srcs, dsts, nil)
	if err != nil {
		t.Fatal(err)
	}
	active := ringo.SimulateCascade(g, []int64{0}, 1.0, 1)
	if len(active) != 11 {
		t.Fatalf("cascade reached %d", len(active))
	}
	res := algo.SIR(graph.ProjectUView(g), []int64{5}, 1.0, 1.0, 1)
	if len(res.Infected) != 11 {
		t.Fatalf("SIR reached %d", len(res.Infected))
	}
}

func TestFacadeSelectExpr(t *testing.T) {
	posts, err := ringo.GenStackOverflowPosts(ringo.DefaultSOConfig())
	if err != nil {
		t.Fatal(err)
	}
	viaExpr, err := posts.SelectExpr("Tag = Java and Type = question")
	if err != nil {
		t.Fatal(err)
	}
	jp, _ := ringo.Select(posts, "Tag", ringo.EQ, "Java")
	viaOps, _ := ringo.Select(jp, "Type", ringo.EQ, "question")
	if viaExpr.NumRows() != viaOps.NumRows() {
		t.Fatalf("expression path %d rows, operator path %d", viaExpr.NumRows(), viaOps.NumRows())
	}
}

func TestFacadeCombinatorialAlgorithms(t *testing.T) {
	uv := gen.BarabasiAlbert(120, 2, 9)
	comm, q := ringo.Louvain(uv, 10)
	if len(comm) != 120 {
		t.Fatal("Louvain labels missing nodes")
	}
	if lp := ringo.GetModularity(uv, ringo.GetCommunities(uv, 15, 1)); q+1e-9 < lp {
		t.Fatalf("Louvain modularity %v below label propagation %v", q, lp)
	}
	color, k := algo.GreedyColoring(uv)
	if k < 2 {
		t.Fatalf("colors = %d", k)
	}
	for a, id := range uv.IDs() {
		for _, b := range uv.Adj(int32(a)) {
			if b != int32(a) && color[id] == color[uv.ID(b)] {
				t.Fatal("improper coloring")
			}
		}
	}
	m := algo.MaximalMatching(uv)
	if len(m) == 0 {
		t.Fatal("empty matching")
	}
	is := algo.IndependentSetGreedy(uv)
	if len(is) == 0 {
		t.Fatal("empty independent set")
	}
}
