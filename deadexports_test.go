package ringo_test

import (
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"
	"testing"
)

// deadExportAllowlist names the internal/ declarations that stay although
// no program reaches them, keyed "<package>.<Name>" (a method:
// "<package>.<Type>.<Name>") with the package path relative to internal/.
// Each value says why the name stays.
// TestNoDeadExports fails on an entry that is no longer declared or that
// some other live declaration now reaches, so the list only ever shrinks.
var deadExportAllowlist = map[string]string{
	// Analyses of the paper's library (§3) with one implementation each
	// and no verb yet; their tests are their only callers. What they use
	// follows from them: result and parameter types (MSTEdge,
	// PredictedLink, SIRResult, WeightFunc) and AdamicAdar, the score
	// PredictLinks ranks by.
	"algo.ApproxBetweennessView":    "centrality: sampled betweenness",
	"algo.BipartitionView":          "structure: two-coloring test",
	"algo.ClosenessView":            "centrality: closeness",
	"algo.CommonNeighbors":          "link prediction: common-neighbor count",
	"algo.DegreeAssortativity":      "statistics: degree assortativity",
	"algo.DegreeCentrality":         "centrality: normalized degree",
	"algo.DegreeHistogram":          "statistics: out-degree histogram (SNAP GetOutDegCnt)",
	"algo.DegreePercentiles":        "statistics: out-degree percentiles",
	"algo.DijkstraView":             "traversal: weighted shortest paths",
	"algo.EccentricityView":         "centrality: eccentricity",
	"algo.EffectiveDiameterView":    "statistics: 90th-percentile effective diameter",
	"algo.GreedyColoring":           "combinatorics: greedy vertex coloring",
	"algo.IndependentSetGreedy":     "combinatorics: greedy independent set",
	"algo.IsDAG":                    "structure: acyclicity test",
	"algo.Jaccard":                  "link prediction: Jaccard similarity",
	"algo.MaximalMatching":          "combinatorics: greedy maximal matching",
	"algo.MinimumSpanningForest":    "structure: Kruskal minimum spanning forest",
	"algo.NodeTrianglesView":        "triangles: per-node counts",
	"algo.PersonalizedPageRankView": "ranking: random walk with restart",
	"algo.PowerLawExponent":         "statistics: degree power-law fit",
	"algo.PredictLinks":             "link prediction: ranked candidate edges",
	"algo.PreferentialAttachment":   "link prediction: degree-product score",
	"algo.Reciprocity":              "statistics: edge reciprocity",
	"algo.SIR":                      "diffusion: SIR epidemic model",
	"algo.ShortestPathView":         "traversal: unweighted point-to-point distance",

	// Generators of the library's synthetic graphs; tests build their
	// inputs with them, the programs use R-MAT and the posts generator.
	"gen.BarabasiAlbert": "generator: preferential attachment",
	"gen.Complete":       "generator: complete graph",
	"gen.GNM":            "generator: Erdős–Rényi G(n,m)",
	"gen.GNP":            "generator: Erdős–Rényi G(n,p)",
	"gen.Grid":           "generator: 2-D grid",
	"gen.Ring":           "generator: cycle",
	"gen.Star":           "generator: star",
	"gen.WattsStrogatz":  "generator: small world",

	"table.MustNew": "New for schemas fixed in source; panics instead of returning the error",
	"table.LoadTSV": "io.Reader form of LoadTSVFile; the loader's oracle test and fuzz target drive it",
	"table.LInf":    "Chebyshev metric, the third of SimJoin's three metrics",

	// Relational operators of the table library (§3) that no verb
	// exposes yet; their tests are their only callers. AddIntColumn
	// follows from GroupCol.
	"table.Table.Union":              "set union of two tables, duplicates dropped",
	"table.Table.UnionAll":           "concatenation of two tables",
	"table.Table.Intersect":          "set intersection of two tables",
	"table.Table.Minus":              "set difference of two tables",
	"table.Table.LeftJoin":           "left outer join",
	"table.Table.Unique":             "distinct rows over key columns",
	"table.Table.Sample":             "uniform row sample",
	"table.Table.Head":               "first n rows",
	"table.Table.GroupCol":           "group id as a new column",
	"table.Table.AddIntColumnFunc":   "computed Int column, one call per row",
	"table.Table.AddFloatColumnFunc": "computed Float column, one call per row",

	// The rest of the table and graph library surface: accessors,
	// column aggregates and node deletion no program calls yet.
	"table.Table.ColType":        "schema: the type of a named column",
	"table.Table.RowIDs":         "persistent row ids in row order",
	"table.Table.ColSumInt":      "column aggregate: sum of an Int column",
	"table.Table.ColMinMaxFloat": "column aggregate: range of a numeric column",
	"graph.Directed.InNeighbors": "in-side twin of OutNeighbors",
	"graph.Directed.DelNode":     "mutation: delete a node and its edges",
	"graph.Undirected.DelNode":   "mutation: delete a node and its edges",
	"graph.NewDirected":          "empty graph grown by AddNode/AddEdge; programs bulk-build instead",

	// Incremental kernels whose fate the incremental loop decides (each
	// is bit- or exactly equal to its cold kernel, which its tests check).
	"algo.PageRankIncr":       "incremental PageRank, not yet wired to a verb",
	"algo.PageRankViewTol":    "cold PageRank to a tolerance, the oracle of PageRankIncr",
	"algo.WCCIncr":            "incremental WCC, not yet wired to a verb",
	"algo.TrianglesIncr":      "incremental triangle count, not yet wired to a verb",
	"algo.DefaultPageRankTol": "tolerance of the incremental PageRank oracle",
}

// declKey names a declaration: the directory of its package (relative to
// the repository root) and its name, "<Type>.<Name>" for a method.
type declKey struct{ dir, name string }

// implicitMethods are the method names the standard library calls through
// its own interfaces (fmt.Stringer, error, http.Handler, io.Reader/Writer/
// Closer, sort.Interface, heap.Interface, json.Marshaler/Unmarshaler,
// errors.Unwrap), so no selector in the tree spells them.
var implicitMethods = map[string]bool{
	"String": true, "Error": true, "ServeHTTP": true,
	"Read": true, "Write": true, "Close": true,
	"Len": true, "Less": true, "Swap": true, "Push": true, "Pop": true,
	"MarshalJSON": true, "UnmarshalJSON": true, "Unwrap": true,
}

// TestNoDeadExports holds internal/ to the rule that every declaration —
// exported or not, top-level or method — is reachable from a program, so
// code only tests use lives in a _test.go file. The roots are every
// declaration in a non-test file outside internal/ (cmd/, examples/, the
// root facade and the nested benchmark/ module), every init func and blank
// package-level declaration, and the allowlist above; a top-level
// declaration is live when a live declaration names it, with pkg.Name
// resolved through the naming file's imports. A method is live when its
// type is live and its name is selected (x.Name, on any receiver) by a live
// declaration, declared by an interface in the tree, or in implicitMethods.
// The scan is syntactic and errs towards liveness — a local that shadows a
// package-level name, or a field that shares a method's name, makes that
// name look used — so it never asks for reachable code to be deleted.
func TestNoDeadExports(t *testing.T) {
	type pkgFile struct {
		dir string
		f   *ast.File
	}
	var files []pkgFile
	fset := token.NewFileSet()
	err := filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != "." && (strings.HasPrefix(d.Name(), ".") || d.Name() == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") || strings.HasSuffix(path, "_test.go") {
			return nil
		}
		f, err := parser.ParseFile(fset, path, nil, parser.SkipObjectResolution)
		if err != nil {
			return err
		}
		files = append(files, pkgFile{filepath.ToSlash(filepath.Dir(path)), f})
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pass 1: every package's name, top-level names and methods (filed
	// under their type and under their name), and the method names every
	// interface declares.
	pkgName := map[string]string{}
	declared := map[declKey]bool{}
	methodsOf := map[declKey][]declKey{}
	methodsNamed := map[string][]declKey{}
	interfaceMethods := map[string]bool{}
	for _, pf := range files {
		pkgName[pf.dir] = pf.f.Name.Name
		ast.Inspect(pf.f, func(n ast.Node) bool {
			if it, ok := n.(*ast.InterfaceType); ok {
				for _, m := range it.Methods.List {
					for _, id := range m.Names {
						interfaceMethods[id.Name] = true
					}
				}
			}
			return true
		})
		for _, decl := range pf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				if d.Recv != nil {
					typ := declKey{pf.dir, receiverType(d.Recv.List[0].Type)}
					k := declKey{pf.dir, typ.name + "." + d.Name.Name}
					declared[k] = true
					methodsOf[typ] = append(methodsOf[typ], k)
					methodsNamed[d.Name.Name] = append(methodsNamed[d.Name.Name], k)
				} else if d.Name.Name != "init" {
					declared[declKey{pf.dir, d.Name.Name}] = true
				}
			case *ast.GenDecl:
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						declared[declKey{pf.dir, s.Name.Name}] = true
					case *ast.ValueSpec:
						for _, n := range s.Names {
							declared[declKey{pf.dir, n.Name}] = true
						}
					}
				}
			}
		}
	}

	// Pass 2: the names each declaration mentions, and the names it selects
	// (x.Name) that a method may answer to. Roots collect under the
	// pseudo-name "" of their package.
	refs := map[declKey][]declKey{}
	selects := map[declKey][]string{}
	var roots []declKey
	for _, pf := range files {
		imports := map[string]string{} // local name -> package dir, "" outside the module
		for _, is := range pf.f.Imports {
			path, _ := strconv.Unquote(is.Path.Value)
			dir := ""
			if path == "ringo" {
				dir = "."
			} else if rest, ok := strings.CutPrefix(path, "ringo/"); ok {
				dir = rest
			}
			name := pkgName[dir]
			if is.Name != nil {
				name = is.Name.Name
			} else if dir == "" {
				name = path[strings.LastIndex(path, "/")+1:]
			}
			imports[name] = dir
		}
		var from declKey
		var visit func(ast.Node) bool
		visit = func(n ast.Node) bool {
			switch x := n.(type) {
			case *ast.SelectorExpr:
				if id, ok := x.X.(*ast.Ident); ok {
					if dir, ok := imports[id.Name]; ok {
						if dir != "" {
							refs[from] = append(refs[from], declKey{dir, x.Sel.Name})
						}
						return false
					}
				}
				ast.Inspect(x.X, visit) // x.Sel is a field or method
				selects[from] = append(selects[from], x.Sel.Name)
				return false
			case *ast.Field:
				ast.Inspect(x.Type, visit) // x.Names are fields or parameters
				return false
			case *ast.Ident:
				if k := (declKey{pf.dir, x.Name}); declared[k] && k != from {
					refs[from] = append(refs[from], k)
				}
			}
			return true
		}
		walk := func(k declKey, nodes ...ast.Node) {
			from = k
			for _, n := range nodes {
				if !isNil(n) {
					ast.Inspect(n, visit)
				}
			}
		}
		root := pf.dir != "internal" && !strings.HasPrefix(pf.dir, "internal/")
		for _, decl := range pf.f.Decls {
			switch d := decl.(type) {
			case *ast.FuncDecl:
				k := declKey{pf.dir, d.Name.Name}
				if d.Recv != nil {
					k.name = receiverType(d.Recv.List[0].Type) + "." + k.name
					walk(k, d.Recv, d.Type, d.Body)
					break
				}
				if k.name == "init" {
					k.name = ""
				}
				walk(k, d.Type, d.Body)
				if root {
					roots = append(roots, k)
				}
			case *ast.GenDecl:
				counted := d.Tok == token.CONST && usesIota(d)
				var prev []*ast.Ident
				for _, spec := range d.Specs {
					switch s := spec.(type) {
					case *ast.TypeSpec:
						k := declKey{pf.dir, s.Name.Name}
						walk(k, s.TypeParams, s.Type)
						if root {
							roots = append(roots, k)
						}
					case *ast.ValueSpec:
						for _, n := range s.Names {
							k := declKey{pf.dir, n.Name}
							if k.name == "_" {
								k.name = ""
							}
							walk(k, s.Type)
							for _, v := range s.Values {
								walk(k, v)
							}
							// In an iota group a member's value depends
							// on every member before it.
							if counted {
								for _, p := range prev {
									refs[k] = append(refs[k], declKey{pf.dir, p.Name})
								}
							}
							if root {
								roots = append(roots, k)
							}
						}
						prev = s.Names
					}
				}
			}
		}
	}
	for _, pf := range files {
		roots = append(roots, declKey{pf.dir, ""})
	}

	allow := map[declKey]string{}
	for name := range deadExportAllowlist {
		pkg, n, _ := strings.Cut(name, ".")
		k := declKey{"internal/" + pkg, n}
		allow[k] = name
		if !declared[k] {
			t.Errorf("allowlist entry %s is not declared: drop it", name)
		}
		roots = append(roots, k)
	}

	// A method enters the work list once both its type is live and its
	// name is called for; whichever comes second pushes it.
	live := map[declKey]bool{}
	called := map[string]bool{}
	for name := range implicitMethods {
		called[name] = true
	}
	for name := range interfaceMethods {
		called[name] = true
	}
	for len(roots) > 0 {
		k := roots[len(roots)-1]
		roots = roots[:len(roots)-1]
		if live[k] {
			continue
		}
		live[k] = true
		roots = append(roots, refs[k]...)
		for _, m := range methodsOf[k] {
			if called[methodName(m)] {
				roots = append(roots, m)
			}
		}
		for _, name := range selects[k] {
			if called[name] {
				continue
			}
			called[name] = true
			for _, m := range methodsNamed[name] {
				if live[methodType(m)] {
					roots = append(roots, m)
				}
			}
		}
	}

	// An allowlist entry is stale when some other live declaration reaches
	// it: names it, or — for a method of a live type — selects its name.
	var stale []string
	for k := range live {
		for _, r := range refs[k] {
			if name, ok := allow[r]; ok && r != k {
				stale = append(stale, name)
			}
		}
	}
	for r, name := range allow {
		if !strings.Contains(r.name, ".") || !live[methodType(r)] {
			continue
		}
		m := methodName(r)
		reached := implicitMethods[m] || interfaceMethods[m]
		for k := range live {
			if k != r && slices.Contains(selects[k], m) {
				reached = true
			}
		}
		if reached {
			stale = append(stale, name)
		}
	}
	// A method of a dead type goes with its type, so only methods of live
	// types are reported on their own.
	var dead []string
	for k := range declared {
		if !strings.HasPrefix(k.dir, "internal/") || live[k] {
			continue
		}
		if strings.Contains(k.name, ".") && !live[methodType(k)] {
			continue
		}
		dead = append(dead, strings.TrimPrefix(k.dir, "internal/")+"."+k.name)
	}
	sort.Strings(stale)
	stale = slices.Compact(stale)
	sort.Strings(dead)
	for _, name := range stale {
		t.Errorf("allowlist entry %s is reached by a live declaration: drop it", name)
	}
	if len(dead) > 0 {
		t.Errorf("%d internal/ declarations are reached by no program (cmd/, examples/, the ringo facade, benchmark/): "+
			"delete them, move the ones only tests use into a _test.go file, "+
			"or add each to deadExportAllowlist with its reason:\n\t%s",
			len(dead), strings.Join(dead, "\n\t"))
	}
}

// isNil reports a missing optional node: a nil interface, or a nil body or
// type-parameter list, which ast.Inspect cannot walk.
func isNil(n ast.Node) bool {
	switch x := n.(type) {
	case *ast.FieldList:
		return x == nil
	case *ast.BlockStmt:
		return x == nil
	}
	return n == nil
}

// receiverType is the type name under a method receiver: T, *T, T[K] or *T[K, V].
func receiverType(e ast.Expr) string {
	for {
		switch x := e.(type) {
		case *ast.StarExpr:
			e = x.X
		case *ast.IndexExpr:
			e = x.X
		case *ast.IndexListExpr:
			e = x.X
		case *ast.Ident:
			return x.Name
		default:
			panic("unexpected receiver type")
		}
	}
}

// methodType is the type a method key "<Type>.<Name>" belongs to.
func methodType(k declKey) declKey {
	typ, _, _ := strings.Cut(k.name, ".")
	return declKey{k.dir, typ}
}

// methodName is the name of a method key "<Type>.<Name>".
func methodName(k declKey) string {
	_, name, _ := strings.Cut(k.name, ".")
	return name
}

// usesIota reports whether a const group's values count with iota.
func usesIota(d *ast.GenDecl) bool {
	found := false
	ast.Inspect(d, func(n ast.Node) bool {
		if id, ok := n.(*ast.Ident); ok && id.Name == "iota" {
			found = true
		}
		return !found
	})
	return found
}
