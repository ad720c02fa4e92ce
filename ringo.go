package ringo

import (
	"io"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/repl"
	"ringo/internal/server"
	"ringo/internal/table"
)

// Curated: only names examples/, cmd/, example_test.go, doc.go or README.md
// spell, plus the types their signatures need (TestFacadeExportsAreUsed).

// Sessions: the engine, server and workspace behind the shell and HTTP API.
type (
	// Workspace holds a session's named objects; safe for concurrent use.
	Workspace = core.Workspace
	// Engine evaluates shell command lines against a Workspace.
	Engine = repl.Engine
	// Result is the structured outcome of one evaluated command.
	Result = repl.Result
	// ScriptResult aggregates a script run: per-step results, errors, timings.
	ScriptResult = repl.ScriptResult
	// Server is the multi-session analytics HTTP service.
	Server = server.Server
	// ServerConfig sizes a Server (cache entries, job workers, session cap).
	ServerConfig = server.Config
)

// NewWorkspace returns an empty session workspace.
func NewWorkspace() *Workspace { return core.NewWorkspace() }

// NewEngine returns a command evaluator over ws (a fresh workspace if nil).
func NewEngine(ws *Workspace) *Engine { return repl.New(ws) }

// NewServer returns a multi-session analytics server; Close it when done.
func NewServer(cfg ServerConfig) *Server { return server.New(cfg) }

// RunScript parses and runs a script (docs/COMMANDS.md) on e in one batch.
// The error is a parse error; a failed step lands on ScriptResult.Err.
func RunScript(e *Engine, src string) (*ScriptResult, error) {
	s, err := repl.ParseScript(src)
	if err != nil {
		return nil, err
	}
	return e.EvalScript(s), nil
}

// SnapshotWorkspace writes every binding of ws, with its provenance, version
// and fingerprint, to w in the binary snapshot format (docs/FORMATS.md).
func SnapshotWorkspace(ws *Workspace, w io.Writer) error { return ws.Snapshot(w) }

// RestoreWorkspace reads a SnapshotWorkspace stream into a fresh workspace.
func RestoreWorkspace(r io.Reader) (*Workspace, error) {
	ws := core.NewWorkspace()
	if err := ws.Restore(r); err != nil {
		return nil, err
	}
	return ws, nil
}

// Tables (§2.3).
type (
	// Table is Ringo's column-store relational table.
	Table = table.Table
	// Schema lists a table's columns: name and column type.
	Schema = table.Schema
	// CmpOp is a Select comparison operator.
	CmpOp = table.CmpOp
	// Metric is a SimJoinTables distance metric.
	Metric = table.Metric
)

// Column types, operators and metrics.
const (
	IntCol    = table.Int    // IntCol is the int64 column type.
	FloatCol  = table.Float  // FloatCol is the float64 column type.
	StringCol = table.String // StringCol is the interned string column type.
	EQ        = table.EQ     // EQ is the equality Select operator.
	Count     = table.Count  // Count counts each group's rows (Table.Aggregate).
	Sum       = table.Sum    // Sum adds a column over each group.
	Mean      = table.Mean   // Mean averages a column over each group.
	L2        = table.L2     // L2 is the Euclidean SimJoinTables metric.
)

// NewTable returns an empty table with the given schema.
func NewTable(schema Schema) (*Table, error) { return table.New(schema) }

// LoadTableTSV loads a tab-separated file (header skips the first line):
// the paper's ringo.LoadTableTSV(schema, 'posts.tsv').
func LoadTableTSV(schema Schema, path string, header bool) (*Table, error) {
	return table.LoadTSVFile(path, schema, header)
}

// Select returns the rows of t whose col compares true against val — the
// paper's ringo.Select(P, 'Tag=Java').
func Select(t *Table, col string, op CmpOp, val any) (*Table, error) { return t.Select(col, op, val) }

// Join equi-joins two tables — the paper's ringo.Join(Q, A, 'AnswerId',
// 'PostId'). Colliding column names get -1/-2 suffixes.
func Join(left, right *Table, leftCol, rightCol string) (*Table, error) {
	return left.Join(right, leftCol, rightCol)
}

// NextK joins each row with its next k successors in its group (§2.3).
func NextK(t *Table, groupCol, orderCol string, k int) (*Table, error) {
	return t.NextK(groupCol, orderCol, k)
}

// SimJoinTables joins rows whose feature vectors are within threshold (§2.3).
func SimJoinTables(left, right *Table, leftCols, rightCols []string, threshold float64, m Metric) (*Table, error) {
	return left.SimJoin(right, leftCols, rightCols, threshold, m)
}

// Graphs (§2.2) and the conversions between tables and graphs (§2.4).
type (
	// Graph is the read-only directed graph the verbs bind: node ids in
	// ascending order, both adjacency directions as CSR arrays. Out, In,
	// OutDeg and InDeg take a node's dense index; Index maps an id to it.
	Graph = graph.View
	// UGraph is its undirected counterpart, one CSR adjacency array.
	UGraph = graph.UView
)

// ToGraph converts an edge table to a directed graph (parallel sort-first).
func ToGraph(t *Table, srcCol, dstCol string) (*Graph, error) {
	return conv.ToView(t, srcCol, dstCol)
}

// ToUGraph converts an edge table to an undirected graph: each row (u,v)
// contributes the edge {u,v}, duplicates and reverse duplicates collapse.
func ToUGraph(t *Table, srcCol, dstCol string) (*UGraph, error) {
	g, err := conv.ToView(t, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	return graph.ProjectUView(g), nil
}

// ToTable converts a directed graph back to an edge table, in parallel.
func ToTable(g *Graph, srcName, dstName string) (*Table, error) {
	return conv.ToEdgeTable(g, srcName, dstName)
}

// AsUndirected returns the undirected projection of a directed graph.
func AsUndirected(g *Graph) *UGraph { return graph.ProjectUView(g) }

// LoadEdgeListParallel reads a SNAP-style edge list file on all cores.
func LoadEdgeListParallel(path string) (*Graph, error) {
	return graph.LoadEdgeListParallelFile(path)
}

// TableFromMap builds a (key, score) table, descending by score — the
// paper's ringo.TableFromHashMap(PR, 'User', 'Scr').
func TableFromMap(m Scores, keyCol, valCol string) (*Table, error) {
	return core.TableFromMap(m, keyCol, valCol)
}

// TableFromIntMap builds a (key, value) table ascending by key.
func TableFromIntMap(m map[int64]int, keyCol, valCol string) (*Table, error) {
	return core.TableFromIntMap(m, keyCol, valCol)
}

// Algorithm results.
type (
	// Scores holds one Scored per node in ascending id order; read-only.
	Scores = algo.Scores
	// Scored pairs a node with a score.
	Scored = algo.Scored
	// Components is a connected-component decomposition.
	Components = algo.Components
	// HITSScores holds hub and authority score vectors.
	HITSScores = algo.HITSScores
	// DegreeStats summarizes a degree distribution.
	DegreeStats = algo.DegreeStats
)

// GetPageRank runs Table 3's PageRank: 10 parallel iterations, damping 0.85.
func GetPageRank(g *Graph) Scores { return algo.PageRankView(g, algo.DefaultDamping, 10) }

// GetHits computes hub and authority scores (Kleinberg's HITS).
func GetHits(g *Graph, iters int) HITSScores { return algo.HITSView(g, iters) }

// GetWCC computes weakly connected components.
func GetWCC(g *Graph) Components { return algo.WCCView(g) }

// GetSCC computes strongly connected components (iterative Tarjan, Table 6).
func GetSCC(g *Graph) Components { return algo.SCCView(g) }

// CountTriangles counts undirected triangles in parallel (Table 3).
func CountTriangles(g *UGraph) int64 { return algo.TrianglesView(g) }

// GetClusteringCoefficient returns the average local clustering coefficient.
func GetClusteringCoefficient(g *UGraph) float64 { return algo.ClusteringCoefficientView(g) }

// GetKCore returns the k-core subgraph (Table 6 benchmarks the 3-core).
func GetKCore(g *UGraph, k int) *UGraph { return algo.KCore(g, k) }

// GetApproxDiameter estimates the diameter from sampled BFS runs.
func GetApproxDiameter(g *Graph, samples int, seed int64) int {
	return algo.ApproxDiameterView(g, samples, seed)
}

// GetCommunities runs label-propagation community detection.
func GetCommunities(g *UGraph, maxIters int, seed int64) map[int64]int {
	return algo.LabelPropagationView(g, maxIters, seed)
}

// GetModularity scores a community assignment.
func GetModularity(g *UGraph, comm map[int64]int) float64 {
	return algo.ModularityView(g, comm)
}

// Louvain maximizes modularity, returning the partition and its modularity.
func Louvain(g *UGraph, maxPasses int) (map[int64]int, float64) {
	return algo.LouvainView(g, maxPasses)
}

// GetOutDegreeStats summarizes the out-degree distribution.
func GetOutDegreeStats(g *Graph) DegreeStats { return algo.OutDegreeStats(g) }

// GetInDegreeStats summarizes the in-degree distribution.
func GetInDegreeStats(g *Graph) DegreeStats { return algo.InDegreeStats(g) }

// MaxNode returns the node with the highest out-degree.
func MaxNode(g *Graph) (id int64, deg int, ok bool) { return algo.MaxDegreeNode(g) }

// SimulateCascade runs an independent cascade from seeds (node → round).
func SimulateCascade(g *Graph, seeds []int64, p float64, seed int64) map[int64]int {
	return algo.IndependentCascade(g, seeds, p, seed)
}

// TopK returns the k highest-scored nodes, descending.
func TopK(scores Scores, k int) []Scored { return algo.TopK(scores, k) }

// SOConfig configures the synthetic StackOverflow posts generator.
type SOConfig = gen.SOConfig

// DefaultSOConfig returns the demo-sized StackOverflow configuration.
func DefaultSOConfig() SOConfig { return gen.DefaultSOConfig() }

// GenStackOverflowPosts generates the §4.1 demo's synthetic Q&A posts table.
func GenStackOverflowPosts(cfg SOConfig) (*Table, error) { return gen.StackOverflowPosts(cfg) }

// GenRMATTable generates an R-MAT edge table: 2^scale ids, nEdges rows.
func GenRMATTable(scale int, nEdges int64, seed int64) *Table {
	return gen.RMATTable(scale, nEdges, seed)
}
