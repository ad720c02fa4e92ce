// Package repl is the Ringo command evaluator: the interpreter for the
// shell's verb language (load, select, join, tograph, pagerank, ...),
// extracted out of the terminal front-end so the same engine can serve an
// interactive TTY, an HTTP session, or a script. Eval parses one command
// line, executes it against a core.Workspace, and returns a structured
// Result; front-ends decide how to present it (Render reproduces the
// classic shell text, the server marshals it as JSON).
//
// Expensive analytics (pagerank, algo) are cached at two levels, both keyed
// by the input object's workspace fingerprint. A result cache (SetCache)
// stores finished answers, so repeating the exact command over an unchanged
// graph is served without any computation. Beneath it, a graph binding is
// the flat-array CSR view the algorithms run over, and a directed one holds
// its undirected projection once queried, so a *different* analytics
// command over the same unchanged graph skips the O(V+E) dense conversion
// and goes straight to flat-array compute — the paper's build-once,
// query-many interactivity model. Any rebind or touch of the graph moves
// its fingerprint, so no result cached for the old state is served.
package repl

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"strconv"
	"strings"
	"time"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/core"
	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/obs"
	"ringo/internal/table"
)

// Result is the structured outcome of one evaluated command. Message holds
// the deterministic one-line summary; tabular payloads (ls, show, top) are
// carried in Columns/Rows; ElapsedNS and Cached describe how the result was
// obtained and are excluded from result equality across front-ends.
type Result struct {
	Cmd       string     `json:"cmd"`
	Bound     string     `json:"bound,omitempty"`
	Kind      string     `json:"kind,omitempty"`
	Message   string     `json:"message,omitempty"`
	Columns   []string   `json:"columns,omitempty"`
	Rows      [][]string `json:"rows,omitempty"`
	Truncated int        `json:"truncated,omitempty"`
	ElapsedNS int64      `json:"elapsed_ns,omitempty"`
	Cached    bool       `json:"cached,omitempty"`
}

// CachedResult is the cacheable payload of an expensive analytics command:
// the deterministic message, plus the score vector for commands that bind
// one (shared with the workspace binding, so never modified).
type CachedResult struct {
	Message string
	Scores  algo.Scores
}

// Cache stores computed analytics results keyed by (input fingerprint,
// command). Implementations must be safe for concurrent use.
type Cache interface {
	Get(key string) (CachedResult, bool)
	Put(key string, v CachedResult)
}

// Engine evaluates the Ringo command language against a workspace.
// The zero value is not usable; construct with New. An Engine itself adds
// no locking beyond the workspace's: callers that need command-level
// atomicity (a server session) wrap Eval in their own lock, using ReadOnly
// to decide between shared and exclusive acquisition.
type Engine struct {
	ws    *core.Workspace
	cache Cache
	// metrics is the engine's own per-verb registry: call/error counters
	// and latency histograms recorded by every Eval, rendered by the
	// stats verb. Always present; see obs.go.
	metrics *obs.Registry
	// tel is the host's observability wiring (shared registry, slow-query
	// log); the zero value disables it.
	tel Telemetry
	// sourceDepth tracks source-verb nesting so self-sourcing scripts
	// fail at maxSourceDepth instead of recursing forever.
	sourceDepth int
}

// New returns an engine over the given workspace (a fresh one if nil).
func New(ws *core.Workspace) *Engine {
	if ws == nil {
		ws = core.NewWorkspace()
	}
	return &Engine{ws: ws, metrics: obs.NewRegistry()}
}

// SetCache installs a result cache (nil disables caching).
func (e *Engine) SetCache(c Cache) { e.cache = c }

// Workspace exposes the engine's backing workspace.
func (e *Engine) Workspace() *core.Workspace { return e.ws }

// verb describes one command of the shell language: its handler plus the
// properties front-ends key dispatch decisions off. The table is the single
// source of truth — Eval dispatches from it, ReadOnly/TouchesFiles/
// ReplacesWorkspace consult it, and the drift test in engine_docs_test.go
// checks docs/COMMANDS.md against it.
type verb struct {
	run func(e *Engine, r *Result, args []string) error
	// mutates marks state-changing commands; everything else (ls, show,
	// top, algo, save, snapshot, help) only reads workspace state.
	mutates bool
	// files marks commands that read or write host files. A network
	// front-end serving untrusted clients uses this to refuse host
	// filesystem access while the local shell keeps the verbs.
	files bool
	// replaces marks commands that may swap out the entire workspace
	// contents rather than touching individual bindings (restore, and
	// source — whose script may contain a restore step).
	replaces bool
}

// verbs is the command table. Handlers taking no positional arguments are
// adapted inline.
var verbs = map[string]verb{
	"help": {run: func(e *Engine, r *Result, _ []string) error {
		r.Message = HelpText
		return nil
	}},
	"ls":           {run: func(e *Engine, r *Result, _ []string) error { return e.cmdLs(r) }},
	"gen":          {run: (*Engine).cmdGen, mutates: true},
	"load":         {run: (*Engine).cmdLoad, mutates: true, files: true},
	"loadgraph":    {run: (*Engine).cmdLoadGraph, mutates: true, files: true},
	"mapgraph":     {run: (*Engine).cmdMapGraph, mutates: true, files: true},
	"select":       {run: (*Engine).cmdSelect, mutates: true},
	"filter":       {run: (*Engine).cmdFilter, mutates: true},
	"join":         {run: (*Engine).cmdJoin, mutates: true},
	"project":      {run: (*Engine).cmdProject, mutates: true},
	"groupcount":   {run: (*Engine).cmdGroupCount, mutates: true},
	"order":        {run: (*Engine).cmdOrder, mutates: true},
	"tograph":      {run: (*Engine).cmdToGraph, mutates: true},
	"totable":      {run: (*Engine).cmdToTable, mutates: true},
	"addedge":      {run: (*Engine).cmdAddEdge, mutates: true},
	"deledge":      {run: (*Engine).cmdDelEdge, mutates: true},
	"addnode":      {run: (*Engine).cmdAddNode, mutates: true},
	"pagerank":     {run: (*Engine).cmdPageRank, mutates: true},
	"scores2table": {run: (*Engine).cmdScoresToTable, mutates: true},
	"algo":         {run: (*Engine).cmdAlgo},
	"top":          {run: (*Engine).cmdTop},
	"show":         {run: (*Engine).cmdShow},
	"stats": {run: func(e *Engine, r *Result, _ []string) error {
		return e.cmdStats(r)
	}},
	"indexes": {run: func(e *Engine, r *Result, _ []string) error {
		return e.cmdIndexes(r)
	}},
	"save":     {run: (*Engine).cmdSave, files: true},
	"snapshot": {run: (*Engine).cmdSnapshot, files: true},
	"restore":  {run: (*Engine).cmdRestore, mutates: true, files: true, replaces: true},
	"rm":       {run: (*Engine).cmdRm, mutates: true},
	"mv":       {run: (*Engine).cmdMv, mutates: true},
}

// source is registered in an init func, not the literal above: its handler
// re-enters Eval (each script step is one command), which reads the verbs
// map, and the compiler rejects that as an initialization cycle in a map
// literal. Its properties are the union of its possible steps': scripts may
// mutate, read/write files, and may contain restore — hosts must treat the
// batch as workspace-replacing.
func init() {
	verbs["source"] = verb{run: (*Engine).cmdSource, mutates: true, files: true, replaces: true}
}

// ReadOnly reports whether the command line only reads workspace state.
// Unknown or empty commands are treated as read-only — they fail without
// side effects.
func ReadOnly(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return true
	}
	return !verbs[f[0]].mutates
}

// TouchesFiles reports whether the command reads or writes host files:
// its verb is one of FileVerbs.
func TouchesFiles(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return false
	}
	return verbs[f[0]].files
}

// FileVerbs returns the verbs that read or write host files, sorted — the
// ones a host without file access refuses, and names when it does.
func FileVerbs() []string {
	var out []string
	for name, v := range verbs {
		if v.files {
			out = append(out, name)
		}
	}
	slices.Sort(out)
	return out
}

// ReplacesWorkspace reports whether the command swaps out the entire
// workspace contents rather than touching individual bindings. Hosts that
// key caches per workspace object should purge everything for this session
// after such a command: the replaced objects' entries can never hit again
// (versions are bumped past them) and would otherwise linger as dead
// weight.
func ReplacesWorkspace(line string) bool {
	f := strings.Fields(line)
	if len(f) == 0 {
		return false
	}
	return verbs[f[0]].replaces
}

// HelpText documents the command language for interactive front-ends.
const HelpText = `Ringo interactive shell — verbs over named objects.

  gen rmat <name> <scale> <edges> [seed]   generate an R-MAT edge table
  gen posts <name> [questions]             generate a StackOverflow-like posts table
  load <name> <file> <col:type>...         load a TSV into a table
  loadgraph <name> <file>                  load a graph: a CSR image save wrote (RNGM)
                                           or a text edge list
  mapgraph <name> <file>                   serve a CSR image (RNGM) in place from mmap,
                                           as a read-only graph
  select <out> <tbl> <col> <op> <value>    filter rows (op: == != < <= > >=)
  filter <out> <tbl> <predicate>           filter with an expression, e.g. Tag = Java and Score > 3
  join <out> <left> <right> <lcol> <rcol>  equi-join two tables
  project <out> <tbl> <col>...             keep the named columns
  groupcount <out> <tbl> <col>...          group rows and count per group
  order <tbl> asc|desc <col>...            sort a table in place
  tograph <out> <tbl> <srccol> <dstcol>    table -> directed graph (sort-first)
  totable <out> <graph>                    graph -> edge table
  addedge <graph> <src> <dst>              add one edge in place (cached views patch, not rebuild)
  deledge <graph> <src> <dst>              delete one edge in place
  addnode <graph> <id>                     add one isolated node in place
  pagerank <out> <graph>                   10-iteration parallel PageRank
  scores2table <out> <scores> <key> <val>  score vector -> sorted table
  algo <graph> triangles|wcc|scc|3core|diam|motifs|bridges|cuts|toposort|clustering
                                           run an analysis and print the result
  top <scores> [k]                         print the k best-scored nodes
  rm <name>                                delete a workspace object
  mv <old> <new>                           rename a workspace object
  ls                                       list workspace objects
  stats                                    per-verb call counts and latency percentiles
  indexes                                  equality-index cache statistics
  show <tbl> [rows]                        print the first rows of a table
  save <obj> <file>                        write a table as TSV or a graph as a CSR image (RNGM)
  snapshot <file>                          save the whole workspace as a binary snapshot
  restore <file>                           replace the workspace with a snapshot's contents
  source <file>                            run a script file (one verb per line, # comments,
                                           @echo/@time/@continue directives)
  help                                     this text
  quit                                     exit`

// Eval parses and executes one command line, returning its structured
// result. The line must be a single non-empty command; front-ends strip
// blanks, comments and quit themselves.
func (e *Engine) Eval(line string) (*Result, error) {
	line = strings.TrimSpace(line)
	args := strings.Fields(line)
	if len(args) == 0 {
		return nil, fmt.Errorf("empty command")
	}
	cmd := args[0]
	args = args[1:]
	r := &Result{Cmd: line}
	v, ok := verbs[cmd]
	if !ok {
		return nil, fmt.Errorf("unknown command %q (try help)", cmd)
	}
	start := time.Now()
	err := v.run(e, r, args)
	e.observe(cmd, args, time.Since(start), err)
	if err != nil {
		return nil, err
	}
	return r, nil
}

// bind stores an object with the executing command as its provenance and
// records the binding on the result.
func (e *Engine) bind(r *Result, name string, o core.Object) {
	e.ws.SetWithProvenance(name, o, r.Cmd)
	r.Bound = name
	r.Kind = o.Kind()
}

func need(args []string, n int, usage string) error {
	if len(args) < n {
		return fmt.Errorf("usage: %s", usage)
	}
	return nil
}

func (e *Engine) cmdLs(r *Result) error {
	names := e.ws.Names()
	if len(names) == 0 {
		r.Message = "(workspace empty)"
		return nil
	}
	r.Columns = []string{"name", "summary", "provenance"}
	for _, n := range names {
		o, _ := e.ws.Get(n)
		r.Rows = append(r.Rows, []string{n, o.Summary(), e.ws.Provenance(n)})
	}
	return nil
}

func (e *Engine) cmdGen(r *Result, args []string) error {
	if err := need(args, 2, "gen rmat|posts <name> ..."); err != nil {
		return err
	}
	switch args[0] {
	case "rmat":
		if err := need(args, 4, "gen rmat <name> <scale> <edges> [seed]"); err != nil {
			return err
		}
		scale, err := strconv.Atoi(args[2])
		if err != nil {
			return fmt.Errorf("bad scale %q", args[2])
		}
		edges, err := strconv.ParseInt(args[3], 10, 64)
		if err != nil {
			return fmt.Errorf("bad edge count %q", args[3])
		}
		seed := int64(1)
		if len(args) > 4 {
			if seed, err = strconv.ParseInt(args[4], 10, 64); err != nil {
				return fmt.Errorf("bad seed %q", args[4])
			}
		}
		t := gen.RMATTable(scale, edges, seed)
		e.bind(r, args[1], core.Object{Table: t})
		r.Message = fmt.Sprintf("%s: %d rows", args[1], t.NumRows())
		return nil
	case "posts":
		cfg := gen.DefaultSOConfig()
		if len(args) > 2 {
			q, err := strconv.Atoi(args[2])
			if err != nil {
				return fmt.Errorf("bad question count %q", args[2])
			}
			cfg.Questions = q
		}
		t, err := gen.StackOverflowPosts(cfg)
		if err != nil {
			return err
		}
		e.bind(r, args[1], core.Object{Table: t})
		r.Message = fmt.Sprintf("%s: %d rows", args[1], t.NumRows())
		return nil
	default:
		return fmt.Errorf("unknown generator %q", args[0])
	}
}

// parseSchema parses col:type tokens (type: int, float, string).
func parseSchema(tokens []string) (table.Schema, error) {
	schema := make(table.Schema, 0, len(tokens))
	for _, tok := range tokens {
		name, typ, ok := strings.Cut(tok, ":")
		if !ok {
			return nil, fmt.Errorf("column %q: want name:type", tok)
		}
		var ct table.Type
		switch typ {
		case "int":
			ct = table.Int
		case "float":
			ct = table.Float
		case "string", "str":
			ct = table.String
		default:
			return nil, fmt.Errorf("column %q: unknown type %q", name, typ)
		}
		schema = append(schema, table.Column{Name: name, Type: ct})
	}
	return schema, nil
}

func (e *Engine) cmdLoad(r *Result, args []string) error {
	if err := need(args, 3, "load <name> <file> <col:type>..."); err != nil {
		return err
	}
	schema, err := parseSchema(args[2:])
	if err != nil {
		return err
	}
	t, err := loadTSVFile(args[1], schema)
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: t})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], t.NumRows())
	return nil
}

// loadTSVFile reads a TSV file, treating a first line that spells the
// declared column names as the header "save" writes — so a table survives
// save then load — and every other first line as data.
func loadTSVFile(path string, schema table.Schema) (*table.Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	names := make([]string, len(schema))
	for i, c := range schema {
		names[i] = c.Name
	}
	first, _, _ := bytes.Cut(data, []byte("\n"))
	header := string(bytes.TrimSuffix(first, []byte("\r"))) == strings.Join(names, "\t")
	return table.ParseTSV(data, schema, header)
}

func (e *Engine) cmdLoadGraph(r *Result, args []string) error {
	if err := need(args, 2, "loadgraph <name> <file>"); err != nil {
		return err
	}
	// The file's magic picks the reader: an RNGM image (what save writes)
	// is read onto the heap, validated and its arrays bound as the view,
	// as restore binds a snapshot's graph; anything else parses as a text
	// edge list on all cores (parallel chunk parse + sort-first build).
	switch extmem.Sniff(args[1]) {
	case extmem.Magic:
		g, err := extmem.Read(args[1])
		if err != nil {
			return err
		}
		e.bind(r, args[0], core.Object{View: g.View(), UView: g.UView()})
		r.Message = fmt.Sprintf("%s: %d nodes, %d edges (%s)", args[0], g.NumNodes(), g.NumEdges(), g.Kind())
		return nil
	case "RNGO":
		return fmt.Errorf("%s holds an RNGO graph, a format this version no longer reads: save the graph again (save writes RNGM), or load it from its text edge list or a snapshot", args[1])
	}
	v, err := graph.LoadEdgeListParallelFile(args[1])
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{View: v})
	r.Message = fmt.Sprintf("%s: %d nodes, %d edges", args[0], v.NumNodes(), v.NumEdges())
	return nil
}

// cmdMapGraph serves an RNGM image in place — mapped, not read: the
// beyond-RAM tier — as a read-only mgraph binding. A file that is not one
// is refused by name before anything is opened.
func (e *Engine) cmdMapGraph(r *Result, args []string) error {
	if err := need(args, 2, "mapgraph <name> <file>"); err != nil {
		return err
	}
	if head := extmem.Sniff(args[1]); head != "" && head != extmem.Magic {
		return fmt.Errorf("%s is not an RNGM graph image (save writes one; loadgraph reads text edge lists)", args[1])
	}
	mg, err := extmem.Open(args[1])
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Mapped: mg})
	via := "mmap"
	if !mg.Mapped() {
		via = "copied: no mmap on this platform"
	}
	r.Message = fmt.Sprintf("%s: %d nodes, %d edges (mapped %s, %s)",
		args[0], mg.NumNodes(), mg.NumEdges(), mg.Kind(), via)
	return nil
}

var opNames = map[string]table.CmpOp{
	"==": table.EQ, "=": table.EQ, "!=": table.NE,
	"<": table.LT, "<=": table.LE, ">": table.GT, ">=": table.GE,
}

// parseValue tries int, then float, then string.
func parseValue(tok string) any {
	if n, err := strconv.ParseInt(tok, 10, 64); err == nil {
		return n
	}
	if f, err := strconv.ParseFloat(tok, 64); err == nil {
		return f
	}
	return tok
}

func (e *Engine) cmdSelect(r *Result, args []string) error {
	if err := need(args, 5, "select <out> <tbl> <col> <op> <value>"); err != nil {
		return err
	}
	t, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	op, ok := opNames[args[3]]
	if !ok {
		return fmt.Errorf("unknown operator %q", args[3])
	}
	// The value may contain spaces if quoted crudely; join the rest.
	val := parseValue(strings.Join(args[4:], " "))
	out, err := e.selectRows(args[1], t, args[2], op, val)
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: out})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], out.NumRows())
	return nil
}

// selectRows executes one comparison filter. Equality filters try the
// workspace's cached equality index first — on a warm cache the filter is
// a bitmap lookup plus a row gather, no column scan — and fall back
// silently to the vectorized scan when the column isn't indexable (float,
// high cardinality) or the lookup can't serve the operator. Both paths
// select identical rows, so the fallback is invisible to the caller.
func (e *Engine) selectRows(name string, t *table.Table, col string, op table.CmpOp, val any) (*table.Table, error) {
	if op == table.EQ || op == table.NE {
		if idx, err := e.ws.TableEqIndex(name, col); err == nil {
			if bm, ok := idx.Lookup(t, op, val); ok {
				return t.SelectBitmap(bm)
			}
		}
	}
	return t.Select(col, op, val)
}

// cmdFilter is expression select: filter <out> <tbl> <predicate...>, e.g.
// filter JQ P Tag = Java and Type = question
func (e *Engine) cmdFilter(r *Result, args []string) error {
	if err := need(args, 3, "filter <out> <tbl> <predicate>"); err != nil {
		return err
	}
	t, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	out, err := t.SelectExpr(strings.Join(args[2:], " "))
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: out})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], out.NumRows())
	return nil
}

func (e *Engine) cmdJoin(r *Result, args []string) error {
	if err := need(args, 5, "join <out> <left> <right> <lcol> <rcol>"); err != nil {
		return err
	}
	l, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	rt, err := e.ws.Table(args[2])
	if err != nil {
		return err
	}
	out, err := l.Join(rt, args[3], args[4])
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: out})
	r.Message = fmt.Sprintf("%s: %d rows (%s)", args[0], out.NumRows(), strings.Join(out.ColNames(), ", "))
	return nil
}

func (e *Engine) cmdProject(r *Result, args []string) error {
	if err := need(args, 3, "project <out> <tbl> <col>..."); err != nil {
		return err
	}
	t, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	out, err := t.Project(args[2:]...)
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: out})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], out.NumRows())
	return nil
}

func (e *Engine) cmdGroupCount(r *Result, args []string) error {
	if err := need(args, 3, "groupcount <out> <tbl> <col>..."); err != nil {
		return err
	}
	t, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	out, err := t.Aggregate(args[2:], table.Count, "", "count")
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: out})
	r.Message = fmt.Sprintf("%s: %d groups", args[0], out.NumRows())
	return nil
}

func (e *Engine) cmdOrder(r *Result, args []string) error {
	if err := need(args, 3, "order <tbl> asc|desc <col>..."); err != nil {
		return err
	}
	t, err := e.ws.Table(args[0])
	if err != nil {
		return err
	}
	desc := args[1] == "desc"
	if !desc && args[1] != "asc" {
		return fmt.Errorf("want asc or desc, got %q", args[1])
	}
	if err := t.OrderBy(desc, args[2:]...); err != nil {
		return err
	}
	// In-place mutation: bump the version so cached results over the old
	// row order can no longer be served.
	e.ws.Touch(args[0])
	r.Bound = args[0]
	r.Kind = "table"
	return nil
}

func (e *Engine) cmdToGraph(r *Result, args []string) error {
	if err := need(args, 4, "tograph <out> <tbl> <srccol> <dstcol>"); err != nil {
		return err
	}
	t, err := e.ws.Table(args[1])
	if err != nil {
		return err
	}
	v, err := conv.ToView(t, args[2], args[3])
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{View: v})
	r.Message = fmt.Sprintf("%s: %d nodes, %d edges", args[0], v.NumNodes(), v.NumEdges())
	return nil
}

func (e *Engine) cmdToTable(r *Result, args []string) error {
	if err := need(args, 2, "totable <out> <graph>"); err != nil {
		return err
	}
	v, err := e.ws.DirectedView(args[1])
	if err != nil {
		return err
	}
	t, err := conv.ToEdgeTable(v, "src", "dst")
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: t})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], t.NumRows())
	return nil
}

// cacheKey builds the result-cache key for an analytics computation over
// the named input object. The output binding name is deliberately excluded:
// "pagerank A G" and "pagerank B G" are the same computation.
func (e *Engine) cacheKey(verb, input string) (string, bool) {
	if e.cache == nil {
		return "", false
	}
	fp, ok := e.ws.Fingerprint(input)
	if !ok {
		return "", false
	}
	return verb + "|" + fp, true
}

func (e *Engine) cmdPageRank(r *Result, args []string) error {
	if err := need(args, 2, "pagerank <out> <graph>"); err != nil {
		return err
	}
	// No upfront type check: a result-cache hit can only exist for a
	// version at which the binding was a directed graph, and on a miss
	// DirectedView performs the identical validation.
	key, cacheable := e.cacheKey("pagerank", args[1])
	if cacheable {
		if v, ok := e.cache.Get(key); ok {
			e.bind(r, args[0], core.Object{Scores: v.Scores})
			r.Message = fmt.Sprintf("%s: %d nodes scored", args[0], len(v.Scores))
			r.Cached = true
			return nil
		}
	}
	start := time.Now()
	// The CSR view is the binding itself: a repeat query on an unchanged
	// graph skips the O(V+E) conversion.
	v, err := e.ws.DirectedView(args[1])
	if err != nil {
		return err
	}
	pr := algo.PageRankView(v, algo.DefaultDamping, 10)
	r.ElapsedNS = time.Since(start).Nanoseconds()
	e.bind(r, args[0], core.Object{Scores: pr})
	r.Message = fmt.Sprintf("%s: %d nodes scored", args[0], len(pr))
	if cacheable {
		e.cache.Put(key, CachedResult{Scores: pr})
	}
	return nil
}

func (e *Engine) cmdScoresToTable(r *Result, args []string) error {
	if err := need(args, 4, "scores2table <out> <scores> <keycol> <valcol>"); err != nil {
		return err
	}
	sc, err := e.ws.Scores(args[1])
	if err != nil {
		return err
	}
	t, err := core.TableFromMap(sc, args[2], args[3])
	if err != nil {
		return err
	}
	e.bind(r, args[0], core.Object{Table: t})
	r.Message = fmt.Sprintf("%s: %d rows", args[0], t.NumRows())
	return nil
}

func (e *Engine) cmdAlgo(r *Result, args []string) error {
	if err := need(args, 2, "algo <graph> triangles|wcc|scc|3core|diam|motifs|bridges|cuts|toposort|clustering"); err != nil {
		return err
	}
	key, cacheable := e.cacheKey("algo "+args[1], args[0])
	if cacheable {
		if v, ok := e.cache.Get(key); ok {
			r.Message = v.Message
			r.Cached = true
			return nil
		}
	}
	// Every branch computes over the binding's CSR views: direction-blind
	// algorithms fetch the undirected view (for a directed graph, the
	// projection of its directed CSR it holds), the rest the directed one. Repeat analytics on an unchanged graph do no O(V+E) conversion
	// at all.
	start := time.Now()
	switch args[1] {
	case "triangles":
		uv, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		n := algo.TrianglesView(uv)
		r.Message = fmt.Sprintf("%d triangles", n)
	case "wcc":
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		c := algo.WCCView(v)
		r.Message = fmt.Sprintf("%d weak components, largest %d", c.Count, c.MaxSize)
	case "scc":
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		c := algo.SCCView(v)
		r.Message = fmt.Sprintf("%d strong components, largest %d", c.Count, c.MaxSize)
	case "3core":
		uv, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		nodes, edges := algo.KCoreStatsView(uv, 3)
		r.Message = fmt.Sprintf("3-core: %d nodes, %d edges", nodes, edges)
	case "diam":
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		d := algo.ApproxDiameterView(v, 8, 1)
		r.Message = fmt.Sprintf("approximate diameter %d", d)
	case "motifs":
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		mc := algo.CountMotifsView(v)
		r.Message = fmt.Sprintf("%d cyclic triangles, %d transitive triangles, %d wedges",
			mc.CyclicTriangles, mc.TransTriangles, mc.Wedges)
	case "bridges":
		uv, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		br := algo.BridgesView(uv)
		r.Message = fmt.Sprintf("%d bridges", len(br))
	case "cuts":
		uv, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		cuts := algo.ArticulationPointsView(uv)
		r.Message = fmt.Sprintf("%d articulation points", len(cuts))
	case "toposort":
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		order, err := algo.TopoSortView(v)
		if err != nil {
			r.Message = fmt.Sprintf("not a DAG: %v", err)
			return nil
		}
		r.Message = fmt.Sprintf("topological order of %d nodes (first 10): %v", len(order), order[:min(10, len(order))])
	case "clustering":
		uv, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		cc := algo.ClusteringCoefficientView(uv)
		r.Message = fmt.Sprintf("average clustering coefficient %.4f", cc)
	default:
		switch k := e.ws.Kind(args[0]); {
		case k == "":
			return fmt.Errorf("no object named %q", args[0])
		case k != "graph" && k != "ugraph" && k != "mgraph":
			return fmt.Errorf("%q is a %s, not a graph", args[0], k)
		}
		return fmt.Errorf("unknown algorithm %q", args[1])
	}
	r.ElapsedNS = time.Since(start).Nanoseconds()
	if cacheable {
		e.cache.Put(key, CachedResult{Message: r.Message})
	}
	return nil
}

func (e *Engine) cmdTop(r *Result, args []string) error {
	if err := need(args, 1, "top <scores> [k]"); err != nil {
		return err
	}
	sc, err := e.ws.Scores(args[0])
	if err != nil {
		return err
	}
	k := 10
	if len(args) > 1 {
		if k, err = strconv.Atoi(args[1]); err != nil || k < 1 {
			return fmt.Errorf("bad k %q", args[1])
		}
	}
	r.Columns = []string{"rank", "node", "score"}
	for i, sco := range algo.TopK(sc, k) {
		r.Rows = append(r.Rows, []string{
			strconv.Itoa(i + 1),
			strconv.FormatInt(sco.ID, 10),
			strconv.FormatFloat(sco.Score, 'f', 6, 64),
		})
	}
	return nil
}

func (e *Engine) cmdShow(r *Result, args []string) error {
	if err := need(args, 1, "show <tbl> [rows]"); err != nil {
		return err
	}
	t, err := e.ws.Table(args[0])
	if err != nil {
		return err
	}
	n := 10
	if len(args) > 1 {
		if n, err = strconv.Atoi(args[1]); err != nil || n < 0 {
			return fmt.Errorf("bad row count %q", args[1])
		}
	}
	if n > t.NumRows() {
		n = t.NumRows()
	}
	r.Columns = t.ColNames()
	for row := 0; row < n; row++ {
		cells := make([]string, t.NumCols())
		for col := range cells {
			cells[col] = fmt.Sprint(t.Value(col, row))
		}
		r.Rows = append(r.Rows, cells)
	}
	r.Truncated = t.NumRows() - n
	return nil
}

// cmdSave writes a table as TSV and a graph of any kind as an RNGM
// image of its CSR view, which loadgraph reads back and mapgraph maps.
func (e *Engine) cmdSave(r *Result, args []string) error {
	if err := need(args, 2, "save <obj> <file>"); err != nil {
		return err
	}
	o, ok := e.ws.Get(args[0])
	if !ok {
		return fmt.Errorf("no object named %q", args[0])
	}
	var nodes int
	var edges int64
	switch {
	case o.Table != nil:
		if err := o.Table.SaveTSVFile(args[1], true); err != nil {
			return err
		}
		r.Message = fmt.Sprintf("wrote %d rows to %s", o.Table.NumRows(), args[1])
		return nil
	case o.Kind() == "graph" || o.Mapped != nil && o.Mapped.View() != nil:
		v, err := e.ws.DirectedView(args[0])
		if err != nil {
			return err
		}
		if err := extmem.SaveMapped(args[1], v); err != nil {
			return err
		}
		nodes, edges = v.NumNodes(), v.NumEdges()
	case o.UView != nil || o.Mapped != nil:
		u, err := e.ws.UndirectedView(args[0])
		if err != nil {
			return err
		}
		if err := extmem.SaveMappedUndirected(args[1], u); err != nil {
			return err
		}
		nodes, edges = u.NumNodes(), u.NumEdges()
	default:
		return fmt.Errorf("%q is a %s; save handles tables and graphs (use snapshot for everything else)", args[0], o.Kind())
	}
	r.Message = fmt.Sprintf("wrote %d nodes, %d edges to %s (RNGM)", nodes, edges, args[1])
	return nil
}

func (e *Engine) cmdSnapshot(r *Result, args []string) error {
	if err := need(args, 1, "snapshot <file>"); err != nil {
		return err
	}
	if err := e.ws.SnapshotFile(args[0]); err != nil {
		return err
	}
	r.Message = fmt.Sprintf("snapshot: wrote %d objects to %s", len(e.ws.Names()), args[0])
	return nil
}

func (e *Engine) cmdRestore(r *Result, args []string) error {
	if err := need(args, 1, "restore <file>"); err != nil {
		return err
	}
	if err := e.ws.RestoreFile(args[0]); err != nil {
		return err
	}
	r.Message = fmt.Sprintf("restored %d objects from %s", len(e.ws.Names()), args[0])
	return nil
}

func (e *Engine) cmdRm(r *Result, args []string) error {
	if err := need(args, 1, "rm <name>"); err != nil {
		return err
	}
	if !e.ws.Delete(args[0]) {
		return fmt.Errorf("no object named %q", args[0])
	}
	r.Message = fmt.Sprintf("deleted %s", args[0])
	return nil
}

func (e *Engine) cmdMv(r *Result, args []string) error {
	if err := need(args, 2, "mv <old> <new>"); err != nil {
		return err
	}
	if err := e.ws.Rename(args[0], args[1]); err != nil {
		return err
	}
	r.Bound = args[1]
	r.Kind = e.ws.Kind(args[1])
	r.Message = fmt.Sprintf("renamed %s to %s", args[0], args[1])
	return nil
}
