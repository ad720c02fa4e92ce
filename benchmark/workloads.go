package main

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"strconv"
	"strings"

	"ringo/internal/algo"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

// sizes pins how much data each workload handles and how many ops a run
// measures, so that two commits compared on one seed do identical work. The
// op counts are frozen so that the measured phase lasts about 19 seconds on
// the machine README.md names, with one core per client; --seconds only cuts
// a run short. README.md records why the inputs are smaller than ISSUE 11 proposed.
type sizes struct {
	coldScale   int // cold-pipeline: R-MAT scale, rows and passes
	coldRows    int64
	coldOps     int
	questions   int // table-explore: question posts (rows are about 2.5x) and rounds
	exploreOps  int
	warmScale   int // warm-read: R-MAT scale, rows and requests per client
	warmRows    int64
	warmOps     int
	updateScale int // update-query: R-MAT scale, rows and cycles
	updateRows  int64
	updateOps   int
	setups      int // fresh set-ups per timed run; setup_s is their median
	triangles   int // traced run only: algo.TrianglesView calls
}

var (
	fullSizes  = sizes{12, 25_000, 1300, 20_000, 3600, 16, 400_000, 6200, 15, 200_000, 1600, 21, 5}
	smokeSizes = sizes{10, 2_000, 20, 300, 20, 10, 3_000, 20, 10, 3_000, 20, 5, 2}
)

// command is one shell line sent to a session, with the checks its reply
// must pass. A failed check fails the op the command belongs to.
type command struct {
	verb  string              // names the per-verb metrics: load, select, ..., algo-wcc
	line  string              // the command line
	want  string              // the reply's message must start with this
	same  string              // message and rows must equal the first reply seen under this key
	raw   bool                // with same: HTTP bodies must be byte-identical too
	check func(r reply) error // any other check
	scan  bool                // a select or filter: its row count feeds rows_scanned_per_row_out
}

// op is what the end-to-end latency metrics time: the commands one analyst
// step sends, each waiting for the previous reply.
type op struct {
	session      string
	create, drop bool // create the session first, drop it afterwards
	cmds         []command
}

// stream is one client's deterministic op sequence.
type stream interface{ next() op }

// workload is one pinned traffic mix. generate runs once per process;
// setup, stream and epilogue may be called many times and always describe
// the same inputs, so every replay depth of the traced run does equal work.
type workload interface {
	generate(dir string, sz sizes, seed int64) (files []string, err error)
	// setup is unmeasured: it loads the inputs and ends with a warm-up.
	setup() []op
	// stream returns a fresh copy of a client's op stream.
	stream(client int) stream
	// epilogue returns the end-of-run checks, built from the finished
	// streams, and in the traced run asks for triangle counts besides.
	epilogue(s []stream, triangles int) []op
}

var workloads = []struct {
	name    string
	clients int                // closed-loop clients, never more than nproc
	ops     func(sz sizes) int // measured ops per client
	new     func() workload
}{
	{"cold-pipeline", 1, func(sz sizes) int { return sz.coldOps }, func() workload { return &coldPipeline{} }},
	{"table-explore", 1, func(sz sizes) int { return sz.exploreOps }, func() workload { return &tableExplore{} }},
	{"warm-read", 2, func(sz sizes) int { return sz.warmOps }, func() workload { return &warmRead{} }},
	{"update-query", 1, func(sz sizes) int { return sz.updateOps }, func() workload { return &updateQuery{} }},
}

// session is the one long-lived session of the three warm workloads.
const session = "s"

func rowsMsg(name string, n int) string { return fmt.Sprintf("%s: %d rows", name, n) }

// messageRows parses the row count out of an "<name>: <n> rows" reply.
func messageRows(r reply) int64 {
	f := strings.Fields(r.message)
	if len(f) < 2 {
		return 0
	}
	n, _ := strconv.ParseInt(f[1], 10, 64) // 0 rows if the reply has another shape
	return n
}

// edgeFile writes a headerless R-MAT edge TSV (the shell's own save writes
// a header that load does not skip) and returns the rows as plain slices.
func edgeFile(path string, scale int, rows, seed int64) (src, dst []int64, err error) {
	t := gen.RMATTable(scale, rows, seed)
	if err := t.SaveTSVFile(path, false); err != nil {
		return nil, nil, err
	}
	if src, err = t.IntCol("src"); err != nil {
		return nil, nil, err
	}
	dst, err = t.IntCol("dst")
	return src, dst, err
}

func loadEdges(path string, rows int) command {
	return command{verb: "load", line: "load E " + path + " src:int dst:int", want: rowsMsg("E", rows)}
}

// edgeSets is the independent model of tograph over the rows that pass
// keep: distinct node ids and distinct (src, dst) pairs.
func edgeSets(src, dst []int64, keep func(i int) bool) (nodes map[int64]bool, edges map[[2]int64]bool) {
	nodes, edges = map[int64]bool{}, map[[2]int64]bool{}
	for i := range src {
		if keep(i) {
			nodes[src[i]], nodes[dst[i]] = true, true
			edges[[2]int64{src[i], dst[i]}] = true
		}
	}
	return nodes, edges
}

// --- cold-pipeline ---

// coldPipeline replays the paper's headline flow on a new session per op,
// so every cache is cold and ingest, conversion, view build and the kernels
// do the work. Every pass reads the same file, so every count is checked
// against one made in plain Go over the generated rows.
type coldPipeline struct {
	pass []command
}

func (w *coldPipeline) generate(dir string, sz sizes, seed int64) ([]string, error) {
	path := filepath.Join(dir, "edges.tsv")
	src, dst, err := edgeFile(path, sz.coldScale, sz.coldRows, seed)
	if err != nil {
		return nil, err
	}
	keep := func(i int) bool { return dst[i] != 0 }
	kept, sources := 0, map[int64]bool{}
	for i := range src {
		if keep(i) {
			kept++
			sources[src[i]] = true
		}
	}
	nodes, edges := edgeSets(src, dst, keep)
	w.pass = []command{
		loadEdges(path, len(src)),
		{verb: "select", line: "select S E dst != 0", want: rowsMsg("S", kept), scan: true},
		{verb: "groupcount", line: "groupcount D S src", want: fmt.Sprintf("D: %d groups", len(sources))},
		{verb: "tograph", line: "tograph G S src dst", want: fmt.Sprintf("G: %d nodes, %d edges", len(nodes), len(edges))},
		{verb: "pagerank", line: "pagerank PR G", want: fmt.Sprintf("PR: %d nodes scored", len(nodes))},
		{verb: "scores2table", line: "scores2table T PR node score", want: rowsMsg("T", len(nodes))},
		{verb: "join", line: "join J T D node src", want: rowsMsg("J", len(sources))},
		{verb: "order", line: "order J desc score"},
		{verb: "show", line: "show J 10", same: "show"},
		{verb: "algo-wcc", line: "algo G wcc", same: "wcc"},
	}
	return []string{path}, nil
}

func (w *coldPipeline) pipeline(id string) op {
	return op{session: id, create: true, drop: true, cmds: w.pass}
}

func (w *coldPipeline) setup() []op { return []op{w.pipeline("warmup")} }

func (w *coldPipeline) stream(int) stream { return &coldStream{w: w} }

func (w *coldPipeline) epilogue([]stream, int) []op { return nil }

type coldStream struct {
	w *coldPipeline
	n int
}

func (s *coldStream) next() op {
	s.n++
	return s.w.pipeline(fmt.Sprintf("p%d", s.n))
}

// --- table-explore ---

// tableExplore is table-only trial and error over a posts table: graph and
// algo are never called, so a change to a filter backend or the index cache
// shows here and must not move update-query.
type tableExplore struct {
	path  string
	seed  int64
	users int
	// Plain-Go counts over the generated rows, indexed by the round's
	// minimum score where it applies.
	rows, answers                    int
	javaPosts, javaQuestions, joined [maxScore + 1]int
	byUser                           map[int64]int
}

const maxScore = 40 // the generator draws scores below this

func (w *tableExplore) generate(dir string, sz sizes, seed int64) ([]string, error) {
	cfg := gen.DefaultSOConfig()
	cfg.Questions, cfg.Users, cfg.Seed = sz.questions, max(50, sz.questions/20), seed
	t, err := gen.StackOverflowPosts(cfg)
	if err != nil {
		return nil, err
	}
	w.path, w.seed, w.users, w.rows = filepath.Join(dir, "posts.tsv"), seed, cfg.Users, t.NumRows()
	if err := t.SaveTSVFile(w.path, false); err != nil {
		return nil, err
	}
	w.byUser = map[int64]int{}
	typ, user, tag, accepted, score := t.ColIndex("Type"), t.ColIndex("UserId"), t.ColIndex("Tag"), t.ColIndex("AcceptedId"), t.ColIndex("Score")
	for r := 0; r < t.NumRows(); r++ {
		answer := t.StrAt(typ, r) == "answer"
		if answer {
			w.answers++
		}
		w.byUser[t.IntAt(user, r)]++
		if t.StrAt(tag, r) != "Java" {
			continue
		}
		for m := 0; m <= maxScore && float64(m) <= t.FloatAt(score, r); m++ {
			w.javaPosts[m]++
			if !answer {
				w.javaQuestions[m]++
				if t.IntAt(accepted, r) >= 0 {
					w.joined[m]++ // an accepted id names exactly one answer row
				}
			}
		}
	}
	return []string{w.path}, nil
}

// round is one exploration round over the loaded table P.
func (w *tableExplore) round(minScore int, users [3]int64) op {
	cmds := []command{
		{verb: "filter", line: fmt.Sprintf("filter JP P Tag = Java and Score >= %d", minScore), want: rowsMsg("JP", w.javaPosts[minScore]), scan: true},
		{verb: "select", line: "select Q JP Type == question", want: rowsMsg("Q", w.javaQuestions[minScore]), scan: true},
		{verb: "select", line: "select A P Type == answer", want: rowsMsg("A", w.answers), scan: true},
		{verb: "join", line: "join QA Q A AcceptedId PostId", want: rowsMsg("QA", w.joined[minScore])},
		{verb: "groupcount", line: "groupcount TC P Tag", same: "tags"},
		{verb: "order", line: "order TC desc count"},
		{verb: "project", line: "project EX QA UserId-1 UserId-2", want: rowsMsg("EX", w.joined[minScore])},
	}
	for i, u := range users {
		out := fmt.Sprintf("U%d", i)
		cmds = append(cmds, command{verb: "select", line: fmt.Sprintf("select %s P UserId == %d", out, u),
			want: rowsMsg(out, w.byUser[u]), scan: true})
	}
	return op{session: session, cmds: cmds}
}

func (w *tableExplore) setup() []op {
	schema := make([]string, len(gen.SOSchema))
	for i, c := range gen.SOSchema {
		schema[i] = c.Name + ":" + c.Type.String()
	}
	load := command{verb: "load", line: "load P " + w.path + " " + strings.Join(schema, " "), want: rowsMsg("P", w.rows)}
	return []op{{session: session, create: true, cmds: []command{load}}, w.round(5, [3]int64{1, 2, 3})}
}

func (w *tableExplore) stream(int) stream {
	return &exploreStream{w: w, rng: rand.New(rand.NewSource(w.seed))}
}

func (w *tableExplore) epilogue([]stream, int) []op { return nil }

type exploreStream struct {
	w   *tableExplore
	rng *rand.Rand
}

func (s *exploreStream) next() op {
	var users [3]int64
	for i := range users {
		users[i] = int64(s.rng.Intn(s.w.users))
	}
	return s.w.round(1+s.rng.Intn(15), users)
}

// --- warm-read ---

// warmRead bypasses every kernel: two clients read one shared session whose
// results are already cached, so per-request overhead is the whole cost of
// the fast mode and top's scan over the score map is the slow mode.
type warmRead struct {
	snapshot string
	rotation []command
}

func (w *warmRead) generate(dir string, sz sizes, seed int64) ([]string, error) {
	edges := filepath.Join(dir, "edges.tsv")
	src, _, err := edgeFile(edges, sz.warmScale, sz.warmRows, seed)
	if err != nil {
		return nil, err
	}
	// A throwaway server writes the snapshot through the verbs an analyst
	// would use, so it holds exactly what a session would.
	w.snapshot = filepath.Join(dir, "warm.rngs")
	x := newHTTPExec()
	defer x.close()
	if err := x.create(session); err != nil {
		return nil, err
	}
	for _, line := range []string{loadEdges(edges, len(src)).line, "tograph G E src dst", "pagerank PR G", "snapshot " + w.snapshot} {
		if _, err := x.eval(session, line); err != nil {
			return nil, fmt.Errorf("%s: %w", line, err)
		}
	}
	for _, c := range [][2]string{{"top", "top PR 10"}, {"top", "top PR 100"}, {"algo-wcc", "algo G wcc"},
		{"algo-scc", "algo G scc"}, {"show", "show E 10"}, {"ls", "ls"}} {
		w.rotation = append(w.rotation, command{verb: c[0], line: c[1], same: c[1], raw: true})
	}
	return []string{edges, w.snapshot}, nil
}

func (w *warmRead) setup() []op {
	restore := command{verb: "restore", line: "restore " + w.snapshot, want: "restored 3 objects"}
	// The warm-up computes wcc and scc once; from then on both are
	// result-cache hits. Its replies carry elapsed_ns, so it shares no
	// "same" key with the measured rotation.
	warm := make([]command, len(w.rotation))
	for i, c := range w.rotation {
		warm[i] = command{verb: c.verb, line: c.line}
	}
	return []op{{session: session, create: true, cmds: []command{restore}}, {session: session, cmds: warm}}
}

// The second client starts half a rotation in, so the two never send the
// same command in lockstep.
func (w *warmRead) stream(client int) stream {
	return &readStream{w: w, i: client * len(w.rotation) / 2}
}

func (w *warmRead) epilogue([]stream, int) []op { return nil }

type readStream struct {
	w *warmRead
	i int
}

func (s *readStream) next() op {
	c := s.w.rotation[s.i%len(s.w.rotation)]
	s.i++
	return op{session: session, cmds: []command{c}}
}

// --- update-query ---

// updateQuery uses the cache layers warm-read uses, but for writes: every
// cycle bumps the graph's fingerprint, so the result cache always misses
// and fills past its capacity, the view is patched rather than rebuilt, and
// kernel, score materialization and GC of cached score maps dominate.
type updateQuery struct {
	path     string
	seed     int64
	newIDs   int64   // ids from here up are unused by the loaded graph
	rows     int     // rows of the edge file
	nodes    []int64 // sorted distinct ids of the loaded graph
	base     map[[2]int64]bool
	startTop []algo.Scored
}

func (w *updateQuery) generate(dir string, sz sizes, seed int64) ([]string, error) {
	w.path, w.seed, w.newIDs = filepath.Join(dir, "edges.tsv"), seed, int64(1)<<sz.updateScale
	src, dst, err := edgeFile(w.path, sz.updateScale, sz.updateRows, seed)
	if err != nil {
		return nil, err
	}
	w.rows = len(src)
	var nodes map[int64]bool
	nodes, w.base = edgeSets(src, dst, func(int) bool { return true })
	for id := range nodes {
		w.nodes = append(w.nodes, id)
	}
	sort.Slice(w.nodes, func(i, j int) bool { return w.nodes[i] < w.nodes[j] })
	w.startTop, err = rebuiltTop(w.base, nil)
	return []string{w.path}, err
}

// rebuiltTop is the patched-equals-rebuilt oracle: it builds a graph from
// scratch out of the model's edges and calls the kernels directly.
func rebuiltTop(base, added map[[2]int64]bool) ([]algo.Scored, error) {
	var srcs, dsts []int64
	for _, set := range []map[[2]int64]bool{base, added} {
		for e := range set {
			srcs, dsts = append(srcs, e[0]), append(dsts, e[1])
		}
	}
	g, err := graph.BuildDirectedCols(srcs, dsts)
	if err != nil {
		return nil, err
	}
	return algo.TopK(algo.PageRankView(graph.BuildView(g), algo.DefaultDamping, 10), 10), nil
}

// checkTop compares a reply's rows against the oracle: ids in column idCol
// equal, scores in the next column within tol.
func checkTop(want []algo.Scored, idCol int, tol float64) func(reply) error {
	return func(r reply) error {
		if len(r.rows) != len(want) {
			return fmt.Errorf("got %d rows, want %d", len(r.rows), len(want))
		}
		for i, row := range r.rows {
			id, _ := strconv.ParseInt(row[idCol], 10, 64)    // a bad cell parses
			score, _ := strconv.ParseFloat(row[idCol+1], 64) // to 0 and mismatches
			if id != want[i].ID || math.Abs(score-want[i].Score) > tol {
				return fmt.Errorf("rank %d: got node %d score %v, want node %d score %v", i+1, id, score, want[i].ID, want[i].Score)
			}
		}
		return nil
	}
}

// topChecks asks for the ten best nodes twice: through top, which renders
// scores with six decimals, and through scores2table and show, which print
// them in full, so the 1e-9 comparison is made on full precision.
func topChecks(want []algo.Scored) []command {
	return []command{
		{verb: "top", line: "top PR 10", check: checkTop(want, 1, 1e-6)},
		{verb: "scores2table", line: "scores2table PT PR node score"},
		{verb: "show", line: "show PT 10", check: checkTop(want, 0, 1e-9)},
	}
}

func (w *updateQuery) setup() []op {
	cmds := []command{
		loadEdges(w.path, w.rows),
		{verb: "tograph", line: "tograph G E src dst", want: fmt.Sprintf("G: %d nodes, %d edges", len(w.nodes), len(w.base))},
		{verb: "pagerank", line: "pagerank PR G", want: fmt.Sprintf("PR: %d nodes scored", len(w.nodes))},
	}
	return []op{{session: session, create: true, cmds: append(cmds, topChecks(w.startTop)...)}}
}

func (w *updateQuery) stream(int) stream {
	return &updateStream{w: w, rng: rand.New(rand.NewSource(w.seed)), added: map[[2]int64]bool{},
		nodes: len(w.nodes), nextID: w.newIDs}
}

func (w *updateQuery) epilogue(s []stream, triangles int) []op {
	want, err := rebuiltTop(w.base, s[0].(*updateStream).added)
	if err != nil {
		want = nil // topChecks then fails on the row count
	}
	cmds := topChecks(want)
	for i := 0; i < triangles; i++ {
		cmds = append(cmds, command{verb: "algo-triangles", line: "algo G triangles", same: "triangles"})
	}
	return []op{{session: session, cmds: cmds}}
}

// updateStream is the generator's model of the mutated graph: the loaded
// edges are w.base, added holds every edge added and not deleted since.
type updateStream struct {
	w         *updateQuery
	rng       *rand.Rand
	added     map[[2]int64]bool
	deletable [][2]int64 // added edges between loaded ids, still present
	nodes     int        // running size of the id set
	nextID    int64
}

// next draws one mutation that is certain to change the graph (an addedge
// of a present edge would leave the fingerprint alone and turn the cycle's
// pagerank into a cache hit), then asks the two questions.
func (s *updateStream) next() op {
	existing := func() int64 { return s.w.nodes[s.rng.Intn(len(s.w.nodes))] }
	verb, done := "addedge", "added"
	var e [2]int64
	switch r := s.rng.Float64(); {
	case r < 0.10 && len(s.deletable) > 0:
		verb, done = "deledge", "deleted"
		i, last := s.rng.Intn(len(s.deletable)), len(s.deletable)-1
		e = s.deletable[i]
		s.deletable[i], s.deletable = s.deletable[last], s.deletable[:last]
		delete(s.added, e)
	case r < 0.30:
		e = [2]int64{existing(), s.nextID}
		s.nextID++
		s.nodes++
		s.added[e] = true
	default:
		for e[0] == e[1] || s.w.base[e] || s.added[e] {
			e = [2]int64{existing(), existing()}
		}
		s.added[e] = true
		s.deletable = append(s.deletable, e)
	}
	return op{session: session, cmds: []command{
		{verb: verb, line: fmt.Sprintf("%s G %d %d", verb, e[0], e[1]), want: fmt.Sprintf("G: %s edge %d -> %d ", done, e[0], e[1])},
		{verb: "pagerank", line: "pagerank PR G", want: fmt.Sprintf("PR: %d nodes scored", s.nodes)},
		{verb: "top", line: "top PR 10"},
	}}
}
