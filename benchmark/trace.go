package main

import (
	"sort"
	"strings"
	"sync"
)

// span is one timed call. Parent is the span of the same command one
// replay depth up (for a leaf: the command's engine-depth span, or the
// enclosing leaf), so a chain of parents walks from a module call out to
// the HTTP round trip; 0 marks the root, the op as the client saw it. The
// depths are separate replays of the same ops on fresh identical state, so
// a child's interval does not lie inside its parent's: self times are
// differences of per-verb medians, not interval subtraction.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Client   int    `json:"client"`
	Op       int    `json:"op"`    // negative: set-up and epilogue ops
	Verb     string `json:"verb"`  // at the leaf depth "<verb>/<call>"
	Layer    string `json:"layer"` // client, a depth (http ... engine) or, for a leaf, its module
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
	Work     int64  `json:"work,omitempty"` // leaves: rows, edges or bytes handled
}

func (s span) ms() float64 { return float64(s.EndNS-s.StartNS) / 1e6 }

type cmdKey struct{ client, op, cmd int }

// tracer keeps spans in memory; the traced run writes them out at exit.
type tracer struct {
	mu       sync.Mutex
	workload string
	spans    []span
	up, cur  map[cmdKey]int // command -> its span id one depth up / at this depth
}

// descend starts the next replay depth.
func (t *tracer) descend() { t.up, t.cur = t.cur, map[cmdKey]int{} }

func (t *tracer) add(s span) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Workload = len(t.spans)+1, t.workload
	t.spans = append(t.spans, s)
	return s.ID
}

// link records a command's span at this depth, for the next depth to find.
func (t *tracer) link(key cmdKey, id int) {
	t.mu.Lock()
	t.cur[key] = id
	t.mu.Unlock()
}

func (t *tracer) end(id int, ns int64) {
	t.mu.Lock()
	t.spans[id-1].EndNS = ns
	t.mu.Unlock()
}

// verbMetrics are the verbs whose client-side median is reported as
// repl.<verb>_ms.
var verbMetrics = []string{"load", "select", "filter", "join", "groupcount", "order", "project", "tograph",
	"pagerank", "scores2table", "top", "algo-wcc", "addedge", "show"}

// leafMetrics maps a per-layer metric to the module call whose median it is.
var leafMetrics = []struct{ metric, layer, call string }{
	{"core.view_fetch_ms", "core", "view_fetch"},
	{"core.addedge_ms", "core", "addedge"},
	{"core.scores_to_table_ms", "core", "scores_to_table"},
	{"graph.view_build_ms", "graph", "view_build"},
	{"conv.to_directed_ms", "conv", "to_directed"},
	{"table.load_tsv_ms", "table", "load_tsv"},
	{"table.select_ms", "table", "select"},
	{"table.filter_ms", "table", "filter"},
	{"table.join_ms", "table", "join"},
	{"table.groupcount_ms", "table", "groupcount"},
	{"table.order_ms", "table", "order"},
	{"algo.pagerank_ms", "algo", "pagerank"},
	{"algo.wcc_ms", "algo", "wcc"},
	{"algo.topk_ms", "algo", "topk"},
	{"algo.triangles_ms", "algo", "triangles"},
	{"snapshot.restore_ms", "snapshot", "restore"},
}

// rateMetrics are work handled per second of the named call, summed over
// every call made.
var rateMetrics = []struct{ metric, layer, call string }{
	{"table.load_rows_per_s", "table", "load_tsv"},
	{"conv.edges_per_s", "conv", "to_directed"},
	{"algo.pagerank_edges_per_s", "algo", "pagerank"}, // edges times the ten iterations
}

// layerMetrics derives every span-based per-layer metric. A metric whose
// call the workload never makes is 0.
func layerMetrics(spans []span) map[string]metric {
	isDepth := map[string]bool{}
	for _, d := range depths {
		isDepth[d.layer] = true
	}
	measured := map[[2]string][]float64{} // (depth, verb) -> ms of measured ops only
	all := map[[2]string][]float64{}      // (layer, verb or call) -> ms, set-up included
	work, busy := map[[2]string]float64{}, map[[2]string]float64{}
	leavesOf := map[int]float64{}  // engine span -> ms its leaves took
	engineVerb := map[int]string{} // engine span of a measured op -> verb
	var viewBytes int64
	for _, s := range spans {
		name := s.Verb
		if s.Layer == "client" {
			continue // the op as a whole: the end-to-end metrics cover it
		}
		if !isDepth[s.Layer] {
			_, name, _ = strings.Cut(s.Verb, "/")
			if parent := spans[s.Parent-1]; parent.Layer == "engine" {
				leavesOf[parent.ID] += s.ms()
			}
			work[[2]string{s.Layer, name}] += float64(s.Work)
			busy[[2]string{s.Layer, name}] += s.ms() / 1e3
			if name == "view_fetch" {
				viewBytes = max(viewBytes, s.Work)
			}
		} else if s.Op >= 0 {
			measured[[2]string{s.Layer, s.Verb}] = append(measured[[2]string{s.Layer, s.Verb}], s.ms())
			if s.Layer == "engine" {
				engineVerb[s.ID] = s.Verb
			}
		}
		all[[2]string{s.Layer, name}] = append(all[[2]string{s.Layer, name}], s.ms())
	}
	for id, verb := range engineVerb {
		measured[[2]string{"leaf", verb}] = append(measured[[2]string{"leaf", verb}], leavesOf[id])
	}
	// self is a depth's own cost per request: for each verb of the measured
	// ops, its median at that depth minus its median one depth down; then
	// the median of those differences over the requests sent. A mean would
	// let the run-to-run wobble of one slow verb (half a percent of top's
	// 10 ms) bury the few microseconds the depth costs every request.
	self := func(upper, lower string) float64 {
		type diff struct {
			ms float64
			n  int
		}
		var diffs []diff
		total := 0
		for key, ms := range measured {
			if key[0] == upper {
				diffs = append(diffs, diff{median(ms) - median(measured[[2]string{lower, key[1]}]), len(ms)})
				total += len(ms)
			}
		}
		sort.Slice(diffs, func(i, j int) bool { return diffs[i].ms < diffs[j].ms })
		seen := 0
		for _, d := range diffs {
			if seen += d.n; 2*seen >= total {
				return d.ms
			}
		}
		return 0
	}
	out := map[string]metric{
		"server.http_ms":    {self("http", "handler"), "ms"},
		"server.handler_ms": {self("handler", "session"), "ms"},
		"server.session_ms": {self("session", "engine"), "ms"},
		"repl.eval_self_ms": {self("engine", "leaf"), "ms"},
		"graph.view_bytes":  {float64(viewBytes), "B"},
	}
	for _, v := range verbMetrics {
		out["repl."+v+"_ms"] = metric{median(all[[2]string{"http", v}]), "ms"}
	}
	for _, l := range leafMetrics {
		out[l.metric] = metric{median(all[[2]string{l.layer, l.call}]), "ms"}
	}
	for _, r := range rateMetrics {
		out[r.metric] = metric{safeDiv(work[[2]string{r.layer, r.call}], busy[[2]string{r.layer, r.call}]), "1/s"}
	}
	return out
}

func safeDiv(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// quantile is the nearest-rank q-quantile; 0 for no samples.
func quantile(v []float64, q float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s[min(len(s)-1, int(q*float64(len(s))))]
}

// median averages the two middle samples of an even count, as Python's
// statistics.median does; 0 for no samples.
func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return (s[(len(s)-1)/2] + s[len(s)/2]) / 2
}
