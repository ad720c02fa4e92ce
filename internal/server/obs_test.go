package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"testing"
	"time"

	"log/slog"

	"ringo/internal/repl"
)

// postCmd is a test helper: run one command in a session over HTTP.
func postCmd(t *testing.T, ts *httptest.Server, session, cmd string) {
	t.Helper()
	body := fmt.Sprintf(`{"cmd":%q}`, cmd)
	resp, err := ts.Client().Post(ts.URL+"/sessions/"+session+"/query", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		b, _ := io.ReadAll(resp.Body)
		t.Fatalf("%s -> %d: %s", cmd, resp.StatusCode, b)
	}
}

// TestMetricsEndpoint drives real traffic through a server and asserts
// GET /metrics returns well-formed Prometheus text exposition carrying
// every family the acceptance criteria name: per-route HTTP histograms,
// per-verb repl histograms, cache hit/miss counters, job gauges, and
// runtime gauges.
func TestMetricsEndpoint(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := srv.CreateSession("m"); err != nil {
		t.Fatal(err)
	}
	postCmd(t, ts, "m", "gen rmat E 8 500 7")
	postCmd(t, ts, "m", "tograph G E src dst")
	postCmd(t, ts, "m", "pagerank PR G")
	postCmd(t, ts, "m", "pagerank PR G") // result-cache hit
	postCmd(t, ts, "m", "algo G wcc")    // exercises an algo kernel timer

	// One async job, completed, so the job counters move.
	resp, err := ts.Client().Post(ts.URL+"/sessions/m/jobs", "application/json", strings.NewReader(`{"cmd":"algo G triangles"}`))
	if err != nil {
		t.Fatal(err)
	}
	var job JobView
	if err := json.NewDecoder(resp.Body).Decode(&job); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	waitJob(t, ts, job.ID)

	resp, err = ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	if id := resp.Header.Get("X-Request-ID"); id == "" {
		t.Error("no X-Request-ID header")
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	out := string(raw)

	checkExposition(t, out)

	for _, want := range []string{
		`ringo_http_requests_total{class="2xx",route="POST /sessions/{id}/query"}`,
		`ringo_http_request_duration_seconds_count{route="POST /sessions/{id}/query"} 5`,
		"ringo_http_in_flight_requests 1", // the /metrics scrape itself
		`ringo_verb_duration_seconds_count{verb="pagerank"} 2`,
		`ringo_verb_calls_total{verb="tograph"} 1`,
		`ringo_algo_duration_seconds_count{algo="wcc"}`,
		`ringo_algo_duration_seconds_count{algo="triangles"}`,
		"ringo_result_cache_hits_total 1",
		"ringo_result_cache_misses_total",
		"ringo_view_cache_hits_total",
		"ringo_jobs_done_total 1",
		"ringo_jobs_failed_total 0",
		"ringo_jobs_queued 0",
		"ringo_jobs_submitted_total 1",
		"ringo_sessions 1",
		"ringo_goroutines",
		"ringo_heap_alloc_bytes",
		"ringo_gc_pause_seconds_total",
		"ringo_uptime_seconds",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestIncrementalMetrics drives the mutation verbs through a session and
// asserts the incremental tier's counters move and are exposed on both
// GET /metrics and GET /stats: a warm view mutated by a small batch is
// patched (not rebuilt) on requery, and the delta gauge tracks the deltas
// a held view still needs — here the undirected projection, until the
// next undirected query patches it forward.
func TestIncrementalMetrics(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := srv.CreateSession("inc"); err != nil {
		t.Fatal(err)
	}
	postCmd(t, ts, "inc", "gen rmat E 8 500 7")
	postCmd(t, ts, "inc", "tograph G E src dst")
	postCmd(t, ts, "inc", "algo G wcc")       // runs on the binding's view
	postCmd(t, ts, "inc", "algo G triangles") // the binding holds its projection
	postCmd(t, ts, "inc", "addedge G 9001 9002")
	postCmd(t, ts, "inc", "deledge G 9001 9002")
	postCmd(t, ts, "inc", "addnode G 9003")
	postCmd(t, ts, "inc", "algo G wcc") // patches the warm view forward

	p, r := srv.PatchStats()
	if p != 1 {
		t.Fatalf("PatchStats patches = %d, want 1 (rebuilds %d)", p, r)
	}
	if d := srv.DeltaEdges(); d != 3 {
		t.Fatalf("DeltaEdges = %d, want 3", d)
	}

	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"ringo_view_patches_total 1",
		"ringo_view_rebuilds_total",
		"ringo_delta_edges 3",
	} {
		if !strings.Contains(string(raw), want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	resp, err = ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Views struct {
			Patches    uint64 `json:"patches"`
			Rebuilds   uint64 `json:"rebuilds"`
			DeltaEdges int    `json:"delta_edges"`
		} `json:"views"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Views.Patches != 1 || stats.Views.DeltaEdges != 3 {
		t.Fatalf("/stats views = %+v, want patches 1 and delta_edges 3", stats.Views)
	}

	postCmd(t, ts, "inc", "algo G triangles") // patches the projection forward
	if p, _ := srv.PatchStats(); p != 2 || srv.DeltaEdges() != 0 {
		t.Fatalf("after the undirected query: %d patches, %d deltas; want 2 and 0", p, srv.DeltaEdges())
	}
}

// scrapeTotals returns every *_total series of GET /metrics by series key.
func scrapeTotals(t *testing.T, ts *httptest.Server) map[string]float64 {
	t.Helper()
	resp, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	totals := map[string]float64{}
	for _, line := range strings.Split(string(raw), "\n") {
		i := strings.LastIndexByte(line, ' ')
		if strings.HasPrefix(line, "#") || i < 0 {
			continue
		}
		key := line[:i]
		if name, _, _ := strings.Cut(key, "{"); !strings.HasSuffix(name, "_total") {
			continue
		}
		v, err := strconv.ParseFloat(line[i+1:], 64)
		if err != nil {
			t.Fatalf("unparseable sample %q", line)
		}
		totals[key] = v
	}
	return totals
}

// TestTotalsSurviveSessionDrop: the view, patch and index counters are
// summed over sessions, so dropping a session must retire its totals into
// the server, not subtract them — a Prometheus counter never decreases,
// and a create-query-drop client must still be visible after it leaves.
func TestTotalsSurviveSessionDrop(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := srv.CreateSession("gone"); err != nil {
		t.Fatal(err)
	}
	postCmd(t, ts, "gone", "gen rmat E 8 500 7")
	postCmd(t, ts, "gone", "select S E src = 0") // index-cache miss, admitted
	postCmd(t, ts, "gone", "select S E src = 1") // index-cache miss, built
	postCmd(t, ts, "gone", "select S E src = 2") // index-cache hit
	postCmd(t, ts, "gone", "tograph G E src dst")
	postCmd(t, ts, "gone", "algo G triangles")    // projection miss, rebuild
	postCmd(t, ts, "gone", "algo G 3core")        // projection hit
	postCmd(t, ts, "gone", "addedge G 9001 9002") // logged, folded by the next query
	postCmd(t, ts, "gone", "pagerank PR G")       // the fold: a patch

	before := scrapeTotals(t, ts)
	for _, name := range []string{metricViewCacheHits, metricViewCacheMisses, metricViewPatches,
		metricViewRebuilds, metricIndexCacheHits, metricIndexCacheMisses} {
		if before[name] == 0 {
			t.Errorf("test setup: %s did not move before the drop", name)
		}
	}
	if !srv.DropSession("gone") {
		t.Fatal("session was not dropped")
	}
	after := scrapeTotals(t, ts)
	for key, was := range before {
		if now, ok := after[key]; !ok || now < was {
			t.Errorf("%s went from %v to %v across a session drop", key, was, now)
		}
	}
}

// checkExposition is a strict structural parse of Prometheus text format:
// every sample belongs to a family announced by a preceding # TYPE, no
// series line repeats, and histogram buckets are cumulative.
func checkExposition(t *testing.T, out string) {
	t.Helper()
	typed := map[string]bool{}
	helped := map[string]int{}
	seen := map[string]bool{}
	for n, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		lineNo := n + 1
		switch {
		case line == "":
			t.Fatalf("line %d: blank line", lineNo)
		case strings.HasPrefix(line, "# HELP "):
			name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
			helped[name]++
			if helped[name] > 1 {
				t.Errorf("line %d: duplicate # HELP %s", lineNo, name)
			}
		case strings.HasPrefix(line, "# TYPE "):
			name, typ, _ := strings.Cut(strings.TrimPrefix(line, "# TYPE "), " ")
			if typed[name] {
				t.Errorf("line %d: duplicate # TYPE %s", lineNo, name)
			}
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Errorf("line %d: bad type %q", lineNo, typ)
			}
			typed[name] = true
		case strings.HasPrefix(line, "#"):
			t.Fatalf("line %d: unexpected comment %q", lineNo, line)
		default:
			var key, val string
			if i := strings.Index(line, "} "); strings.Contains(line, "{") && i >= 0 {
				key, val = line[:i+1], line[i+2:]
			} else if k, v, ok := strings.Cut(line, " "); ok {
				key, val = k, v
			} else {
				t.Fatalf("line %d: malformed sample %q", lineNo, line)
			}
			if seen[key] {
				t.Errorf("line %d: duplicate series %q", lineNo, key)
			}
			seen[key] = true
			name := key
			if i := strings.IndexByte(name, '{'); i >= 0 {
				name = name[:i]
			}
			base := name
			for _, suf := range []string{"_bucket", "_sum", "_count"} {
				base = strings.TrimSuffix(base, suf)
			}
			if !typed[name] && !typed[base] {
				t.Errorf("line %d: sample %q has no preceding # TYPE", lineNo, line)
			}
			if _, err := strconv.ParseFloat(val, 64); err != nil {
				t.Errorf("line %d: unparseable value %q", lineNo, val)
			}
		}
	}
	if len(seen) == 0 {
		t.Fatal("exposition had no samples")
	}
}

func waitJob(t *testing.T, ts *httptest.Server, id string) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := ts.Client().Get(ts.URL + "/jobs/" + id)
		if err != nil {
			t.Fatal(err)
		}
		var v JobView
		if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if v.State == JobDone || v.State == JobFailed {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatalf("job %s did not finish", id)
}

// TestStatsReadsFromRegistry checks GET /stats keeps the pre-registry
// JSON keys byte-compatible, adds the new runtime figures, and agrees
// with the registry it reads from.
func TestStatsReadsFromRegistry(t *testing.T) {
	srv := New(Config{})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := srv.CreateSession("s"); err != nil {
		t.Fatal(err)
	}
	postCmd(t, ts, "s", "gen rmat E 8 500 7")
	postCmd(t, ts, "s", "tograph G E src dst")
	postCmd(t, ts, "s", "algo G triangles") // the projection goes through the view cache
	postCmd(t, ts, "s", "pagerank PR G")
	postCmd(t, ts, "s", "pagerank PR G")

	resp, err := ts.Client().Get(ts.URL + "/stats")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var stats struct {
		Sessions int            `json:"sessions"`
		Jobs     map[string]int `json:"jobs"`
		Cache    struct {
			Hits, Misses uint64
			Entries      int
		} `json:"cache"`
		Views struct {
			Hits, Misses uint64
			Entries      int
			Bytes        int64
		} `json:"views"`
		Uptime     float64 `json:"uptime_seconds"`
		Goroutines int     `json:"goroutines"`
		HeapBytes  uint64  `json:"heap_bytes"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 1 {
		t.Errorf("sessions = %d", stats.Sessions)
	}
	if stats.Cache.Hits != 1 || stats.Cache.Entries == 0 {
		t.Errorf("cache = %+v", stats.Cache)
	}
	if stats.Views.Misses == 0 {
		t.Errorf("views = %+v", stats.Views)
	}
	for _, k := range []string{JobQueued, JobRunning, JobDone, JobFailed} {
		if _, ok := stats.Jobs[k]; !ok {
			t.Errorf("jobs missing key %q", k)
		}
	}
	if stats.Goroutines == 0 || stats.HeapBytes == 0 || stats.Uptime < 0 {
		t.Errorf("runtime figures = %d goroutines, %d heap, %f uptime", stats.Goroutines, stats.HeapBytes, stats.Uptime)
	}
	// Same source of truth as /metrics.
	if hits, _ := srv.Metrics().Value(metricResultCacheHits); uint64(hits) != stats.Cache.Hits {
		t.Errorf("registry hits %v != /stats hits %d", hits, stats.Cache.Hits)
	}
}

// TestJobCountsSurvivePruning is the regression test for the lifecycle
// bugfix: terminal jobs pruned from the retention window — like failed
// script jobs that kept their partial batches — must still count in
// GET /stats aggregates.
func TestJobCountsSurvivePruning(t *testing.T) {
	srv := New(Config{Workers: 1})
	defer srv.Close()
	srv.jobs.retain = 2 // force pruning after a couple of jobs

	if _, err := srv.CreateSession("p"); err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv)
	defer ts.Close()
	postCmd(t, ts, "p", "gen rmat E 8 500 7")
	postCmd(t, ts, "p", "tograph G E src dst")

	sess, _ := srv.session("p")
	const n = 6
	var failed, done int
	for i := 0; i < n; i++ {
		var body string
		if i%2 == 0 {
			// A script whose second step fails: the job fails but keeps
			// its partial batch — exactly the shape that used to vanish.
			body = "algo G wcc\nalgo G nonsense"
			script, err := repl.ParseScript(body)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := srv.jobs.submit(sess, "script (2 steps)", script); err != nil {
				t.Fatal(err)
			}
			failed++
		} else {
			if _, err := srv.jobs.submit(sess, "algo G triangles", nil); err != nil {
				t.Fatal(err)
			}
			done++
		}
	}
	drain := func() {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			c := srv.jobs.counts()
			if c[JobQueued] == 0 && c[JobRunning] == 0 {
				return
			}
			time.Sleep(5 * time.Millisecond)
		}
		t.Fatal("job queue never drained")
	}
	drain()
	// Pruning happens at submit time, so one more job after the batch is
	// terminal forces the registry down to the retention cap.
	if _, err := srv.jobs.submit(sess, "algo G triangles", nil); err != nil {
		t.Fatal(err)
	}
	done++
	drain()

	c := srv.jobs.counts()
	if c[JobDone] != done || c[JobFailed] != failed {
		t.Errorf("counts = %v, want done=%d failed=%d", c, done, failed)
	}
	// The retention window really did prune.
	if got := len(srv.jobs.list("")); got > 2+1 { // +1: a running job is never pruned mid-flight
		t.Errorf("retained %d jobs, want <= 3", got)
	}
	// A pruned failed script job is still visible in the cumulative
	// failed counter even though GET /jobs no longer lists it.
	if int(srv.jobs.failed.Value()) != failed {
		t.Errorf("failed counter = %d, want %d", srv.jobs.failed.Value(), failed)
	}
}

// TestRequestLogging checks the slog request records carry the request id
// the response exposed, and that slow queries emit their own record.
func TestRequestLogging(t *testing.T) {
	var buf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&buf, nil))
	srv := New(Config{Logger: logger, SlowQuery: time.Nanosecond})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()

	if _, err := srv.CreateSession("lg"); err != nil {
		t.Fatal(err)
	}
	resp, err := ts.Client().Post(ts.URL+"/sessions/lg/query", "application/json", strings.NewReader(`{"cmd":"gen rmat E 8 200 7"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	reqID := resp.Header.Get("X-Request-ID")
	if reqID == "" {
		t.Fatal("no request id")
	}

	logs := buf.String()
	var sawRequest, sawSlow bool
	for _, line := range strings.Split(strings.TrimSpace(logs), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("log line not JSON: %q", line)
		}
		switch rec["msg"] {
		case "http request":
			if rec["id"] == reqID && rec["route"] == "POST /sessions/{id}/query" && rec["status"] == float64(200) {
				sawRequest = true
			}
		case "slow query":
			if rec["verb"] == "gen" && rec["session"] == "lg" {
				sawSlow = true
			}
		}
	}
	if !sawRequest {
		t.Errorf("no request record with id %s:\n%s", reqID, logs)
	}
	if !sawSlow {
		t.Errorf("no slow-query record:\n%s", logs)
	}
}

// counts reports job-state occupancy from the lifecycle metrics: queued
// and running are current, done and failed are cumulative since startup —
// so jobs pruned from the retention window (which GET /jobs no longer
// lists) still show up in the totals.
func (r *jobRunner) counts() map[string]int {
	return map[string]int{
		JobQueued:  int(r.queued.Value()),
		JobRunning: int(r.running.Value()),
		JobDone:    int(r.done.Value()),
		JobFailed:  int(r.failed.Value()),
	}
}
