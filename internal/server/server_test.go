package server

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringo/internal/repl"
)

func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	srv := New(cfg)
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t *testing.T, method, url string, body any, out any) int {
	t.Helper()
	var buf bytes.Buffer
	if body != nil {
		if err := json.NewEncoder(&buf).Encode(body); err != nil {
			t.Fatal(err)
		}
	}
	req, err := http.NewRequest(method, url, &buf)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if out != nil {
		if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
			t.Fatalf("%s %s: decode: %v", method, url, err)
		}
	}
	return resp.StatusCode
}

func query(t *testing.T, base, session, cmd string) *repl.Result {
	t.Helper()
	var res repl.Result
	code := doJSON(t, "POST", base+"/sessions/"+session+"/query", map[string]string{"cmd": cmd}, &res)
	if code != http.StatusOK {
		t.Fatalf("query %q on %s: status %d", cmd, session, code)
	}
	return &res
}

func TestSessionLifecycle(t *testing.T) {
	_, ts := newTestServer(t, Config{})

	// Empty listing is an array, not null.
	resp, err := http.Get(ts.URL + "/sessions")
	if err != nil {
		t.Fatal(err)
	}
	var raw bytes.Buffer
	_, _ = raw.ReadFrom(resp.Body)
	resp.Body.Close()
	if !strings.Contains(raw.String(), `"sessions":[]`) {
		t.Fatalf("empty listing = %s", raw.String())
	}

	// A malformed create body is a 400, not a silently generated session.
	req, _ := http.NewRequest("POST", ts.URL+"/sessions", strings.NewReader("{bad"))
	resp, err = http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed create: status %d", resp.StatusCode)
	}

	var created struct{ ID string }
	if code := doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "alice"}, &created); code != http.StatusCreated {
		t.Fatalf("create: status %d", code)
	}
	if created.ID != "alice" {
		t.Fatalf("created id = %q", created.ID)
	}
	// Duplicate name conflicts.
	if code := doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "alice"}, nil); code != http.StatusConflict {
		t.Fatalf("duplicate create: status %d", code)
	}
	// Anonymous create gets a generated id.
	if code := doJSON(t, "POST", ts.URL+"/sessions", nil, &created); code != http.StatusCreated {
		t.Fatalf("anon create: status %d", code)
	}
	if created.ID == "" || created.ID == "alice" {
		t.Fatalf("generated id = %q", created.ID)
	}

	query(t, ts.URL, "alice", "gen rmat E 6 40 1")
	var detail struct {
		Objects []struct {
			Name, Kind, Summary, Provenance string
		}
	}
	if code := doJSON(t, "GET", ts.URL+"/sessions/alice", nil, &detail); code != http.StatusOK {
		t.Fatalf("get session: status %d", code)
	}
	if len(detail.Objects) != 1 || detail.Objects[0].Name != "E" || detail.Objects[0].Kind != "table" {
		t.Fatalf("session objects = %+v", detail.Objects)
	}
	if detail.Objects[0].Provenance != "gen rmat E 6 40 1" {
		t.Fatalf("provenance = %q", detail.Objects[0].Provenance)
	}

	var listing struct {
		Sessions []struct {
			ID      string
			Objects int
		}
	}
	doJSON(t, "GET", ts.URL+"/sessions", nil, &listing)
	if len(listing.Sessions) != 2 {
		t.Fatalf("sessions = %+v", listing.Sessions)
	}

	if code := doJSON(t, "DELETE", ts.URL+"/sessions/alice", nil, nil); code != http.StatusOK {
		t.Fatalf("delete: status %d", code)
	}
	if code := doJSON(t, "DELETE", ts.URL+"/sessions/alice", nil, nil); code != http.StatusNotFound {
		t.Fatalf("double delete: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/alice/query", map[string]string{"cmd": "ls"}, nil); code != http.StatusNotFound {
		t.Fatalf("query on deleted session: status %d", code)
	}
}

func TestQueryErrors(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	// Bad command -> 400 with an error payload.
	var e struct{ Error string }
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/query", map[string]string{"cmd": "bogus"}, &e); code != http.StatusBadRequest {
		t.Fatalf("bogus cmd: status %d", code)
	}
	if !strings.Contains(e.Error, "unknown command") {
		t.Fatalf("error payload = %q", e.Error)
	}
	// Empty command -> 400.
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/query", map[string]string{"cmd": "  "}, nil); code != http.StatusBadRequest {
		t.Fatalf("empty cmd: status %d", code)
	}
	// File-touching verbs are rejected over HTTP unless opted in.
	for _, cmd := range []string{"save X /tmp/out.tsv", "load X /etc/passwd a:string", "loadgraph X /etc/passwd"} {
		if code := doJSON(t, "POST", ts.URL+"/sessions/s/query", map[string]string{"cmd": cmd}, &e); code != http.StatusBadRequest {
			t.Fatalf("file verb %q: status %d", cmd, code)
		}
		if !strings.Contains(e.Error, "file access is disabled") {
			t.Fatalf("file verb %q error = %q", cmd, e.Error)
		}
	}
	srvFiles, _ := newTestServer(t, Config{AllowFileIO: true})
	if _, err := srvFiles.CreateSession("f"); err != nil {
		t.Fatal(err)
	}
	if _, err := srvFiles.Eval("f", "loadgraph X /nonexistent"); err == nil || strings.Contains(err.Error(), "disabled") {
		t.Fatalf("AllowFileIO server rejected file verb: %v", err)
	}
	// Session cap.
	srv2, _ := newTestServer(t, Config{MaxSessions: 1})
	if _, err := srv2.CreateSession("one"); err != nil {
		t.Fatal(err)
	}
	if _, err := srv2.CreateSession("two"); err == nil {
		t.Fatal("session cap not enforced")
	}
}

// TestEvalRecoversPanics: a panicking evaluation must come back as an
// error on the querying client, not crash the server (job workers have no
// net/http recovery above them).
func TestEvalRecoversPanics(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	panics := true
	srv.testHookQueryBarrier = func(string, bool) {
		if panics {
			panics = false
			panic("boom")
		}
	}
	var e struct{ Error string }
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/query", map[string]string{"cmd": "ls"}, &e); code != http.StatusInternalServerError {
		t.Fatalf("panicking query: status %d, want 500", code)
	}
	if !strings.Contains(e.Error, "internal error") {
		t.Fatalf("panicking query error = %q", e.Error)
	}
	// The session lock was released on the way out: the session still works.
	srv.testHookQueryBarrier = nil
	if r := query(t, ts.URL, "s", "ls"); r.Message != "(workspace empty)" {
		t.Fatalf("session broken after panic: %+v", r)
	}

	// Same through the async path: the worker survives.
	panics = true
	srv.testHookQueryBarrier = func(string, bool) {
		if panics {
			panics = false
			panic("boom")
		}
	}
	var j JobView
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "gen rmat E 6 30 1"}, &j)
	failed := waitState(t, ts.URL, j.ID, JobFailed)
	if !strings.Contains(failed.Error, "internal error") {
		t.Fatalf("panicking job error = %q", failed.Error)
	}
	srv.testHookQueryBarrier = nil
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "gen rmat E 6 30 1"}, &j)
	if done := waitState(t, ts.URL, j.ID, JobDone); done.Result == nil {
		t.Fatal("worker dead after panicking job")
	}
}

// TestCloseFailsQueuedJobsWithoutRunningThem: shutdown lets the in-flight
// job finish but must not wait out the queued backlog.
func TestCloseFailsQueuedJobsWithoutRunningThem(t *testing.T) {
	srv := New(Config{Workers: 1})
	ts := httptest.NewServer(srv)
	defer ts.Close()
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 7 100 1")
	query(t, ts.URL, "s", "tograph G E src dst")

	release := make(chan struct{})
	var gate sync.Once
	srv.testHookQueryBarrier = func(_ string, readOnly bool) {
		if !readOnly {
			gate.Do(func() { <-release })
		}
	}
	var j1, j2 JobView
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank PR G"}, &j1)
	waitState(t, ts.URL, j1.ID, JobRunning)
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank PR2 G"}, &j2)

	closed := make(chan struct{})
	go func() {
		srv.Close()
		close(closed)
	}()
	// Close is initiated (closed flag set, queue closed) while j1 is still
	// blocked; give it a moment, then let j1 finish.
	time.Sleep(50 * time.Millisecond)
	close(release)
	select {
	case <-closed:
	case <-time.After(10 * time.Second):
		t.Fatal("Close did not return")
	}
	v1, _ := srv.jobs.get(j1.ID)
	if s := v1.snapshot(); s.State != JobDone {
		t.Fatalf("in-flight job state = %q, want done", s.State)
	}
	v2, _ := srv.jobs.get(j2.ID)
	if s := v2.snapshot(); s.State != JobFailed || !strings.Contains(s.Error, "server closed") {
		t.Fatalf("queued job state = %q (%q), want failed/server closed", s.State, s.Error)
	}
	// New submissions are refused.
	sess, _ := srv.session("s")
	if _, err := srv.jobs.submit(sess, "ls", nil); err == nil {
		t.Fatal("submit after close succeeded")
	}
}

// TestJobBoundToSessionInstance: a queued job must not run in a same-named
// session created after the original was dropped.
func TestJobBoundToSessionInstance(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 7 100 1")
	query(t, ts.URL, "s", "tograph G E src dst")

	// Only the first mutating eval blocks (j1); the recreated session's
	// own queries must pass through, so a sync.Once (whose Do blocks
	// concurrent callers) cannot be used here.
	release := make(chan struct{})
	var gated atomic.Bool
	srv.testHookQueryBarrier = func(_ string, readOnly bool) {
		if !readOnly && gated.CompareAndSwap(false, true) {
			<-release
		}
	}
	// j1 occupies the single worker; j2 queues, then its session is
	// dropped and recreated under the same id.
	var j1, j2 JobView
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank PR G"}, &j1)
	waitState(t, ts.URL, j1.ID, JobRunning)
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "rm E"}, &j2)
	doJSON(t, "DELETE", ts.URL+"/sessions/s", nil, nil)
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 6 30 9")
	close(release)

	failed := waitState(t, ts.URL, j2.ID, JobFailed)
	if !strings.Contains(failed.Error, "dropped") {
		t.Fatalf("job 2 error = %q", failed.Error)
	}
	// The newcomer's E survived.
	if r := query(t, ts.URL, "s", "ls"); len(r.Rows) != 1 || r.Rows[0][0] != "E" {
		t.Fatalf("new session workspace = %+v", r.Rows)
	}
}

func TestSessionIDValidationAndCachePurge(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	for _, bad := range []string{"a/b", "a b", "..%2f", strings.Repeat("x", 65)} {
		if code := doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": bad}, nil); code != http.StatusBadRequest {
			t.Errorf("create %q: status %d, want 400", bad, code)
		}
	}
	// Full server answers 503, not 409.
	_, tsFull := newTestServer(t, Config{MaxSessions: 1})
	doJSON(t, "POST", tsFull.URL+"/sessions", nil, nil)
	if code := doJSON(t, "POST", tsFull.URL+"/sessions", nil, nil); code != http.StatusServiceUnavailable {
		t.Errorf("create on full server: status %d, want 503", code)
	}
	// Dropping a session purges its cache entries.
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 8 300 1")
	query(t, ts.URL, "s", "tograph G E src dst")
	query(t, ts.URL, "s", "algo G wcc")
	if _, _, size, bytes := srv.CacheStats(); size != 1 || bytes == 0 {
		t.Fatalf("cache size = %d (%d bytes), want 1 entry with its message booked", size, bytes)
	}
	srv.DropSession("s")
	if _, _, size, bytes := srv.CacheStats(); size != 0 || bytes != 0 {
		t.Fatalf("cache after drop = %d entries, %d bytes, want 0/0", size, bytes)
	}
}

// TestRecreatedSessionDoesNotInheritCache guards against fingerprint reuse:
// a dropped-and-recreated session id starts a fresh workspace whose version
// clock repeats, so its cache namespace must be new.
func TestRecreatedSessionDoesNotInheritCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 8 300 1")
	query(t, ts.URL, "s", "tograph G E src dst")
	query(t, ts.URL, "s", "algo G wcc")
	if r := query(t, ts.URL, "s", "algo G wcc"); !r.Cached {
		t.Fatal("warm-up re-query not cached")
	}
	if !srv.DropSession("s") {
		t.Fatal("drop failed")
	}
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	// Different data under the same object names and (restarted) versions.
	query(t, ts.URL, "s", "gen rmat E 8 300 99")
	query(t, ts.URL, "s", "tograph G E src dst")
	if r := query(t, ts.URL, "s", "algo G wcc"); r.Cached {
		t.Fatal("recreated session served the old instance's cache entry")
	}
}

// TestManyConcurrentSessions drives 8 sessions in parallel through the
// full analytics flow; under -race this exercises the per-session locks,
// the shared cache and the workspace locking together.
func TestManyConcurrentSessions(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	const n = 8
	for i := 0; i < n; i++ {
		doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": fmt.Sprintf("u%d", i)}, nil)
	}
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			id := fmt.Sprintf("u%d", i)
			// Different seeds so sessions hold genuinely different data.
			r := query(t, ts.URL, id, fmt.Sprintf("gen rmat E 8 %d %d", 200+i, i+1))
			if want := fmt.Sprintf("E: %d rows", 200+i); r.Message != want {
				t.Errorf("%s: %q, want %q", id, r.Message, want)
			}
			query(t, ts.URL, id, "tograph G E src dst")
			query(t, ts.URL, id, "pagerank PR G")
			query(t, ts.URL, id, "pagerank PR2 G")
			if r := query(t, ts.URL, id, "top PR 3"); len(r.Rows) != 3 {
				t.Errorf("%s: top rows = %d", id, len(r.Rows))
			}
			if r := query(t, ts.URL, id, "ls"); len(r.Rows) != 4 {
				t.Errorf("%s: ls rows = %d", id, len(r.Rows))
			}
		}(i)
	}
	wg.Wait()
}

// TestParallelReadsOverlap proves two read-only queries on one session hold
// the session lock simultaneously: each reader blocks inside the lock until
// the other arrives, which can only succeed if the lock is shared.
func TestParallelReadsOverlap(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 7 100 1")
	query(t, ts.URL, "s", "tograph G E src dst")

	var mu sync.Mutex
	inside := 0
	bothIn := make(chan struct{})
	srv.testHookQueryBarrier = func(_ string, readOnly bool) {
		if !readOnly {
			return
		}
		mu.Lock()
		inside++
		if inside == 2 {
			close(bothIn)
		}
		mu.Unlock()
		select {
		case <-bothIn:
		case <-time.After(10 * time.Second):
			t.Error("second reader never entered the lock: reads are serialized")
		}
	}
	defer func() { srv.testHookQueryBarrier = nil }()

	var wg sync.WaitGroup
	for _, cmd := range []string{"algo G wcc", "show E 3"} {
		wg.Add(1)
		go func(cmd string) {
			defer wg.Done()
			query(t, ts.URL, "s", cmd)
		}(cmd)
	}
	wg.Wait()
}

// TestCachedPageRankRequery is acceptance criterion (b): a repeated
// PageRank over an unchanged graph is served from the LRU without
// recomputation, observable through the server's hit counter.
func TestCachedPageRankRequery(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 9 800 3")
	query(t, ts.URL, "s", "tograph G E src dst")

	r1 := query(t, ts.URL, "s", "pagerank PR G")
	if r1.Cached {
		t.Fatal("first pagerank cached")
	}
	hits0, _, _, _ := srv.CacheStats()
	r2 := query(t, ts.URL, "s", "pagerank PR2 G")
	hits1, _, _, _ := srv.CacheStats()
	if !r2.Cached {
		t.Fatal("re-query not served from cache")
	}
	if hits1 != hits0+1 {
		t.Fatalf("cache hits %d -> %d, want +1", hits0, hits1)
	}
	if r2.ElapsedNS != 0 {
		t.Fatal("cached result reports compute time")
	}

	// Sessions do not share each other's entries: the same commands in a
	// fresh session miss.
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "other"}, nil)
	query(t, ts.URL, "other", "gen rmat E 9 800 3")
	query(t, ts.URL, "other", "tograph G E src dst")
	if r := query(t, ts.URL, "other", "pagerank PR G"); r.Cached {
		t.Fatal("cache entry leaked across sessions")
	}

	// Rebinding the graph invalidates.
	query(t, ts.URL, "s", "tograph G E src dst")
	if r := query(t, ts.URL, "s", "pagerank PR3 G"); r.Cached {
		t.Fatal("stale cache entry served after graph rebind")
	}

	// /stats reports the counters.
	var stats struct {
		Sessions int
		Cache    struct {
			Hits, Misses uint64
			Entries      int
		}
	}
	doJSON(t, "GET", ts.URL+"/stats", nil, &stats)
	if stats.Sessions != 2 || stats.Cache.Hits == 0 {
		t.Fatalf("stats = %+v", stats)
	}
}

// TestAsyncJobLifecycle is acceptance criterion (c): a job transitions
// queued -> running -> done and its result stays retrievable. The query
// barrier hook holds the job in "running" long enough to observe it, and
// holds the worker pool (size 1) busy so a second job is observably
// "queued".
func TestAsyncJobLifecycle(t *testing.T) {
	srv, ts := newTestServer(t, Config{Workers: 1})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 8 300 2")
	query(t, ts.URL, "s", "tograph G E src dst")

	release := make(chan struct{})
	var gate sync.Once
	srv.testHookQueryBarrier = func(_ string, readOnly bool) {
		if !readOnly {
			gate.Do(func() { <-release })
		}
	}

	var j1, j2 JobView
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank PR G"}, &j1); code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	if j1.State != JobQueued && j1.State != JobRunning {
		t.Fatalf("fresh job state = %q", j1.State)
	}
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank PR2 G"}, &j2)

	// With one worker blocked on the barrier, job 1 must reach running and
	// job 2 must sit queued.
	waitState(t, ts.URL, j1.ID, JobRunning)
	var v JobView
	doJSON(t, "GET", ts.URL+"/jobs/"+j2.ID, nil, &v)
	if v.State != JobQueued {
		t.Fatalf("job 2 state = %q, want queued", v.State)
	}

	close(release)
	done1 := waitState(t, ts.URL, j1.ID, JobDone)
	if done1.Result == nil || done1.Result.Bound != "PR" {
		t.Fatalf("job 1 result = %+v", done1.Result)
	}
	if done1.Started == nil || done1.Finished == nil {
		t.Fatal("job 1 missing timestamps")
	}
	done2 := waitState(t, ts.URL, j2.ID, JobDone)
	if done2.Result == nil || !done2.Result.Cached {
		t.Fatalf("job 2 should have been served from cache: %+v", done2.Result)
	}

	// The result stays retrievable after completion, and the scores are
	// usable in subsequent queries.
	doJSON(t, "GET", ts.URL+"/jobs/"+j1.ID, nil, &v)
	if v.State != JobDone || v.Result == nil {
		t.Fatalf("job 1 after completion = %+v", v)
	}
	if r := query(t, ts.URL, "s", "top PR 3"); len(r.Rows) != 3 {
		t.Fatalf("top over job-bound scores: %d rows", len(r.Rows))
	}

	// Failed job: bad command reaches a terminal failed state with the
	// engine's error.
	var jf JobView
	doJSON(t, "POST", ts.URL+"/sessions/s/jobs", map[string]string{"cmd": "pagerank X missing"}, &jf)
	failed := waitState(t, ts.URL, jf.ID, JobFailed)
	if !strings.Contains(failed.Error, "missing") {
		t.Fatalf("failed job error = %q", failed.Error)
	}

	// Job listing filters by session.
	var list struct{ Jobs []JobView }
	doJSON(t, "GET", ts.URL+"/jobs?session=s", nil, &list)
	if len(list.Jobs) != 3 {
		t.Fatalf("job list = %d entries, want 3", len(list.Jobs))
	}
	doJSON(t, "GET", ts.URL+"/jobs?session=nope", nil, &list)
	if len(list.Jobs) != 0 {
		t.Fatalf("filtered job list = %d entries, want 0", len(list.Jobs))
	}

	// Unknown job and unknown session 404.
	if code := doJSON(t, "GET", ts.URL+"/jobs/nosuch", nil, nil); code != http.StatusNotFound {
		t.Fatalf("unknown job: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/nosuch/jobs", map[string]string{"cmd": "ls"}, nil); code != http.StatusNotFound {
		t.Fatalf("job on unknown session: status %d", code)
	}
}

func waitState(t *testing.T, base, jobID, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(15 * time.Second)
	for {
		var v JobView
		doJSON(t, "GET", base+"/jobs/"+jobID, nil, &v)
		if v.State == want {
			return v
		}
		if v.State == JobDone || v.State == JobFailed || time.Now().After(deadline) {
			t.Fatalf("job %s state = %q (error %q), want %q", jobID, v.State, v.Error, want)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestAuthToken(t *testing.T) {
	_, ts := newTestServer(t, Config{AuthToken: "sesame"})
	// No token, wrong token -> 401.
	for _, hdr := range []string{"", "Bearer wrong", "sesame"} {
		req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
		if hdr != "" {
			req.Header.Set("Authorization", hdr)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusUnauthorized {
			t.Fatalf("auth %q: status %d, want 401", hdr, resp.StatusCode)
		}
	}
	req, _ := http.NewRequest("GET", ts.URL+"/stats", nil)
	req.Header.Set("Authorization", "Bearer sesame")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("valid token: status %d", resp.StatusCode)
	}
}

func TestLRUEviction(t *testing.T) {
	c := NewLRU(2)
	c.Put("a", repl.CachedResult{Message: "a"})
	c.Put("b", repl.CachedResult{Message: "b"})
	if _, ok := c.Get("a"); !ok { // refresh a; b is now oldest
		t.Fatal("a missing")
	}
	c.Put("c", repl.CachedResult{Message: "c"})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite refresh")
	}
	if _, ok := c.Get("c"); !ok {
		t.Fatal("c missing")
	}
	hits, misses, size, bytes := c.Stats()
	if size != 2 || hits != 3 || misses != 1 || bytes != 2 {
		t.Fatalf("stats: hits=%d misses=%d size=%d bytes=%d", hits, misses, size, bytes)
	}
	// Updating an existing key must not evict.
	c.Put("c", repl.CachedResult{Message: "c2"})
	if v, ok := c.Get("a"); !ok || v.Message != "a" {
		t.Fatal("update of existing key evicted another entry")
	}
}

// TestDisabledResultCache drives a server whose result cache is off — a
// nil *LRU — through every path that touches the cache: repeat queries,
// a workspace-replacing script step, restore and session drop.
func TestDisabledResultCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{CacheSize: -1, AllowFileIO: true})
	if _, err := srv.CreateSession("s"); err != nil {
		t.Fatal(err)
	}
	query(t, ts.URL, "s", "gen rmat E 7 200 3")
	query(t, ts.URL, "s", "tograph G E src dst")
	for i := 0; i < 2; i++ {
		if r := query(t, ts.URL, "s", "pagerank PR G"); r.Cached {
			t.Fatal("a disabled cache served a cached result")
		}
	}
	path := t.TempDir() + "/s.rngs"
	if _, err := srv.SnapshotSession("s", path); err != nil {
		t.Fatal(err)
	}
	script, err := repl.ParseScript("restore " + path + "\nls")
	if err != nil {
		t.Fatal(err)
	}
	if res, err := srv.EvalScript("s", script); err != nil || res.Err() != nil {
		t.Fatalf("script: %v, %v", err, res.Err())
	}
	if _, err := srv.RestoreSession("s", path); err != nil {
		t.Fatal(err)
	}
	if !srv.DropSession("s") {
		t.Fatal("session was not dropped")
	}
	if h, m, n, b := srv.CacheStats(); h != 0 || m != 0 || n != 0 || b != 0 {
		t.Fatalf("disabled cache stats %d/%d/%d/%d", h, m, n, b)
	}
}

// TestSnapshotRestoreEndpoints drives the full durability path over HTTP:
// build a session, snapshot it to disk, restore it into another session,
// and check the restored objects answer queries.
func TestSnapshotRestoreEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{AllowFileIO: true})
	path := t.TempDir() + "/ws.rsnp"

	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "src"}, nil)
	query(t, ts.URL, "src", "gen rmat E 7 120 3")
	query(t, ts.URL, "src", "tograph G E src dst")
	query(t, ts.URL, "src", "pagerank PR G")

	var snapResp struct {
		Session string `json:"session"`
		Path    string `json:"path"`
		Objects int    `json:"objects"`
	}
	code := doJSON(t, "POST", ts.URL+"/sessions/src/snapshot", map[string]string{"path": path}, &snapResp)
	if code != http.StatusOK || snapResp.Objects != 3 {
		t.Fatalf("snapshot: status %d resp %+v", code, snapResp)
	}

	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "dst"}, nil)
	var restResp struct {
		Objects int `json:"objects"`
	}
	code = doJSON(t, "POST", ts.URL+"/sessions/dst/restore", map[string]string{"path": path}, &restResp)
	if code != http.StatusOK || restResp.Objects != 3 {
		t.Fatalf("restore: status %d resp %+v", code, restResp)
	}
	r := query(t, ts.URL, "dst", "top PR 5")
	if len(r.Rows) != 5 {
		t.Fatalf("top over restored session: %d rows", len(r.Rows))
	}

	// Unknown session and bad bodies map to clean statuses.
	if code := doJSON(t, "POST", ts.URL+"/sessions/nope/snapshot", map[string]string{"path": path}, nil); code != http.StatusNotFound {
		t.Fatalf("snapshot of unknown session: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/dst/restore", map[string]string{"path": path + ".missing"}, nil); code != http.StatusBadRequest {
		t.Fatalf("restore of missing file: status %d", code)
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/dst/restore", map[string]string{}, nil); code != http.StatusBadRequest {
		t.Fatalf("restore with empty path: status %d", code)
	}
}

func TestSnapshotEndpointsGatedOnFileIO(t *testing.T) {
	_, ts := newTestServer(t, Config{}) // AllowFileIO off
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	for _, ep := range []string{"/sessions/s/snapshot", "/sessions/s/restore"} {
		if code := doJSON(t, "POST", ts.URL+ep, map[string]string{"path": "/tmp/x"}, nil); code != http.StatusForbidden {
			t.Fatalf("%s without -allow-file-io: status %d", ep, code)
		}
	}
	// The repl-level verbs are refused through /query as well.
	var out map[string]any
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/query", map[string]string{"cmd": "snapshot /tmp/x"}, &out); code != http.StatusBadRequest {
		t.Fatalf("snapshot verb without file IO: status %d (%v)", code, out)
	}
}

// TestRestorePurgesSessionCache: results cached against pre-restore
// fingerprints must not be served after a restore.
func TestRestorePurgesSessionCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{AllowFileIO: true})
	path := t.TempDir() + "/ws.rsnp"

	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 7 120 3")
	query(t, ts.URL, "s", "tograph G E src dst")
	code := doJSON(t, "POST", ts.URL+"/sessions/s/snapshot", map[string]string{"path": path}, nil)
	if code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}

	// Prime the cache, prove a repeat hits it.
	query(t, ts.URL, "s", "algo G wcc")
	if r := query(t, ts.URL, "s", "algo G wcc"); !r.Cached {
		t.Fatal("repeat algo not served from cache")
	}
	_, _, sizeBefore, _ := srv.CacheStats()
	if sizeBefore == 0 {
		t.Fatal("cache empty after priming")
	}

	code = doJSON(t, "POST", ts.URL+"/sessions/s/restore", map[string]string{"path": path}, nil)
	if code != http.StatusOK {
		t.Fatalf("restore: status %d", code)
	}
	if _, _, size, bytes := srv.CacheStats(); size != 0 || bytes != 0 {
		t.Fatalf("cache holds %d entries (%d bytes) after restore, want 0", size, bytes)
	}
	if r := query(t, ts.URL, "s", "algo G wcc"); r.Cached {
		t.Fatal("stale cache entry served after restore")
	}
}

// TestRestoreVerbPurgesSessionCache: the repl-level restore verb through
// /query must reclaim the session's cache entries just like the endpoint.
func TestRestoreVerbPurgesSessionCache(t *testing.T) {
	srv, ts := newTestServer(t, Config{AllowFileIO: true})
	path := t.TempDir() + "/ws.rsnp"

	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 7 120 3")
	query(t, ts.URL, "s", "tograph G E src dst")
	query(t, ts.URL, "s", "snapshot "+path)
	query(t, ts.URL, "s", "algo G wcc")
	if _, _, size, _ := srv.CacheStats(); size == 0 {
		t.Fatal("cache empty after priming")
	}
	query(t, ts.URL, "s", "restore "+path)
	if _, _, size, _ := srv.CacheStats(); size != 0 {
		t.Fatalf("cache holds %d entries after restore verb, want 0", size)
	}
}

// TestWarmStart exercises the -restore flag's code path: a fresh server
// restores a snapshot into a named session before serving.
func TestWarmStart(t *testing.T) {
	path := t.TempDir() + "/ws.rsnp"
	{
		_, ts := newTestServer(t, Config{AllowFileIO: true})
		doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
		query(t, ts.URL, "s", "gen rmat E 7 120 3")
		query(t, ts.URL, "s", "tograph G E src dst")
		query(t, ts.URL, "s", "pagerank PR G")
		if code := doJSON(t, "POST", ts.URL+"/sessions/s/snapshot", map[string]string{"path": path}, nil); code != http.StatusOK {
			t.Fatalf("snapshot: status %d", code)
		}
	}

	srv, ts := newTestServer(t, Config{}) // file IO off: warm start still works
	if err := srv.WarmStart("main", path); err != nil {
		t.Fatal(err)
	}
	r := query(t, ts.URL, "main", "top PR 5")
	if len(r.Rows) != 5 {
		t.Fatalf("top over warm-started session: %d rows", len(r.Rows))
	}
	r = query(t, ts.URL, "main", "ls")
	if len(r.Rows) != 3 {
		t.Fatalf("ls over warm-started session: %d objects", len(r.Rows))
	}

	// A bad snapshot path must fail and leave no half-restored session.
	if err := srv.WarmStart("other", path+".missing"); err == nil {
		t.Fatal("warm start from missing file succeeded")
	}
	for _, id := range srv.SessionIDs() {
		if id == "other" {
			t.Fatal("failed warm start left session behind")
		}
	}
}

// TestViewCacheStatsOnServer checks the second cache layer: distinct
// analytics over one unchanged graph share its CSR view (hits climb), the
// /stats endpoint surfaces the counters, and disabling the per-session
// view cache via config turns the layer off. A tograph binding is its own
// view and never touches the cache, so the graph is mutated once first:
// the mutation thaws it and leaves the frozen view cached as a patch base.
func TestViewCacheStatsOnServer(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 9 800 3")
	query(t, ts.URL, "s", "tograph G E src dst")

	// Three different undirected analytics: one projection fill, two view
	// hits (the result cache cannot serve them — the commands differ).
	query(t, ts.URL, "s", "algo G triangles")
	query(t, ts.URL, "s", "algo G 3core")
	query(t, ts.URL, "s", "algo G bridges")
	hits, misses, entries, bytes := srv.ViewCacheStats()
	if misses != 1 || hits != 2 {
		t.Fatalf("view stats: %d hits, %d misses; want 2 hits, 1 miss", hits, misses)
	}
	if entries != 1 || bytes <= 0 {
		t.Fatalf("view stats: %d entries, %d bytes", entries, bytes)
	}

	// A directed analytic runs on the binding's own view: no cache
	// traffic.
	query(t, ts.URL, "s", "algo G wcc")
	if hits, misses, entries, _ = srv.ViewCacheStats(); hits != 2 || misses != 1 || entries != 1 {
		t.Fatalf("after wcc: %d hits, %d misses, %d entries; want 2/1/1", hits, misses, entries)
	}

	// After a mutation the projection misses once, patched from the
	// resident base it then supersedes.
	query(t, ts.URL, "s", "addnode G 100000")
	query(t, ts.URL, "s", "algo G triangles")
	if _, misses, entries, _ = srv.ViewCacheStats(); misses != 2 || entries != 1 {
		t.Fatalf("after the mutation: %d misses, %d entries; want 2/1", misses, entries)
	}

	// Rebinding the graph purges its views.
	query(t, ts.URL, "s", "tograph G E src dst")
	if _, _, entries, _ = srv.ViewCacheStats(); entries != 0 {
		t.Fatalf("rebind left %d view entries", entries)
	}

	var stats struct {
		Views struct {
			Hits, Misses uint64
			Entries      int
		}
	}
	doJSON(t, "GET", ts.URL+"/stats", nil, &stats)
	if stats.Views.Misses != 2 || stats.Views.Hits != 2 {
		t.Fatalf("/stats views = %+v", stats.Views)
	}

	// ViewCacheSize < 0 disables the layer entirely.
	srvOff, tsOff := newTestServer(t, Config{ViewCacheSize: -1})
	doJSON(t, "POST", tsOff.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, tsOff.URL, "s", "gen rmat E 8 300 2")
	query(t, tsOff.URL, "s", "tograph G E src dst")
	query(t, tsOff.URL, "s", "algo G triangles")
	query(t, tsOff.URL, "s", "algo G 3core")
	if h, m, _, _ := srvOff.ViewCacheStats(); h != 0 || m != 0 {
		t.Fatalf("disabled view cache still counts: %d hits, %d misses", h, m)
	}
}

// TestFingerprintsEndpoint: GET /sessions/{id}/fingerprints must report
// every binding's name#version fingerprint plus a workspace content digest
// that is stable while the workspace is unchanged and moves on any
// mutation — the identity the cluster coordinator compares across primary
// and replicas after a snapshot ship.
func TestFingerprintsEndpoint(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	if _, err := srv.CreateSession("fp"); err != nil {
		t.Fatal(err)
	}
	query(t, ts.URL, "fp", "gen rmat E 8 300 7")
	query(t, ts.URL, "fp", "tograph G E src dst")

	var got SessionFingerprints
	if code := doJSON(t, "GET", ts.URL+"/sessions/fp/fingerprints", nil, &got); code != http.StatusOK {
		t.Fatalf("fingerprints: status %d", code)
	}
	if got.Session != "fp" || len(got.Digest) != 16 {
		t.Fatalf("bad report: %+v", got)
	}
	if len(got.Objects) != 2 {
		t.Fatalf("objects = %v, want E and G", got.Objects)
	}
	for _, o := range got.Objects {
		if !strings.Contains(o.Fingerprint, "#") {
			t.Fatalf("object %q fingerprint %q is not name#version", o.Name, o.Fingerprint)
		}
	}

	// Unchanged workspace: identical report.
	var again SessionFingerprints
	doJSON(t, "GET", ts.URL+"/sessions/fp/fingerprints", nil, &again)
	if again.Digest != got.Digest {
		t.Fatalf("digest unstable on unchanged workspace: %s -> %s", got.Digest, again.Digest)
	}

	// Any mutation must move the digest.
	query(t, ts.URL, "fp", "pagerank PR G")
	var after SessionFingerprints
	doJSON(t, "GET", ts.URL+"/sessions/fp/fingerprints", nil, &after)
	if after.Digest == got.Digest {
		t.Fatal("digest did not change after a mutation")
	}
	if len(after.Objects) != 3 {
		t.Fatalf("objects after pagerank = %d, want 3", len(after.Objects))
	}

	// Unknown session: 404.
	if code := doJSON(t, "GET", ts.URL+"/sessions/nope/fingerprints", nil, &struct{}{}); code != http.StatusNotFound {
		t.Fatalf("missing session: status %d, want 404", code)
	}
}

// oversized is a well-formed JSON body a few bytes over MaxBodyBytes whose
// command, were it read, would mutate the session.
func oversized(field, cmd string) []byte {
	pad := strings.Repeat("x", MaxBodyBytes)
	return []byte(`{"` + field + `":"` + cmd + `","pad":"` + pad + `"}`)
}

// TestOversizedBodyRejected sends each body-reading endpoint a body over
// MaxBodyBytes: every one answers 413, and the session's bindings, their
// versions and the session list are what they were before.
func TestOversizedBodyRejected(t *testing.T) {
	srv, ts := newTestServer(t, Config{AllowFileIO: true})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 8 256 7")
	query(t, ts.URL, "s", "tograph G E src dst")
	before, err := srv.Fingerprints("s")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct{ path, field, cmd string }{
		{"/sessions/s/query", "cmd", "rm E"},
		{"/sessions/s/script", "script", "rm E"},
		{"/sessions/s/jobs", "cmd", "rm E"},
		{"/sessions/s/restore", "path", "elsewhere.rngs"},
		{"/sessions", "id", "t"},
	} {
		resp, err := http.Post(ts.URL+c.path, "application/json", bytes.NewReader(oversized(c.field, c.cmd)))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, want 413", c.path, resp.StatusCode)
		}
	}
	after, err := srv.Fingerprints("s")
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("session changed by rejected bodies:\nbefore %+v\nafter  %+v", before, after)
	}
	if ids := srv.SessionIDs(); len(ids) != 1 {
		t.Fatalf("sessions after rejected create = %v", ids)
	}
}
