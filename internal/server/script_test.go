package server

import (
	"net/http"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ringo/internal/repl"
)

// postScript posts a script batch and decodes the ScriptResult; callers
// check the status for error cases themselves via doJSON.
func postScript(t *testing.T, base, session, script string) *repl.ScriptResult {
	t.Helper()
	var res repl.ScriptResult
	code := doJSON(t, "POST", base+"/sessions/"+session+"/script", map[string]string{"script": script}, &res)
	if code != http.StatusOK {
		t.Fatalf("script on %s: status %d", session, code)
	}
	return &res
}

func TestScriptEndpoint(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	res := postScript(t, ts.URL, "s", `
# a whole analysis in one round trip
gen rmat E 8 300 6
tograph G E src dst
pagerank PR G
top PR 3
algo G wcc
`)
	if res.OK != 5 || res.Failed != 0 || res.Skipped != 0 {
		t.Fatalf("accounting: %+v", res)
	}
	for i, st := range res.Steps {
		if st.Result == nil || st.Error != "" {
			t.Errorf("step %d: %+v", i, st)
		}
		if st.ElapsedNS <= 0 {
			t.Errorf("step %d has no timing", i)
		}
	}
	if res.ElapsedNS <= 0 {
		t.Error("no batch timing")
	}
	// The batch ran against the session workspace: a follow-up query sees
	// its bindings.
	if r := query(t, ts.URL, "s", "ls"); len(r.Rows) != 3 {
		t.Fatalf("workspace after script: %+v", r.Rows)
	}
}

func TestScriptEndpointSingleLockAcquisition(t *testing.T) {
	srv, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)
	query(t, ts.URL, "s", "gen rmat E 8 300 6")
	query(t, ts.URL, "s", "tograph G E src dst")

	var acquisitions atomic.Int32
	var lastReadOnly atomic.Bool
	srv.testHookQueryBarrier = func(_ string, readOnly bool) {
		acquisitions.Add(1)
		lastReadOnly.Store(readOnly)
	}

	// A 10-step all-read-only batch: one acquisition, shared mode.
	postScript(t, ts.URL, "s", strings.Repeat("algo G wcc\n", 10))
	if got := acquisitions.Load(); got != 1 {
		t.Fatalf("read-only script took %d lock acquisitions, want 1", got)
	}
	if !lastReadOnly.Load() {
		t.Error("all-read-only script should take the shared lock")
	}

	// One mutating step anywhere makes the whole batch exclusive — still
	// a single acquisition.
	acquisitions.Store(0)
	postScript(t, ts.URL, "s", "algo G wcc\npagerank PR G\nalgo G scc")
	if got := acquisitions.Load(); got != 1 {
		t.Fatalf("mutating script took %d lock acquisitions, want 1", got)
	}
	if lastReadOnly.Load() {
		t.Error("script with a mutating step should take the exclusive lock")
	}
}

func TestScriptEndpointFailedStep(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	res := postScript(t, ts.URL, "s", "gen rmat E 8 100 1\nshow NOPE\nls\nls")
	if res.OK != 1 || res.Failed != 1 || res.Skipped != 2 {
		t.Fatalf("accounting: ok=%d failed=%d skipped=%d", res.OK, res.Failed, res.Skipped)
	}
	if res.Steps[1].Error == "" || res.Steps[1].Index != 1 || res.Steps[1].LineNo != 2 {
		t.Fatalf("failed step: %+v", res.Steps[1])
	}
	// @continue runs the whole batch despite failures.
	res = postScript(t, ts.URL, "s", "@continue\nshow NOPE\nls")
	if res.OK != 1 || res.Failed != 1 || res.Skipped != 0 {
		t.Fatalf("@continue accounting: %+v", res)
	}
}

func TestScriptEndpointFileIOGate(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	// The gate rejects the whole batch before anything runs, naming the
	// offending step, so no partial mutation happens.
	var errResp struct{ Error string }
	code := doJSON(t, "POST", ts.URL+"/sessions/s/script",
		map[string]string{"script": "gen rmat E 8 100 1\nloadgraph G /etc/passwd\nls"}, &errResp)
	if code != http.StatusForbidden {
		t.Fatalf("file-touching script: status %d (%+v)", code, errResp)
	}
	if !strings.Contains(errResp.Error, "step 2 (line 2)") || !strings.Contains(errResp.Error, "loadgraph") {
		t.Fatalf("gate error should name the step: %q", errResp.Error)
	}
	if r := query(t, ts.URL, "s", "ls"); len(r.Rows) != 0 {
		t.Fatalf("gated script must not run any step, workspace has %+v", r.Rows)
	}
	// source is file-gated too: it reads a host file.
	code = doJSON(t, "POST", ts.URL+"/sessions/s/script",
		map[string]string{"script": "source /tmp/x.rng"}, &errResp)
	if code != http.StatusForbidden {
		t.Fatalf("source script: status %d", code)
	}
	// A missing session stays a 404 even when the script would also have
	// tripped the file gate — the gate must not mask the session lookup.
	code = doJSON(t, "POST", ts.URL+"/sessions/ghost/script",
		map[string]string{"script": "loadgraph G /etc/passwd"}, &errResp)
	if code != http.StatusNotFound {
		t.Fatalf("file-touching script on missing session: status %d, want 404", code)
	}
}

func TestScriptEndpointBadRequests(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	for name, body := range map[string]map[string]string{
		"empty":        {"script": ""},
		"only comment": {"script": "# nothing\n\n"},
		"bad directive": {
			"script": "@loop\nls",
		},
	} {
		if code := doJSON(t, "POST", ts.URL+"/sessions/s/script", body, nil); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", name, code)
		}
	}
	if code := doJSON(t, "POST", ts.URL+"/sessions/ghost/script", map[string]string{"script": "ls"}, nil); code != http.StatusNotFound {
		t.Errorf("missing session: status %d, want 404", code)
	}
}

func TestScriptJob(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 2})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	var accepted JobView
	code := doJSON(t, "POST", ts.URL+"/sessions/s/jobs",
		map[string]string{"script": "gen rmat E 8 200 3\ntograph G E src dst\npagerank PR G"}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("submit script job: status %d", code)
	}
	if !strings.Contains(accepted.Cmd, "script (3 steps)") {
		t.Fatalf("job label: %q", accepted.Cmd)
	}
	view := pollJob(t, ts.URL, accepted.ID, JobDone)
	if view.ScriptResult == nil || view.ScriptResult.OK != 3 {
		t.Fatalf("script job result: %+v", view.ScriptResult)
	}
	if view.Result != nil {
		t.Error("script job should not carry a single-command result")
	}

	// A failing script fails the job but keeps the partial batch result.
	code = doJSON(t, "POST", ts.URL+"/sessions/s/jobs",
		map[string]string{"script": "ls\nshow NOPE\nls"}, &accepted)
	if code != http.StatusAccepted {
		t.Fatalf("submit failing script job: status %d", code)
	}
	view = pollJob(t, ts.URL, accepted.ID, JobFailed)
	if !strings.Contains(view.Error, "step 2") {
		t.Fatalf("job error should name the step: %q", view.Error)
	}
	if view.ScriptResult == nil || view.ScriptResult.OK != 1 || view.ScriptResult.Skipped != 1 {
		t.Fatalf("failed script job should keep the partial result: %+v", view.ScriptResult)
	}

	// cmd and script in one body is ambiguous.
	if code := doJSON(t, "POST", ts.URL+"/sessions/s/jobs",
		map[string]string{"cmd": "ls", "script": "ls"}, nil); code != http.StatusBadRequest {
		t.Fatalf("cmd+script body: status %d, want 400", code)
	}
}

// pollJob waits for a job to reach the wanted terminal state.
func pollJob(t *testing.T, base, id, want string) JobView {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		var view JobView
		if code := doJSON(t, "GET", base+"/jobs/"+id, nil, &view); code != http.StatusOK {
			t.Fatalf("get job %s: status %d", id, code)
		}
		if view.State == JobDone || view.State == JobFailed {
			if view.State != want {
				t.Fatalf("job %s: state %q (%s), want %q", id, view.State, view.Error, want)
			}
			return view
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s stuck in %q", id, view.State)
		}
		time.Sleep(5 * time.Millisecond)
	}
}

// TestScriptRestorePurgesCache mirrors the single-command restore rule: a
// script whose restore step executed must purge the session's result-cache
// entries.
func TestScriptRestorePurgesCache(t *testing.T) {
	dir := t.TempDir()
	srv, ts := newTestServer(t, Config{AllowFileIO: true})
	doJSON(t, "POST", ts.URL+"/sessions", map[string]string{"id": "s"}, nil)

	postScript(t, ts.URL, "s", `
gen rmat E 8 300 6
tograph G E src dst
pagerank PR G
snapshot `+dir+`/ws.snap
`)
	query(t, ts.URL, "s", "pagerank PR2 G") // cached
	if hits, _, size, _ := srv.CacheStats(); hits == 0 || size == 0 {
		t.Fatalf("expected cache activity, hits=%d size=%d", hits, size)
	}
	res := postScript(t, ts.URL, "s", "restore "+dir+"/ws.snap\nls")
	if res.Failed != 0 {
		t.Fatalf("restore script failed: %+v", res)
	}
	if _, _, size, bytes := srv.CacheStats(); size != 0 || bytes != 0 {
		t.Fatalf("restore step should purge the session cache, %d entries (%d bytes) left", size, bytes)
	}
}
