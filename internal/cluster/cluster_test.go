package cluster

// The cluster tier's contract, each clause held by its own test:
// fingerprint-verified shipping (a replica serves only bytes proven equal
// to the primary's; tampered ships are rejected with a pointed error),
// classified routing (replicas see exactly the traffic the verb table
// proves read-only and file-free; mutations stick to the primary and
// re-ship before the response), and absorbed failure (a replica dying
// mid-burst costs clients nothing). All tests run in-process: real
// ringo-servers behind httptest, the coordinator in front, under -race.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ringo/internal/repl"
	"ringo/internal/server"
)

// newNode starts one in-process ringo-server with file IO enabled (the
// ship protocol needs snapshot/restore) and returns its base URL.
func newNode(t testing.TB) (*server.Server, *httptest.Server) {
	t.Helper()
	srv := server.New(server.Config{AllowFileIO: true})
	ts := httptest.NewServer(srv)
	t.Cleanup(func() {
		ts.Close()
		srv.Close()
	})
	return srv, ts
}

func doJSON(t testing.TB, method, url string, body, out any) int {
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

// seedMain creates the serving session on a node and evaluates cmds in it.
func seedMain(t testing.TB, base string, cmds ...string) {
	t.Helper()
	if code := doJSON(t, "POST", base+"/sessions", map[string]string{"id": "main"}, nil); code != http.StatusCreated {
		t.Fatalf("create session: status %d", code)
	}
	for _, cmd := range cmds {
		if code := doJSON(t, "POST", base+"/sessions/main/query", map[string]string{"cmd": cmd}, nil); code != http.StatusOK {
			t.Fatalf("seed %q: status %d", cmd, code)
		}
	}
}

// seedCmds is the standard fixture: an R-MAT edge table, its graph, and
// PageRank scores — three bindings, three version-clock ticks.
var seedCmds = []string{
	"gen rmat E 8 256 7",
	"tograph G E src dst",
	"pagerank PR G",
}

// newCluster stands up a primary and n replicas, seeds the primary, and
// fronts them with a coordinator (not yet shipped or started).
func newCluster(t testing.TB, n int, mutate func(*Config)) (*Coordinator, *httptest.Server) {
	t.Helper()
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)
	var replicas []string
	for i := 0; i < n; i++ {
		_, rts := newNode(t)
		replicas = append(replicas, rts.URL)
	}
	cfg := Config{
		Primary:  pts.URL,
		Replicas: replicas,
		ShipPath: filepath.Join(t.TempDir(), "ship.rngs"),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	coord, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	return coord, cts
}

// cquery sends one command through the coordinator and returns the status,
// the X-Ringo-Target header (who actually served it) and the raw body.
func cquery(t testing.TB, coordURL, session, cmd string) (int, string, string) {
	t.Helper()
	body, _ := json.Marshal(map[string]string{"cmd": cmd})
	resp, err := http.Post(coordURL+"/sessions/"+session+"/query", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatalf("query %q: %v", cmd, err)
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	return resp.StatusCode, resp.Header.Get("X-Ringo-Target"), string(data)
}

// clusterView decodes the coordinator's GET /cluster topology report.
func clusterView(t testing.TB, coordURL string) map[string]any {
	t.Helper()
	var v map[string]any
	if code := doJSON(t, "GET", coordURL+"/cluster", nil, &v); code != http.StatusOK {
		t.Fatalf("GET /cluster: status %d", code)
	}
	return v
}

func targetsByName(t testing.TB, view map[string]any) map[string]map[string]any {
	t.Helper()
	out := map[string]map[string]any{}
	for _, raw := range view["targets"].([]any) {
		tv := raw.(map[string]any)
		out[tv["target"].(string)] = tv
	}
	return out
}

// TestClusterShipAndFanout is the core integration path: ship to two
// replicas, verify both enter rotation fingerprint-verified, fan read-only
// traffic across exactly the replicas, sticky-route a mutation to the
// primary, and observe the re-ship deliver the write to every replica
// before the next read (read-your-writes through the rotation).
func TestClusterShipAndFanout(t *testing.T) {
	coord, cts := newCluster(t, 2, nil)
	if err := coord.Ship(); err != nil {
		t.Fatalf("initial ship: %v", err)
	}
	if got := coord.Version(); got != 1 {
		t.Fatalf("version after bootstrap ship = %d, want 1", got)
	}

	targets := targetsByName(t, clusterView(t, cts.URL))
	for _, name := range []string{"r1", "r2"} {
		tv := targets[name]
		if tv["state"] != "healthy" || tv["eligible"] != true || tv["generation"] != float64(1) {
			t.Fatalf("%s not in rotation after verified ship: %+v", name, tv)
		}
	}

	// Read-only traffic lands on replicas only, and on both of them.
	served := map[string]int{}
	for i := 0; i < 20; i++ {
		code, target, body := cquery(t, cts.URL, "main", "top PR 5")
		if code != http.StatusOK {
			t.Fatalf("read %d: status %d: %s", i, code, body)
		}
		served[target]++
	}
	if served["primary"] > 0 {
		t.Fatalf("read-only queries reached the primary: %v", served)
	}
	if served["r1"] == 0 || served["r2"] == 0 {
		t.Fatalf("reads did not fan out across both replicas: %v", served)
	}

	// A mutation sticks to the primary and re-ships before returning.
	code, target, body := cquery(t, cts.URL, "main", "gen rmat E2 6 64 3")
	if code != http.StatusOK || target != "primary" {
		t.Fatalf("mutation: status %d target %q: %s", code, target, body)
	}
	if got := coord.Version(); got != 2 {
		t.Fatalf("version after mutation = %d, want 2", got)
	}
	targets = targetsByName(t, clusterView(t, cts.URL))
	for _, name := range []string{"r1", "r2"} {
		if targets[name]["generation"] != float64(2) {
			t.Fatalf("%s not re-shipped after mutation: %+v", name, targets[name])
		}
	}
	// Read-your-writes: the very next replica read must see E2.
	code, target, body = cquery(t, cts.URL, "main", "ls")
	if code != http.StatusOK || target == "primary" {
		t.Fatalf("post-mutation read: status %d target %q", code, target)
	}
	if !strings.Contains(body, "E2") {
		t.Fatalf("replica read after mutation misses the write: %s", body)
	}

	// Read-only but file-touching verbs must not run on a replica host.
	if _, target, _ = cquery(t, cts.URL, "main", "snapshot "+filepath.Join(t.TempDir(), "x.rngs")); target != "primary" {
		t.Fatalf("file-touching verb served by %q, want primary", target)
	}

	// Sessions other than the replicated one pass through to the primary.
	if code := doJSON(t, "POST", cts.URL+"/sessions", map[string]string{"id": "other"}, nil); code != http.StatusCreated {
		t.Fatalf("create passthrough session: status %d", code)
	}
	if _, target, _ = cquery(t, cts.URL, "other", "ls"); target != "primary" {
		t.Fatalf("non-replicated session served by %q, want primary", target)
	}
}

// TestClusterScriptRouting checks batch classification end to end: an
// all-reads script fans to a replica; a script with one mutating step
// routes to the primary and re-ships.
func TestClusterScriptRouting(t *testing.T) {
	coord, cts := newCluster(t, 1, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	post := func(script string) (int, string) {
		body, _ := json.Marshal(map[string]string{"script": script})
		resp, err := http.Post(cts.URL+"/sessions/main/script", "application/json", bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		io.Copy(io.Discard, resp.Body)
		return resp.StatusCode, resp.Header.Get("X-Ringo-Target")
	}
	if code, target := post("ls\ntop PR 3\nstats"); code != http.StatusOK || target != "r1" {
		t.Fatalf("read-only script: status %d target %q, want 200 r1", code, target)
	}
	if code, target := post("ls\ngen rmat E3 5 32 1\ntop PR 3"); code != http.StatusOK || target != "primary" {
		t.Fatalf("mutating script: status %d target %q, want 200 primary", code, target)
	}
	if got := coord.Version(); got != 2 {
		t.Fatalf("version after mutating script = %d, want 2", got)
	}
	if _, target, body := cquery(t, cts.URL, "main", "ls"); target != "r1" || !strings.Contains(body, "E3") {
		t.Fatalf("replica read after script mutation: target %q body %s", target, body)
	}
}

// TestClusterFailover kills a replica in the middle of a read burst and
// requires zero client-visible failures: in-flight requests on the dead
// replica retry transparently, and the dead node drains from rotation.
func TestClusterFailover(t *testing.T) {
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)
	_, r1ts := newNode(t)
	_, r2ts := newNode(t)
	coord, err := New(Config{
		Primary:  pts.URL,
		Replicas: []string{r1ts.URL, r2ts.URL},
		ShipPath: filepath.Join(t.TempDir(), "ship.rngs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}

	const workers, perWorker = 4, 25
	var failures, kills atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				if w == 0 && i == perWorker/2 && kills.Add(1) == 1 {
					// Mid-burst, r1 dies hard: active connections severed,
					// listener closed.
					r1ts.CloseClientConnections()
					r1ts.Close()
				}
				body, _ := json.Marshal(map[string]string{"cmd": "top PR 5"})
				resp, err := http.Post(cts.URL+"/sessions/main/query", "application/json", bytes.NewReader(body))
				if err != nil {
					failures.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					failures.Add(1)
				}
			}
		}(w)
	}
	wg.Wait()
	if n := failures.Load(); n != 0 {
		t.Fatalf("%d client-visible failures during replica death, want 0", n)
	}
	targets := targetsByName(t, clusterView(t, cts.URL))
	if targets["r1"]["state"] != "down" {
		t.Fatalf("dead replica not drained: %+v", targets["r1"])
	}
	// Post-failover reads keep flowing, now on the survivor.
	for i := 0; i < 5; i++ {
		code, target, _ := cquery(t, cts.URL, "main", "ls")
		if code != http.StatusOK || target != "r2" {
			t.Fatalf("post-failover read %d: status %d target %q, want 200 r2", i, code, target)
		}
	}
}

// tamperRestore wraps a node so every restore is redirected to a decoy
// snapshot file — the "wrong bytes" failure the fingerprint check exists
// to catch (corrupted ship, stray write, wrong file on the shared mount).
func tamperRestore(t *testing.T, inner http.Handler, decoyPath string) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/restore") {
			body, _ := json.Marshal(map[string]string{"path": decoyPath})
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterFingerprintReject proves a replica serving the wrong bytes
// can never enter rotation. Two corruptions, two detections: a decoy with
// the same bindings and versions but different content is caught by the
// workspace digest alone (version fingerprints agree); a decoy with a
// different binding set is caught by the per-object comparison. Both
// replicas end rejected with a pointed error, and every read is served
// elsewhere. Removing either comparison in compareFingerprints fails this
// test.
func TestClusterFingerprintReject(t *testing.T) {
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)

	// Decoy A: identical command shape, different RMAT seed — same names,
	// same version clock, different bytes. Only the content digest can
	// tell it from the real ship.
	_, decoyA := newNode(t)
	seedMain(t, decoyA.URL, "gen rmat E 8 256 8", "tograph G E src dst", "pagerank PR G")
	decoyAPath := filepath.Join(t.TempDir(), "decoyA.rngs")
	if code := doJSON(t, "POST", decoyA.URL+"/sessions/main/snapshot", map[string]string{"path": decoyAPath}, nil); code != http.StatusOK {
		t.Fatalf("decoy A snapshot: status %d", code)
	}
	// Decoy B: a different binding set entirely (the wrong-file case).
	_, decoyB := newNode(t)
	seedMain(t, decoyB.URL, "gen rmat X 6 64 1")
	decoyBPath := filepath.Join(t.TempDir(), "decoyB.rngs")
	if code := doJSON(t, "POST", decoyB.URL+"/sessions/main/snapshot", map[string]string{"path": decoyBPath}, nil); code != http.StatusOK {
		t.Fatalf("decoy B snapshot: status %d", code)
	}

	honestSrv, honest := newNode(t)
	_ = honestSrv
	tamperedASrv, _ := newNode(t)
	tamperedA := tamperRestore(t, tamperedASrv, decoyAPath)
	tamperedBSrv, _ := newNode(t)
	tamperedB := tamperRestore(t, tamperedBSrv, decoyBPath)

	coord, err := New(Config{
		Primary:  pts.URL,
		Replicas: []string{honest.URL, tamperedA.URL, tamperedB.URL},
		ShipPath: filepath.Join(t.TempDir(), "ship.rngs"),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	err = coord.Ship()
	if err == nil {
		t.Fatal("ship to tampered replicas reported success")
	}
	if !strings.Contains(err.Error(), "rejected") {
		t.Fatalf("ship error does not name the rejection: %v", err)
	}

	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	targets := targetsByName(t, clusterView(t, cts.URL))
	if targets["r1"]["state"] != "healthy" || targets["r1"]["eligible"] != true {
		t.Fatalf("honest replica kept out of rotation: %+v", targets["r1"])
	}
	for name, wantMsg := range map[string]string{
		"r2": "digest mismatch",      // decoy A: versions agree, bytes differ
		"r3": "fingerprint mismatch", // decoy B: wrong binding set
	} {
		tv := targets[name]
		if tv["state"] != "rejected" || tv["eligible"] != false {
			t.Fatalf("tampered replica %s not rejected: %+v", name, tv)
		}
		if msg, _ := tv["error"].(string); !strings.Contains(msg, wantMsg) {
			t.Fatalf("%s rejection error %q does not name the divergence (want %q)", name, msg, wantMsg)
		}
	}
	// The rejected replicas never serve: every read lands on the honest one.
	for i := 0; i < 10; i++ {
		code, target, _ := cquery(t, cts.URL, "main", "top PR 5")
		if code != http.StatusOK || target != "r1" {
			t.Fatalf("read %d served by %q (status %d), want honest r1", i, target, code)
		}
	}
}

// TestClusterMutatingJobsRefused: an async mutation on the replicated
// session would complete after the coordinator answered, bypassing
// re-ship — so it is refused with an error that names the alternative.
// Read-only jobs and jobs on other sessions pass through.
func TestClusterMutatingJobsRefused(t *testing.T) {
	coord, cts := newCluster(t, 1, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	var errResp struct {
		Error string `json:"error"`
	}
	code := doJSON(t, "POST", cts.URL+"/sessions/main/jobs", map[string]string{"cmd": "gen rmat E9 5 32 1"}, &errResp)
	if code != http.StatusForbidden {
		t.Fatalf("mutating job: status %d, want 403", code)
	}
	if !strings.Contains(errResp.Error, "re-ship") || !strings.Contains(errResp.Error, "/query") {
		t.Fatalf("refusal does not explain itself: %q", errResp.Error)
	}
	if code := doJSON(t, "POST", cts.URL+"/sessions/main/jobs", map[string]string{"cmd": "top PR 5"}, nil); code != http.StatusAccepted {
		t.Fatalf("read-only job: status %d, want 202", code)
	}
	if code := doJSON(t, "POST", cts.URL+"/sessions", map[string]string{"id": "scratch"}, nil); code != http.StatusCreated {
		t.Fatalf("create scratch session: status %d", code)
	}
	if code := doJSON(t, "POST", cts.URL+"/sessions/scratch/jobs", map[string]string{"cmd": "gen rmat T 5 32 1"}, nil); code != http.StatusAccepted {
		t.Fatalf("mutating job on non-replicated session: status %d, want 202", code)
	}
}

// TestClusterConsistencyModes pins the strict/eventual contrast at the
// moment it matters: a mutation lands but the re-ship fails. Strict mode
// pulls stale replicas from rotation (reads fall back to the primary);
// eventual mode keeps them serving their last verified snapshot.
func TestClusterConsistencyModes(t *testing.T) {
	for _, eventual := range []bool{false, true} {
		t.Run(map[bool]string{false: "strict", true: "eventual"}[eventual], func(t *testing.T) {
			shipDir := filepath.Join(t.TempDir(), "ships")
			if err := os.MkdirAll(shipDir, 0o755); err != nil {
				t.Fatal(err)
			}
			coord, cts := newCluster(t, 1, func(cfg *Config) {
				cfg.Eventual = eventual
				cfg.ShipPath = filepath.Join(shipDir, "ship.rngs")
			})
			if err := coord.Ship(); err != nil {
				t.Fatal(err)
			}
			// Break the ship path, then mutate: the primary accepts, the
			// re-ship fails, replicas are one generation behind.
			if err := os.RemoveAll(shipDir); err != nil {
				t.Fatal(err)
			}
			code, target, body := cquery(t, cts.URL, "main", "gen rmat E2 5 32 1")
			if code != http.StatusOK || target != "primary" {
				t.Fatalf("mutation with broken ship path: status %d target %q: %s", code, target, body)
			}
			code, target, _ = cquery(t, cts.URL, "main", "top PR 5")
			if code != http.StatusOK {
				t.Fatalf("read after failed re-ship: status %d", code)
			}
			want := "primary" // strict: stale replica drained
			if eventual {
				want = "r1" // eventual: last verified snapshot keeps serving
			}
			if target != want {
				t.Fatalf("%s read after failed re-ship served by %q, want %q",
					map[bool]string{false: "strict", true: "eventual"}[eventual], target, want)
			}
		})
	}
}

// documentedVerbs lists the "### <verb>" sections of docs/COMMANDS.md,
// which the repl package's doc drift test holds equal to the engine's verb
// table (plus the shell-only quit).
func documentedVerbs(t *testing.T) []string {
	t.Helper()
	data, err := os.ReadFile("../../docs/COMMANDS.md")
	if err != nil {
		t.Fatal(err)
	}
	var verbs []string
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "### "); ok {
			verbs = append(verbs, strings.TrimSpace(name))
		}
	}
	if len(verbs) < 20 {
		t.Fatalf("docs/COMMANDS.md lists only %d verbs", len(verbs))
	}
	return verbs
}

// TestRoutingAgreesWithVerbTable drives the coordinator with randomized
// commands and scripts and requires every observed routing decision
// (X-Ringo-Target) to agree with the verb table: ReadOnly && !TouchesFiles
// serves from a replica, everything else from the primary. The generator
// spans every registered verb plus unknown ones, so a verb-table edit that
// silently widens replica routing fails here.
func TestRoutingAgreesWithVerbTable(t *testing.T) {
	verbs := documentedVerbs(t)
	// Random file verbs ("snapshot A") really execute on the primary with
	// relative paths; keep their droppings out of the package directory.
	t.Chdir(t.TempDir())
	coord, cts := newCluster(t, 1, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	randCmd := func() string {
		if rng.Intn(8) == 0 {
			return fmt.Sprintf("nosuchverb%d arg", rng.Intn(100))
		}
		v := verbs[rng.Intn(len(verbs))]
		args := []string{"A", "B", "C", "D"}[:rng.Intn(4)]
		return strings.TrimSpace(v + " " + strings.Join(args, " "))
	}
	for i := 0; i < 60; i++ {
		cmd := randCmd()
		wantReplica := repl.ReadOnly(cmd) && !repl.TouchesFiles(cmd)
		if want := ClassifyCmd(cmd); (want == RouteReplica) != wantReplica {
			t.Fatalf("ClassifyCmd(%q) = %v disagrees with verb table", cmd, want)
		}
		_, target, _ := cquery(t, cts.URL, "main", cmd)
		if wantReplica && target != "r1" {
			t.Fatalf("read-only command %q served by %q, want r1", cmd, target)
		}
		if !wantReplica && target != "primary" {
			t.Fatalf("mutating/file command %q served by %q, want primary", cmd, target)
		}
	}
	// Script batches: replica only when every step is read-only and
	// file-free; ParseScript failures route to the primary for its 400.
	for i := 0; i < 30; i++ {
		n := 1 + rng.Intn(4)
		lines := make([]string, n)
		for j := range lines {
			lines[j] = randCmd()
		}
		src := strings.Join(lines, "\n")
		script, err := repl.ParseScript(src)
		wantReplica := err == nil && script.ReadOnly() && script.TouchesFiles() < 0
		if err == nil {
			if want := ClassifyScript(script); (want == RouteReplica) != wantReplica {
				t.Fatalf("ClassifyScript(%q) = %v disagrees with script classification", src, want)
			}
		}
		body, _ := json.Marshal(map[string]string{"script": src})
		resp, perr := http.Post(cts.URL+"/sessions/main/script", "application/json", bytes.NewReader(body))
		if perr != nil {
			t.Fatal(perr)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		target := resp.Header.Get("X-Ringo-Target")
		if wantReplica && target != "r1" {
			t.Fatalf("read-only script %q served by %q, want r1", src, target)
		}
		if !wantReplica && target != "primary" {
			t.Fatalf("mutating script %q served by %q, want primary", src, target)
		}
	}
}

// TestClusterHealthLoop exercises the probe loop end to end with
// millisecond intervals: it marks a killed replica down without any
// traffic, and when a downed-but-alive replica answers probes again it is
// re-shipped and fingerprint-verified before re-entering rotation —
// recovery is never granted on the probe alone.
func TestClusterHealthLoop(t *testing.T) {
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)
	_, r1ts := newNode(t)
	_, r2ts := newNode(t)
	coord, err := New(Config{
		Primary:        pts.URL,
		Replicas:       []string{r1ts.URL, r2ts.URL},
		ShipPath:       filepath.Join(t.TempDir(), "ship.rngs"),
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  200 * time.Millisecond,
		FailThreshold:  2,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	coord.Start()

	// r1 dies hard: the loop alone (no traffic) must drain it.
	r1ts.CloseClientConnections()
	r1ts.Close()
	waitFor(t, 2*time.Second, func() bool {
		return targetState(coord.replicas[0].state.Load()) == stateDown
	}, "health loop never marked the killed replica down")

	// r2 suffered a transport blip (live-request markDown) but the process
	// is fine: the loop probes it healthy, then the recovery ship restores
	// and verifies it back into rotation (gen is zeroed by markDown, so
	// eligibility requires the fresh verified ship, not just the probe).
	c2 := coord.replicas[1]
	coord.markDown(c2, fmt.Errorf("simulated transport blip"))
	if coord.eligible(c2) {
		t.Fatal("downed replica still eligible")
	}
	waitFor(t, 2*time.Second, func() bool {
		return coord.eligible(c2)
	}, "recovered replica never re-verified into rotation")
	if got := c2.gen.Load(); got != coord.Version() {
		t.Fatalf("recovered replica gen %d, want current version %d", got, coord.Version())
	}
}

// TestClusterStrictRequiresVerifiedShip pins the bootstrap edge of strict
// eligibility: before the first ship the cluster version and every replica
// generation are all 0, and "0 == 0" must not admit replicas that never
// restored anything. Reads route to the primary until a verified ship
// lands. Weakening eligible to plain gen == version fails here.
func TestClusterStrictRequiresVerifiedShip(t *testing.T) {
	coord, cts := newCluster(t, 2, nil)
	targets := targetsByName(t, clusterView(t, cts.URL))
	for _, name := range []string{"r1", "r2"} {
		if targets[name]["eligible"] != false {
			t.Fatalf("%s eligible before any ship: %+v", name, targets[name])
		}
	}
	for i := 0; i < 5; i++ {
		code, target, body := cquery(t, cts.URL, "main", "top PR 5")
		if code != http.StatusOK || target != "primary" {
			t.Fatalf("pre-ship read %d: status %d target %q (%s), want 200 primary", i, code, target, body)
		}
	}
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	if _, target, _ := cquery(t, cts.URL, "main", "top PR 5"); target == "primary" {
		t.Fatal("read still on primary after verified ship")
	}
}

// delayRestore wraps a node so every restore stalls for d before the real
// handler runs — holding a ship's drop-and-restore window open long enough
// for concurrent reads to race it deterministically.
func delayRestore(t *testing.T, inner http.Handler, d time.Duration) *httptest.Server {
	t.Helper()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/restore") {
			time.Sleep(d)
		}
		inner.ServeHTTP(w, r)
	}))
	t.Cleanup(ts.Close)
	return ts
}

// TestClusterMidShipReadsNeverHitDroppedSession holds a re-ship's restore
// window open on an eventual-mode replica while reads hammer the
// coordinator: every read must succeed, meaning it landed on a node
// actually holding the session. Without shipReplica pulling the replica
// from rotation first, eventual mode keeps it eligible (gen > 0) while its
// serving session is dropped and mid-restore, and reads come back 404 —
// an HTTP status is a response, not a retried transport failure.
func TestClusterMidShipReadsNeverHitDroppedSession(t *testing.T) {
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)
	rSrv, _ := newNode(t)
	rts := delayRestore(t, rSrv, 150*time.Millisecond)
	coord, err := New(Config{
		Primary:  pts.URL,
		Replicas: []string{rts.URL},
		ShipPath: filepath.Join(t.TempDir(), "ship.rngs"),
		Eventual: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	cts := httptest.NewServer(coord)
	t.Cleanup(cts.Close)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}

	stop := make(chan struct{})
	var bad atomic.Int64
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				body, _ := json.Marshal(map[string]string{"cmd": "top PR 5"})
				resp, err := http.Post(cts.URL+"/sessions/main/query", "application/json", bytes.NewReader(body))
				if err != nil {
					bad.Add(1)
					continue
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					bad.Add(1)
				}
			}
		}()
	}
	// The mutation triggers a re-ship whose restore stalls 150ms on the
	// replica; the read burst keeps flowing the whole time.
	code, target, body := cquery(t, cts.URL, "main", "gen rmat E2 5 32 1")
	if code != http.StatusOK || target != "primary" {
		t.Fatalf("mutation: status %d target %q: %s", code, target, body)
	}
	close(stop)
	wg.Wait()
	if n := bad.Load(); n != 0 {
		t.Fatalf("%d reads failed during the re-ship window, want 0", n)
	}
	if !coord.eligible(coord.replicas[0]) {
		t.Fatal("replica not back in rotation after the re-ship")
	}
}

// TestClusterRejectedRecoveryBackoff: a replica that keeps restoring the
// wrong bytes re-rejects on every recovery attempt. The health loop must
// retry it on an exponential schedule (not every tick) and must not drop
// and re-restore the healthy, already-verified replica along the way.
// Removing either the backoff or the already-verified skip fails here.
func TestClusterRejectedRecoveryBackoff(t *testing.T) {
	_, pts := newNode(t)
	seedMain(t, pts.URL, seedCmds...)

	var honestRestores atomic.Int64
	honestSrv, _ := newNode(t)
	honest := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/restore") {
			honestRestores.Add(1)
		}
		honestSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(honest.Close)

	// The decoy the tampered replica restores instead of the real ship.
	_, decoy := newNode(t)
	seedMain(t, decoy.URL, "gen rmat X 5 32 1")
	decoyPath := filepath.Join(t.TempDir(), "decoy.rngs")
	if code := doJSON(t, "POST", decoy.URL+"/sessions/main/snapshot", map[string]string{"path": decoyPath}, nil); code != http.StatusOK {
		t.Fatalf("decoy snapshot: status %d", code)
	}
	var tamperedRestores atomic.Int64
	tamperedSrv, _ := newNode(t)
	tampered := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && strings.HasSuffix(r.URL.Path, "/restore") {
			tamperedRestores.Add(1)
			body, _ := json.Marshal(map[string]string{"path": decoyPath})
			r.Body = io.NopCloser(bytes.NewReader(body))
			r.ContentLength = int64(len(body))
		}
		tamperedSrv.ServeHTTP(w, r)
	}))
	t.Cleanup(tampered.Close)

	coord, err := New(Config{
		Primary:        pts.URL,
		Replicas:       []string{honest.URL, tampered.URL},
		ShipPath:       filepath.Join(t.TempDir(), "ship.rngs"),
		HealthInterval: 10 * time.Millisecond,
		HealthTimeout:  500 * time.Millisecond,
		MaxBackoff:     100 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	if err := coord.Ship(); err == nil {
		t.Fatal("ship to tampered replica reported success")
	}
	coord.Start()

	// Let recovery retry the rejected replica a few times, then let
	// several more backoff windows pass.
	waitFor(t, 5*time.Second, func() bool {
		return tamperedRestores.Load() >= 3
	}, "health loop never retried the rejected replica")
	time.Sleep(300 * time.Millisecond)

	if got := honestRestores.Load(); got != 1 {
		t.Fatalf("healthy verified replica restored %d times, want exactly 1: recovery ships must not drop it from rotation", got)
	}
	// Retries at 10, 20, 40, 80, then 100ms intervals stay in single
	// digits over this window; one per 10ms health tick would be dozens.
	if got := tamperedRestores.Load(); got > 12 {
		t.Fatalf("rejected replica restored %d times; recovery retries are not backing off", got)
	}
	if coord.eligible(coord.replicas[1]) {
		t.Fatal("tampered replica entered rotation")
	}
	if !coord.eligible(coord.replicas[0]) {
		t.Fatal("honest replica left rotation during recovery retries")
	}
}

// TestClusterPassthroughInvalidation pins exactly which passthrough
// requests count as mutations of the serving session. Each false positive
// costs a synchronous full re-ship, so a sibling session sharing the name
// prefix ("main2" beside "main") and the non-mutating POST /snapshot
// (writes a host file, leaves the workspace untouched) must not bump the
// version — while a genuine session-scoped mutation like POST /restore
// still must.
func TestClusterPassthroughInvalidation(t *testing.T) {
	coord, cts := newCluster(t, 1, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}

	snapPath := filepath.Join(t.TempDir(), "snap.rngs")
	if code := doJSON(t, "POST", cts.URL+"/sessions/main/snapshot", map[string]string{"path": snapPath}, nil); code != http.StatusOK {
		t.Fatalf("snapshot: status %d", code)
	}
	if got := coord.Version(); got != 1 {
		t.Fatalf("version after POST /snapshot = %d, want 1", got)
	}

	if code := doJSON(t, "POST", cts.URL+"/sessions", map[string]string{"id": "main2"}, nil); code != http.StatusCreated {
		t.Fatalf("create main2: status %d", code)
	}
	if code := doJSON(t, "POST", cts.URL+"/sessions/main2/restore", map[string]string{"path": snapPath}, nil); code/100 != 2 {
		t.Fatalf("restore into main2: status %d", code)
	}
	if code := doJSON(t, "DELETE", cts.URL+"/sessions/main2", nil, nil); code/100 != 2 {
		t.Fatalf("delete main2: status %d", code)
	}
	if got := coord.Version(); got != 1 {
		t.Fatalf("version after sibling-session traffic = %d, want 1: %q must not invalidate %q", got, "main2", "main")
	}
	if !coord.eligible(coord.replicas[0]) {
		t.Fatal("replica left rotation on non-invalidating passthrough traffic")
	}

	if code := doJSON(t, "POST", cts.URL+"/sessions/main/restore", map[string]string{"path": snapPath}, nil); code/100 != 2 {
		t.Fatalf("restore into main: status %d", code)
	}
	if got := coord.Version(); got != 2 {
		t.Fatalf("version after POST /restore on the serving session = %d, want 2", got)
	}
}

func waitFor(t testing.TB, timeout time.Duration, cond func() bool, msg string) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		if cond() {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal(msg)
}

// TestClusterOversizedBodyRejected sends every body-reading coordinator
// route a body over the server's bound: each answers 413 without
// forwarding, so the primary's bindings and versions and the
// coordinator's version stay where they were.
func TestClusterOversizedBodyRejected(t *testing.T) {
	coord, cts := newCluster(t, 1, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	fingerprints := func() server.SessionFingerprints {
		var fp server.SessionFingerprints
		if code := doJSON(t, "GET", cts.URL+"/sessions/main/fingerprints", nil, &fp); code != http.StatusOK {
			t.Fatalf("fingerprints: status %d", code)
		}
		return fp
	}
	before, version := fingerprints(), coord.Version()
	pad := strings.Repeat("x", server.MaxBodyBytes)
	for _, c := range []struct{ path, body string }{
		{"/sessions/main/query", `{"cmd":"rm PR","pad":"` + pad + `"}`},
		{"/sessions/main/script", `{"script":"rm PR","pad":"` + pad + `"}`},
		{"/sessions/main/jobs", `{"cmd":"top PR 3","pad":"` + pad + `"}`},
		{"/sessions", `{"id":"other","pad":"` + pad + `"}`},
	} {
		resp, err := http.Post(cts.URL+c.path, "application/json", strings.NewReader(c.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Errorf("POST %s: status %d, want 413", c.path, resp.StatusCode)
		}
	}
	if after := fingerprints(); !reflect.DeepEqual(before, after) {
		t.Fatalf("primary session changed by rejected bodies:\nbefore %+v\nafter  %+v", before, after)
	}
	if got := coord.Version(); got != version {
		t.Fatalf("coordinator version %d after rejected bodies, want %d", got, version)
	}
}
