// Package cluster composes Ringo's existing primitives — deterministic,
// content-digested workspace snapshots (internal/core), the HTTP server's
// snapshot/restore/fingerprints endpoints (internal/server), and the verb
// table's ReadOnly/TouchesFiles classification (internal/repl) — into a
// small-cluster serving tier: one primary ringo-server that takes every
// mutation, N replica servers serving the same restored snapshot, and a
// Coordinator fronting them all behind the primary's own HTTP API.
//
// The paper scales Ringo up one big-memory machine; the coordinator scales
// it out the way the small-cluster line of work (GraphH; "Efficient
// Processing of Very Large Graphs in a Small Cluster") argues is the sweet
// spot: a handful of commodity nodes, each holding the whole workspace in
// memory, with read traffic fanned across them. Correctness rests on two
// invariants, each held by its own test:
//
//   - Fingerprint-verified shipping: a replica enters the read rotation
//     only after the coordinator restored the primary's snapshot into a
//     fresh session on it and read back a byte-equal workspace content
//     digest and per-object name#version fingerprints
//     (GET /sessions/{id}/fingerprints). A replica that restored different
//     bytes — corruption, a stray write, the wrong file — is rejected with
//     an error naming the first divergence and never serves a request.
//   - Classified routing: a request reaches a replica only when the verb
//     table proves every command in it is read-only and file-free
//     (ClassifyCmd/ClassifyScript); everything else routes to the primary,
//     and a successful mutation on the serving session invalidates every
//     replica and re-ships before the response returns, so a client that
//     writes then reads can never observe its write missing.
//
// Replica failure is absorbed, not surfaced: health checks with timeout,
// consecutive-failure threshold and exponential backoff drain dead
// replicas from rotation, a transport error during a read retries on the
// next healthy replica (the primary as last resort) without the client
// seeing a failure, and a recovered replica is re-shipped and re-verified
// before it serves again. docs/CLUSTER.md is the operator reference:
// topology, the ship protocol, routing rules, failure modes and the
// load-test harness; drift tests in docs_test.go keep it honest.
package cluster

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringo/internal/obs"
	"ringo/internal/repl"
	"ringo/internal/server"
)

// Route is the coordinator's dispatch decision for one request: the
// primary (mutations, file access, anything unclassifiable) or the
// read-replica rotation.
type Route int

const (
	// RoutePrimary sends the request to the primary server.
	RoutePrimary Route = iota
	// RouteReplica fans the request across healthy, current replicas.
	RouteReplica
)

// ClassifyCmd routes one command line: replicas serve it only if the verb
// table says it neither mutates workspace state nor touches host files.
// The file carve-out matters even for read-only verbs — save or snapshot
// on a replica would write to the replica host's filesystem, not the
// operator's. Unknown commands classify read-only (they fail without side
// effects) and are deliberately still sent to a replica: the error comes
// back identical and the primary stays unburdened.
func ClassifyCmd(cmd string) Route {
	if repl.ReadOnly(cmd) && !repl.TouchesFiles(cmd) {
		return RouteReplica
	}
	return RoutePrimary
}

// ClassifyScript routes a parsed script batch the same way: every step
// must be read-only and file-free for the batch to run on a replica.
func ClassifyScript(s *repl.Script) Route {
	if s.ReadOnly() && s.TouchesFiles() < 0 {
		return RouteReplica
	}
	return RoutePrimary
}

// Config describes a cluster to coordinate.
type Config struct {
	// Primary is the base URL of the primary ringo-server — the one node
	// that takes mutations and is the source of every shipped snapshot.
	Primary string
	// Replicas are base URLs of the read-replica ringo-servers. They must
	// run with file IO allowed (the ship protocol restores from ShipPath)
	// and must share a filesystem with the primary (same host or a shared
	// mount), since snapshots ship as files, not request bodies.
	Replicas []string
	// Session is the replicated serving session id (default "main") — the
	// session the primary was warm-started into and the only one whose
	// read traffic fans out; requests for other sessions pass through to
	// the primary untouched.
	Session string
	// ShipPath is where the primary writes the snapshot each ship (default
	// ringo-ship-<session>.rngs under os.TempDir). The write is atomic
	// (temp file + rename), so replicas never restore a half-written ship.
	ShipPath string
	// AuthToken, when non-empty, is sent as a bearer token on every
	// upstream request. The coordinator itself does not authenticate its
	// clients; deploy it behind the same boundary as the servers.
	AuthToken string
	// Eventual selects the consistency mode for reads. False (default,
	// "strict") drains replicas from the read rotation the moment a
	// mutation lands until they are re-shipped, so every read reflects
	// every acknowledged write. True keeps replicas serving their last
	// verified snapshot while a re-ship is in flight — bounded staleness
	// in exchange for read throughput that mutations cannot stall.
	Eventual bool
	// Balance picks the replica selection policy: "least" (default,
	// least-loaded by in-flight requests, round-robin tie-break) or "rr"
	// (pure rotation).
	Balance string
	// HealthInterval is the probe period (default 2s); HealthTimeout
	// bounds each probe (default 1s). FailThreshold consecutive probe
	// failures mark a target down (default 2); while down, probes back off
	// exponentially up to MaxBackoff (default 30s).
	HealthInterval time.Duration
	HealthTimeout  time.Duration
	FailThreshold  int
	MaxBackoff     time.Duration
	// StatsTTL caches each target's GET /stats for the labeled cache
	// metrics on the coordinator's /metrics, so one scrape costs one
	// upstream fetch per target instead of one per family. 0 fetches
	// fresh every read.
	StatsTTL time.Duration
	// Metrics is the registry the coordinator records into (nil creates a
	// fresh one); Logger receives structured ship/health/routing records
	// (nil disables logging).
	Metrics *obs.Registry
	Logger  *slog.Logger
	// Client overrides the upstream HTTP client (tests, custom transports).
	Client *http.Client
}

// Defaults for Config zero values.
const (
	DefaultSession        = "main"
	DefaultHealthInterval = 2 * time.Second
	DefaultHealthTimeout  = time.Second
	DefaultFailThreshold  = 2
	DefaultMaxBackoff     = 30 * time.Second
)

// targetState is a target's position in the serving rotation.
type targetState int32

const (
	// stateHealthy targets answer probes; replicas additionally need a
	// verified ship at the current version to take reads.
	stateHealthy targetState = iota
	// stateDown targets failed FailThreshold consecutive probes or a live
	// request; they take no traffic until a probe succeeds, then re-ship.
	stateDown
	// stateRejected replicas restored a snapshot whose fingerprints did
	// not match the primary's. They take no traffic until a later ship
	// verifies clean; probes alone can never clear this state.
	stateRejected
)

func (s targetState) String() string {
	switch s {
	case stateHealthy:
		return "healthy"
	case stateDown:
		return "down"
	default:
		return "rejected"
	}
}

// target is one upstream server: the primary or a replica.
type target struct {
	name    string // metrics/label name: "primary", "r1", "r2", ...
	url     string // base URL, no trailing slash
	primary bool

	state    atomic.Int32  // targetState
	gen      atomic.Uint64 // last verified shipped version (replicas; 0 = never)
	inflight atomic.Int64  // proxied requests currently outstanding

	// Health-loop bookkeeping and the last error, guarded by mu. The
	// health goroutine is the only writer of the probe fields; lastErr is
	// also written on live-request failures and ship rejections.
	mu           sync.Mutex
	lastErr      string
	fails        int
	backoff      time.Duration
	backoffUntil time.Time
	// Recovery re-ship backoff for rejected replicas, also under mu. A
	// replica that keeps restoring the wrong bytes re-rejects on every
	// attempt; retrying it on each health tick would re-snapshot the
	// primary every interval forever, so recovery attempts space out
	// exponentially until a ship verifies clean (see checkAll).
	shipBackoff      time.Duration
	shipBackoffUntil time.Time
}

func (t *target) setErr(err error) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if err == nil {
		t.lastErr = ""
		return
	}
	t.lastErr = err.Error()
}

func (t *target) errString() string {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.lastErr
}

// inShipBackoff reports whether a rejected replica's next recovery
// re-ship attempt is still deferred.
func (t *target) inShipBackoff() bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	return time.Now().Before(t.shipBackoffUntil)
}

// scheduleShipBackoff defers the next recovery re-ship attempt, doubling
// the window from min up to max on each consecutive rejection.
func (t *target) scheduleShipBackoff(min, max time.Duration) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.shipBackoff < min {
		t.shipBackoff = min
	} else if t.shipBackoff *= 2; t.shipBackoff > max {
		t.shipBackoff = max
	}
	t.shipBackoffUntil = time.Now().Add(t.shipBackoff)
}

func (t *target) clearShipBackoff() {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.shipBackoff = 0
	t.shipBackoffUntil = time.Time{}
}

// Coordinator fronts one primary and N replicas behind the ringo-server
// HTTP API. It implements http.Handler; construct with New, call Start to
// begin health checking, Ship to run the initial snapshot distribution,
// and Close when done.
type Coordinator struct {
	cfg      Config
	client   *http.Client
	session  string
	shipPath string
	eventual bool
	balance  string

	primary  *target
	replicas []*target
	targets  []*target // primary + replicas, for iteration

	// version counts acknowledged mutations on the serving session (and
	// the bootstrap ship). A replica takes strict-mode reads only when its
	// verified ship generation equals this value.
	version atomic.Uint64
	// shipMu serializes ships: one snapshot-and-verify cycle at a time, in
	// mutation order.
	shipMu        sync.Mutex
	lastShip      atomic.Int64 // unix nanos of last successful ship
	lastShipBytes atomic.Int64

	rr atomic.Uint64 // rotation cursor for replica selection

	mux    *http.ServeMux
	reg    *obs.Registry
	logger *slog.Logger

	// Live metric instruments (see obs.go).
	mRetries      *obs.Counter
	mShips        *obs.Counter
	mShipFailures *obs.Counter
	mShipRejects  *obs.Counter
	mShipBytes    *obs.Counter
	mShipDur      *obs.Histogram

	statsCache sync.Map // *target -> *cachedStats

	stop      chan struct{}
	healthWG  sync.WaitGroup
	startOnce sync.Once
	closeOnce sync.Once
}

// New validates the topology and returns a ready-to-serve Coordinator.
// Health checking starts with Start; the initial ship is the caller's move
// (Ship), so a caller can decide whether a failed bootstrap is fatal.
func New(cfg Config) (*Coordinator, error) {
	if cfg.Primary == "" {
		return nil, errors.New("cluster: no primary URL configured")
	}
	if cfg.Session == "" {
		cfg.Session = DefaultSession
	}
	if cfg.ShipPath == "" {
		cfg.ShipPath = filepath.Join(os.TempDir(), "ringo-ship-"+cfg.Session+".rngs")
	}
	if cfg.HealthInterval <= 0 {
		cfg.HealthInterval = DefaultHealthInterval
	}
	if cfg.HealthTimeout <= 0 {
		cfg.HealthTimeout = DefaultHealthTimeout
	}
	if cfg.FailThreshold <= 0 {
		cfg.FailThreshold = DefaultFailThreshold
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = DefaultMaxBackoff
	}
	switch cfg.Balance {
	case "":
		cfg.Balance = "least"
	case "least", "rr":
	default:
		return nil, fmt.Errorf("cluster: balance must be \"least\" or \"rr\", got %q", cfg.Balance)
	}

	c := &Coordinator{
		cfg:      cfg,
		session:  cfg.Session,
		shipPath: cfg.ShipPath,
		eventual: cfg.Eventual,
		balance:  cfg.Balance,
		client:   cfg.Client,
		reg:      cfg.Metrics,
		logger:   cfg.Logger,
		stop:     make(chan struct{}),
	}
	if c.client == nil {
		c.client = &http.Client{}
	}
	if c.reg == nil {
		c.reg = obs.NewRegistry()
	}

	seen := map[string]bool{}
	addTarget := func(raw, name string, primary bool) error {
		u, err := url.Parse(raw)
		if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
			return fmt.Errorf("cluster: target %s: %q is not an http(s) base URL", name, raw)
		}
		base := strings.TrimRight(raw, "/")
		// The same process serving as primary and replica would double
		// count every aggregated figure and turn "read from a replica"
		// into "read from the primary" silently.
		if seen[base] {
			return fmt.Errorf("cluster: duplicate target URL %q", base)
		}
		seen[base] = true
		t := &target{name: name, url: base, primary: primary}
		c.targets = append(c.targets, t)
		if primary {
			c.primary = t
		} else {
			c.replicas = append(c.replicas, t)
		}
		return nil
	}
	if err := addTarget(cfg.Primary, "primary", true); err != nil {
		return nil, err
	}
	for i, r := range cfg.Replicas {
		if err := addTarget(r, fmt.Sprintf("r%d", i+1), false); err != nil {
			return nil, err
		}
	}

	c.initObs()
	c.mux = http.NewServeMux()
	for pattern, handler := range c.routeTable() {
		c.mux.HandleFunc(pattern, handler)
	}
	return c, nil
}

// routeTable is the single source of truth for the coordinator's own API
// surface. Everything it does not claim falls through the "/" entry to the
// primary, so the coordinator is a drop-in front for the full ringo-server
// API. The drift test in docs_test.go checks docs/CLUSTER.md documents
// exactly the non-passthrough entries.
func (c *Coordinator) routeTable() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /sessions/{id}/query":  c.handleQuery,
		"POST /sessions/{id}/script": c.handleScript,
		"POST /sessions/{id}/jobs":   c.handleJobs,
		"GET /cluster":               c.handleCluster,
		"POST /cluster/ship":         c.handleShipRequest,
		"GET /stats":                 c.handleStats,
		"GET /metrics":               c.handleMetrics,
		"/":                          c.handlePassthrough,
	}
}

// Start launches the health-check loop. Safe to call once; Close stops it.
func (c *Coordinator) Start() {
	c.startOnce.Do(func() {
		c.healthWG.Add(1)
		go c.healthLoop()
	})
}

// Close stops the health loop and waits for it to exit.
func (c *Coordinator) Close() {
	c.closeOnce.Do(func() { close(c.stop) })
	c.healthWG.Wait()
}

// Metrics exposes the coordinator's registry — what its GET /metrics
// serves — for embedding hosts and tests.
func (c *Coordinator) Metrics() *obs.Registry { return c.reg }

// Session returns the replicated serving session id.
func (c *Coordinator) Session() string { return c.session }

// Version returns the serving session's mutation version: the generation
// replicas must have verifiably restored to take strict-mode reads.
func (c *Coordinator) Version() uint64 { return c.version.Load() }

func (c *Coordinator) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	c.mux.ServeHTTP(w, r)
}

// --- request routing ---

// handleQuery classifies one command and dispatches it: read-only,
// file-free commands on the serving session fan across replicas,
// everything else goes to the primary. A successful mutation bumps the
// version (instantly draining replicas from the strict read rotation) and
// re-ships before the response returns.
func (c *Coordinator) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Cmd string `json:"cmd"`
	}
	// An unparseable body forwards to the primary, which produces the
	// canonical 400 — the coordinator never invents its own error shape
	// for requests the underlying API already rejects.
	parsed := json.Unmarshal(body, &req) == nil
	if id == c.session && parsed && ClassifyCmd(req.Cmd) == RouteReplica {
		c.serveRead(w, r, body)
		return
	}
	invalidates := id == c.session && parsed && !repl.ReadOnly(req.Cmd)
	c.servePrimary(w, r, body, invalidates)
}

// handleScript is handleQuery for script batches: the whole batch must
// classify read-only and file-free to reach a replica.
func (c *Coordinator) handleScript(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	var req struct {
		Script string `json:"script"`
	}
	var script *repl.Script
	if json.Unmarshal(body, &req) == nil {
		script, _ = repl.ParseScript(req.Script) // nil on parse error: primary decides
	}
	if id == c.session && script != nil && ClassifyScript(script) == RouteReplica {
		c.serveRead(w, r, body)
		return
	}
	invalidates := id == c.session && script != nil && !script.ReadOnly()
	c.servePrimary(w, r, body, invalidates)
}

// handleJobs forwards async job submissions to the primary — job state
// lives where the job runs, and GET /jobs passes through to the primary —
// but refuses mutating jobs on the serving session: a job mutates at some
// unknowable later moment, after the coordinator has already answered, so
// there is no point at which it could re-ship without racing the job. The
// refusal names the alternative.
func (c *Coordinator) handleJobs(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	if id == c.session {
		var req struct {
			Cmd    string `json:"cmd"`
			Script string `json:"script"`
		}
		if json.Unmarshal(body, &req) == nil {
			mutating := req.Cmd != "" && !repl.ReadOnly(req.Cmd)
			if !mutating && req.Script != "" {
				if s, err := repl.ParseScript(req.Script); err == nil {
					mutating = !s.ReadOnly()
				}
			}
			if mutating {
				writeError(w, http.StatusForbidden, fmt.Errorf(
					"mutating jobs are not allowed on replicated session %q: an async mutation would complete after the coordinator answered, bypassing snapshot re-ship and serving stale reads — run it synchronously via /query or /script, or submit it to the primary directly", c.session))
				return
			}
		}
	}
	c.servePrimary(w, r, body, false)
}

// handlePassthrough forwards everything the coordinator does not classify
// (session CRUD, job polling, snapshot/restore) to the primary. A
// successful non-GET scoped to the serving session — a restore, a
// delete — is treated as a mutation: version bump, re-ship. Scoping is by
// exact path segment, not raw prefix, so a sibling session like "main2"
// never invalidates "main"; POST /snapshot is exempt because it only
// writes a host file and leaves the workspace untouched.
func (c *Coordinator) handlePassthrough(w http.ResponseWriter, r *http.Request) {
	body, ok := server.ReadBody(w, r)
	if !ok {
		return
	}
	base := "/sessions/" + c.session
	path := r.URL.Path
	sessionScoped := path == base || strings.HasPrefix(path, base+"/")
	invalidates := r.Method != http.MethodGet && r.Method != http.MethodHead &&
		sessionScoped && path != base+"/snapshot"
	c.servePrimary(w, r, body, invalidates)
}

// servePrimary forwards one request to the primary. When invalidates is
// set and the primary acknowledged the request, every replica is drained
// from the strict read rotation and a re-ship runs before the client gets
// its answer — the re-ship's own failures degrade routing (reads fall back
// to the primary), never the client's mutation.
func (c *Coordinator) servePrimary(w http.ResponseWriter, r *http.Request, body []byte, invalidates bool) {
	resp, err := c.roundTrip(c.primary, r, body)
	if err != nil {
		c.markDown(c.primary, err)
		writeError(w, http.StatusBadGateway, fmt.Errorf("primary %s unreachable: %w", c.primary.url, err))
		return
	}
	if invalidates && resp.status/100 == 2 {
		c.version.Add(1)
		if err := c.Ship(); err != nil {
			if c.logger != nil {
				c.logger.Error("re-ship after mutation failed", "err", err)
			}
		}
	}
	resp.writeTo(w)
}

// serveRead serves a classified read-only request from the replica
// rotation, retrying transport failures on the next eligible replica and
// finally the primary, so a replica dying mid-burst costs the client
// nothing but latency. Retries are safe precisely because only
// ClassifyCmd/ClassifyScript-approved requests get here.
func (c *Coordinator) serveRead(w http.ResponseWriter, r *http.Request, body []byte) {
	tried := make(map[*target]bool, len(c.replicas))
	for {
		t := c.pickReplica(tried)
		if t == nil {
			break
		}
		tried[t] = true
		// Claim an in-flight slot, then re-check eligibility: a ship
		// pulling this replica from rotation either zeroes its generation
		// before the re-check (the read moves on) or after it (the ship's
		// drain sees this claim and waits for the response before dropping
		// the session). Without the claim a read could pass selection,
		// lose the race, and arrive at a dropped session.
		t.inflight.Add(1)
		if !c.eligible(t) {
			t.inflight.Add(-1)
			continue
		}
		resp, err := c.roundTrip(t, r, body)
		t.inflight.Add(-1)
		if err != nil {
			c.markDown(t, err)
			c.mRetries.Inc()
			continue
		}
		resp.writeTo(w)
		return
	}
	// No eligible replica answered: the primary is the read path of last
	// resort, never a worse outcome than running without replicas at all.
	resp, err := c.roundTrip(c.primary, r, body)
	if err != nil {
		c.markDown(c.primary, err)
		writeError(w, http.StatusBadGateway, fmt.Errorf("no replica available and primary %s unreachable: %w", c.primary.url, err))
		return
	}
	resp.writeTo(w)
}

// eligible reports whether a replica may take reads right now: it must be
// healthy and hold a fingerprint-verified ship — the current version under
// strict consistency, any verified version under eventual. Both modes
// require gen > 0: before the first ship version is 0 too, and "0 == 0"
// must not admit a replica that never restored anything.
func (c *Coordinator) eligible(t *target) bool {
	if targetState(t.state.Load()) != stateHealthy {
		return false
	}
	g := t.gen.Load()
	if c.eventual {
		return g > 0
	}
	return g > 0 && g == c.version.Load()
}

// pickReplica selects the next replica to try: the least-loaded eligible
// one (by in-flight requests) with a rotating tie-break, or pure rotation
// under Balance "rr". Nil when no eligible replica remains.
func (c *Coordinator) pickReplica(tried map[*target]bool) *target {
	n := len(c.replicas)
	if n == 0 {
		return nil
	}
	start := int(c.rr.Add(1)-1) % n
	var best *target
	var bestLoad int64
	for i := 0; i < n; i++ {
		t := c.replicas[(start+i)%n]
		if tried[t] || !c.eligible(t) {
			continue
		}
		if c.balance == "rr" {
			return t
		}
		if load := t.inflight.Load(); best == nil || load < bestLoad {
			best, bestLoad = t, load
		}
	}
	return best
}

// markDown records a live-request transport failure: the target leaves
// rotation immediately (no waiting for the health loop to notice) and its
// ship generation is zeroed, so when it comes back it must re-verify — a
// "recovered" process may be a restarted, empty one.
func (c *Coordinator) markDown(t *target, err error) {
	prev := targetState(t.state.Swap(int32(stateDown)))
	t.gen.Store(0)
	t.setErr(err)
	if prev != stateDown && c.logger != nil {
		c.logger.Warn("cluster target down", "target", t.name, "url", t.url, "err", err)
	}
}

// --- upstream round trips ---

// bufferedResponse is one upstream response, fully read: buffering is what
// makes read failover safe (nothing is written to the client until a
// replica has answered completely) and keeps the retry loop free of
// half-committed responses.
type bufferedResponse struct {
	status int
	header http.Header
	body   []byte
	target string
}

func (b *bufferedResponse) writeTo(w http.ResponseWriter) {
	h := w.Header()
	for k, vs := range b.header {
		switch k {
		// Hop-by-hop headers describe the upstream connection, not this
		// one; Content-Length is recomputed from the buffered body.
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Content-Length":
			continue
		}
		h[k] = vs
	}
	h.Set("X-Ringo-Target", b.target)
	w.WriteHeader(b.status)
	_, _ = w.Write(b.body)
}

// roundTrip forwards one request to a target and buffers the full
// response, recording the per-target request counter, latency histogram,
// error counter and in-flight gauge. A returned error means transport
// failure — the caller may safely retry a read elsewhere; an HTTP error
// status is a response, not an error.
func (c *Coordinator) roundTrip(t *target, r *http.Request, body []byte) (*bufferedResponse, error) {
	t.inflight.Add(1)
	defer t.inflight.Add(-1)
	start := time.Now()
	resp, err := c.do(t, r.Method, r.URL.RequestURI(), r.Header, body)
	c.reg.Histogram(metricRequestDuration, "Proxied request latency in seconds, by target.",
		obs.L("target", t.name)).Observe(time.Since(start))
	c.reg.Counter(metricRequests, "Proxied requests, by target.", obs.L("target", t.name)).Inc()
	if err != nil {
		c.reg.Counter(metricErrors, "Proxied request transport failures, by target.", obs.L("target", t.name)).Inc()
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		c.reg.Counter(metricErrors, "Proxied request transport failures, by target.", obs.L("target", t.name)).Inc()
		return nil, err
	}
	return &bufferedResponse{status: resp.StatusCode, header: resp.Header, body: data, target: t.name}, nil
}

// do issues one upstream HTTP request. Client headers are forwarded;
// the configured bearer token (if any) overrides Authorization.
func (c *Coordinator) do(t *target, method, uri string, header http.Header, body []byte) (*http.Response, error) {
	req, err := http.NewRequest(method, t.url+uri, bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	for k, vs := range header {
		switch k {
		case "Connection", "Keep-Alive", "Transfer-Encoding", "Content-Length", "Host":
			continue
		}
		req.Header[k] = vs
	}
	if c.cfg.AuthToken != "" {
		req.Header.Set("Authorization", "Bearer "+c.cfg.AuthToken)
	}
	return c.client.Do(req)
}

// doJSON is the coordinator's control-plane call: JSON in, JSON out,
// non-2xx statuses surfaced as errors carrying the server's message.
func (c *Coordinator) doJSON(t *target, method, path string, body, out any) error {
	var payload []byte
	if body != nil {
		var err error
		if payload, err = json.Marshal(body); err != nil {
			return err
		}
	}
	h := http.Header{"Content-Type": []string{"application/json"}}
	resp, err := c.do(t, method, path, h, payload)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode/100 != 2 {
		var em struct {
			Error string `json:"error"`
		}
		msg := strings.TrimSpace(string(data))
		if json.Unmarshal(data, &em) == nil && em.Error != "" {
			msg = em.Error
		}
		return fmt.Errorf("%s %s%s: status %d: %s", method, t.url, path, resp.StatusCode, msg)
	}
	if out != nil {
		return json.Unmarshal(data, out)
	}
	return nil
}

func writeError(w http.ResponseWriter, status int, err error) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(map[string]string{"error": err.Error()})
}
