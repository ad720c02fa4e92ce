// Package server exposes the Ringo analytics engine as a long-lived,
// multi-session HTTP service — the shared-memory counterpart of the
// terminal shell. Each session owns one workspace and is guarded by an
// RWMutex: read-only queries (show, top, algo, ls, ...) run concurrently
// under the shared lock, while mutating commands serialize. All sessions
// share one LRU result cache keyed by (session, object fingerprint,
// command), so repeated analytics over unchanged objects are answered
// without recomputation; beneath it, each session's workspace carries a
// fingerprint-keyed CSR view cache, so even *new* analytics over an
// unchanged graph skip the O(V+E) dense conversion (both cache layers
// report hits and misses on GET /stats). Long-running commands can be
// submitted as async jobs (POST /sessions/{id}/jobs) and polled
// (GET /jobs/{id}) so no HTTP connection is held open for minutes.
//
// Endpoints:
//
//	POST   /sessions                create a session ({"id": "name"} optional)
//	GET    /sessions                list sessions
//	GET    /sessions/{id}           one session's objects
//	DELETE /sessions/{id}           drop a session
//	POST   /sessions/{id}/query     {"cmd": "..."} -> repl.Result (synchronous)
//	POST   /sessions/{id}/script    {"script": "..."} -> per-step results, one lock acquisition
//	POST   /sessions/{id}/jobs      {"cmd": "..."} or {"script": "..."} -> 202 + job id (async)
//	POST   /sessions/{id}/snapshot  {"path": "..."} write the workspace to a file
//	POST   /sessions/{id}/restore   {"path": "..."} replace the workspace from a file
//	GET    /sessions/{id}/fingerprints  per-object fingerprints + workspace content digest
//	GET    /jobs/{id}               job status and result
//	GET    /jobs                    list jobs (?session=id filters)
//	GET    /stats                   sessions, jobs, cache hits/misses
//
// The /script endpoint is the batching lever the paper's interactive model
// implies: an N-step analysis runs under a single session-lock acquisition
// (shared if every step is read-only, exclusive otherwise) and one HTTP
// round trip, with per-step results and wall times in the response.
// docs/SERVER.md is the full API reference; a drift test keeps it in sync
// with the routes registered here.
//
// The snapshot and restore endpoints touch the host filesystem and are
// therefore gated on Config.AllowFileIO, like the load/save verbs. Restore
// purges the session's result-cache entries: the restored objects carry
// fresh fingerprints, and nothing computed against the pre-restore
// workspace may be served afterwards.
package server

import (
	"bytes"
	"context"
	"crypto/subtle"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"regexp"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ringo/internal/core"
	"ringo/internal/extmem"
	"ringo/internal/obs"
	"ringo/internal/repl"
)

// Config sizes a Server.
type Config struct {
	// CacheSize bounds the shared result cache (entries). 0 means
	// DefaultCacheSize; negative disables caching.
	CacheSize int
	// ViewCacheSize bounds each session's CSR view cache (entries). 0
	// means the workspace default; negative disables view caching, so
	// every analytics command rebuilds its flat view.
	ViewCacheSize int
	// Workers is the async job worker pool size (0 means DefaultWorkers).
	Workers int
	// MaxSessions caps concurrent sessions (0 means unlimited).
	MaxSessions int
	// AllowFileIO permits the file-touching verbs (load, loadgraph,
	// save) over HTTP. Off by default: unlike the local shell, the
	// server's clients must not get arbitrary read/write access to the
	// host filesystem.
	AllowFileIO bool
	// AuthToken, when non-empty, requires every request to carry
	// "Authorization: Bearer <token>". Without it the server trusts the
	// network — suitable only behind a private interface or proxy, since
	// any client can then query, mutate or drop any session.
	AuthToken string
	// Logger receives structured request, job and slow-query records
	// (slog). Nil disables logging; metrics are recorded regardless.
	Logger *slog.Logger
	// SlowQuery is the slow-query log threshold: any verb or script step
	// whose evaluation takes at least this long is logged through Logger
	// with its session, verb, object fingerprints and duration. 0
	// disables the slow log.
	SlowQuery time.Duration
	// Metrics is the registry GET /metrics exposes and every layer
	// records into; nil creates a fresh one (exposed via Metrics()).
	Metrics *obs.Registry
}

// Defaults for Config zero values.
const (
	DefaultCacheSize = 256
	DefaultWorkers   = 4
	jobQueueDepth    = 256
)

// session is one named workspace plus its command-level lock. The RWMutex
// gives each command atomicity over the workspace: read-only commands take
// the shared lock and overlap, mutators serialize.
type session struct {
	id          string
	mu          sync.RWMutex
	eng         *repl.Engine
	created     time.Time
	cachePrefix string
	// dropped stops in-flight evaluations from re-inserting cache
	// entries after DropSession purged the session's prefix.
	dropped atomic.Bool
}

// Server is the multi-session analytics service. It implements
// http.Handler; construct with New and Close when done.
type Server struct {
	mux   *http.ServeMux
	cache *LRU

	authToken string

	// reg is the unified metrics registry: the HTTP middleware, session
	// engines (per-verb), jobs, caches, algo timers and runtime gauges
	// all record here, and GET /metrics and GET /stats both render it.
	reg       *obs.Registry
	logger    *slog.Logger
	slowQuery time.Duration
	started   time.Time
	inFlight  *obs.Gauge
	reqSeq    atomic.Uint64

	mu         sync.RWMutex
	sessions   map[string]*session
	nextSess   int
	maxSess    int
	allowFiles bool
	viewCache  int
	// cacheEpoch makes each session instance's cache namespace unique:
	// dropping and recreating a session id must not inherit the old
	// instance's entries (a fresh workspace restarts its version clock,
	// so bare fingerprints would repeat).
	cacheEpoch uint64
	// retired accumulates the final cache counters of dropped sessions
	// (under mu), so the server-wide totals — exported as Prometheus
	// counters — never decrease when a session goes away.
	retired struct {
		viewHits, viewMisses, indexHits, indexMisses, patches, rebuilds uint64
	}

	jobs *jobRunner

	// testHookQueryBarrier, when set, runs after a query acquires its
	// session lock and before evaluation — tests use it to prove that
	// read-only queries overlap.
	testHookQueryBarrier func(sessionID string, readOnly bool)
}

// New returns a ready-to-serve Server.
func New(cfg Config) *Server {
	s := &Server{
		mux:        http.NewServeMux(),
		sessions:   make(map[string]*session),
		maxSess:    cfg.MaxSessions,
		allowFiles: cfg.AllowFileIO,
		authToken:  cfg.AuthToken,
		viewCache:  cfg.ViewCacheSize,
		reg:        cfg.Metrics,
		logger:     cfg.Logger,
		slowQuery:  cfg.SlowQuery,
		started:    time.Now(),
	}
	if s.reg == nil {
		s.reg = obs.NewRegistry()
	}
	if cfg.CacheSize >= 0 {
		size := cfg.CacheSize
		if size == 0 {
			size = DefaultCacheSize
		}
		s.cache = NewLRU(size)
	}
	s.initObs()
	workers := cfg.Workers
	if workers <= 0 {
		workers = DefaultWorkers
	}
	s.jobs = newJobRunner(s, workers)

	for pattern, handler := range s.routeTable() {
		s.mux.HandleFunc(pattern, handler)
	}
	return s
}

// routeTable is the single source of truth for the HTTP API surface: New
// registers every entry on the mux, and the drift test in
// server_docs_test.go checks docs/SERVER.md documents exactly these
// patterns.
func (s *Server) routeTable() map[string]http.HandlerFunc {
	return map[string]http.HandlerFunc{
		"POST /sessions":                  s.handleCreateSession,
		"GET /sessions":                   s.handleListSessions,
		"GET /sessions/{id}":              s.handleGetSession,
		"DELETE /sessions/{id}":           s.handleDeleteSession,
		"POST /sessions/{id}/query":       s.handleQuery,
		"POST /sessions/{id}/script":      s.handleScript,
		"POST /sessions/{id}/jobs":        s.handleSubmitJob,
		"POST /sessions/{id}/snapshot":    s.handleSnapshot,
		"POST /sessions/{id}/restore":     s.handleRestore,
		"GET /sessions/{id}/fingerprints": s.handleFingerprints,
		"GET /jobs/{id}":                  s.handleGetJob,
		"GET /jobs":                       s.handleListJobs,
		"GET /stats":                      s.handleStats,
		"GET /metrics":                    s.handleMetrics,
	}
}

// ServeHTTP is the instrumented front door: it assigns a request id
// (returned in X-Request-ID), tracks the in-flight gauge, dispatches
// through the auth check and mux, then records per-route counters, the
// status class, the latency histogram and the request log record.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	start := time.Now()
	s.inFlight.Inc()
	defer s.inFlight.Dec()
	reqID := fmt.Sprintf("r%d", s.reqSeq.Add(1))
	sw := &statusRecorder{ResponseWriter: w, status: http.StatusOK}
	sw.Header().Set("X-Request-ID", reqID)
	s.dispatch(sw, r)
	s.observeRequest(r, sw, reqID, time.Since(start))
}

// dispatch checks the bearer token (when configured) and hands off to the
// API mux.
func (s *Server) dispatch(w http.ResponseWriter, r *http.Request) {
	if s.authToken != "" {
		got := r.Header.Get("Authorization")
		want := "Bearer " + s.authToken
		if subtle.ConstantTimeCompare([]byte(got), []byte(want)) != 1 {
			writeError(w, http.StatusUnauthorized, fmt.Errorf("missing or invalid bearer token"))
			return
		}
	}
	s.mux.ServeHTTP(w, r)
}

// Metrics exposes the server's unified registry — what GET /metrics
// serves — so embedding hosts (cmd/ringo-server's debug listener, tests)
// can read or extend it.
func (s *Server) Metrics() *obs.Registry { return s.reg }

// Close stops the job workers; queued jobs are marked failed.
func (s *Server) Close() { s.jobs.close() }

// CacheStats returns cumulative result-cache hits and misses, the entry
// count and booked bytes (zeros when caching is disabled).
func (s *Server) CacheStats() (hits, misses uint64, entries int, bytes int64) {
	return s.cache.Stats()
}

// ViewCacheStats aggregates the per-session CSR view caches: hits and
// misses cumulative since server start (dropped sessions included),
// current entries and estimated resident bytes across every live session.
func (s *Server) ViewCacheStats() (hits, misses uint64, entries int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hits, misses = s.retired.viewHits, s.retired.viewMisses
	for _, sess := range s.sessions {
		h, m, e, b := sess.eng.Workspace().ViewCacheStats()
		hits += h
		misses += m
		entries += e
		bytes += b
	}
	return hits, misses, entries, bytes
}

// IndexCacheStats aggregates the per-session equality-index caches: hits
// and misses cumulative since server start (dropped sessions included),
// current entries and estimated resident bytes across every live session.
func (s *Server) IndexCacheStats() (hits, misses uint64, entries int, bytes int64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	hits, misses = s.retired.indexHits, s.retired.indexMisses
	for _, sess := range s.sessions {
		h, m, e, b := sess.eng.Workspace().IndexCacheStats()
		hits += h
		misses += m
		entries += e
		bytes += b
	}
	return hits, misses, entries, bytes
}

// PatchStats aggregates the incremental tier's view-maintenance counters
// since server start (dropped sessions included): how many CSR view
// materializations were served by patching a cached base forward versus
// running a full rebuild.
func (s *Server) PatchStats() (patches, rebuilds uint64) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	patches, rebuilds = s.retired.patches, s.retired.rebuilds
	for _, sess := range s.sessions {
		p, r := sess.eng.Workspace().PatchStats()
		patches += p
		rebuilds += r
	}
	return patches, rebuilds
}

// DeltaEdges sums the pending mutation-log entries across every live
// session — graph mutations applied to live bindings but not yet folded
// into a materialized view.
func (s *Server) DeltaEdges() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	total := 0
	for _, sess := range s.sessions {
		total += sess.eng.Workspace().DeltaEdges()
	}
	return total
}

// MappedBytes sums the file-backed bytes of mapped (RNGM) graph bindings
// across every live session — graph data served through the OS page cache
// rather than the Go heap, so it is reported separately from both
// heap_bytes and the view-cache bytes on GET /stats.
func (s *Server) MappedBytes() int64 {
	s.mu.RLock()
	defer s.mu.RUnlock()
	var total int64
	for _, sess := range s.sessions {
		total += sess.eng.Workspace().MappedBytes()
	}
	return total
}

// Sentinel errors CreateSession wraps, so the HTTP layer can map each
// failure mode to the right status (400 invalid, 503 full, 409 duplicate).
var (
	ErrInvalidSessionID = errors.New("invalid session id")
	ErrSessionLimit     = errors.New("session limit reached")
)

// validSessionID matches client-supplied session names: URL-safe, one path
// segment, bounded. Anything else could not be addressed by the
// /sessions/{id}/... routes it is served under.
var validSessionID = regexp.MustCompile(`^[A-Za-z0-9_.-]{1,64}$`)

// CreateSession makes a new named session (a generated id when name is "").
func (s *Server) CreateSession(name string) (string, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.maxSess > 0 && len(s.sessions) >= s.maxSess {
		return "", fmt.Errorf("%w (%d)", ErrSessionLimit, s.maxSess)
	}
	if name == "" {
		s.nextSess++
		name = fmt.Sprintf("s%d", s.nextSess)
		for s.sessions[name] != nil {
			s.nextSess++
			name = fmt.Sprintf("s%d", s.nextSess)
		}
	} else if !validSessionID.MatchString(name) {
		return "", fmt.Errorf("%w %q (want 1-64 chars of [A-Za-z0-9_.-])", ErrInvalidSessionID, name)
	} else if s.sessions[name] != nil {
		return "", fmt.Errorf("session %q already exists", name)
	}
	ws := core.NewWorkspace()
	if s.viewCache != 0 {
		ws.ConfigureViewCache(s.viewCache) // negative disables
	}
	sess := &session{id: name, eng: repl.New(ws), created: time.Now()}
	// Per-verb metrics aggregate into the server's registry; slow-query
	// records carry the session id. The engine keeps its own registry
	// too, which the read-only stats verb renders per session.
	sess.eng.SetTelemetry(repl.Telemetry{
		Reg:       s.reg,
		Log:       s.logger,
		SlowQuery: s.slowQuery,
		Session:   name,
	})
	s.cacheEpoch++
	sess.cachePrefix = fmt.Sprintf("%s@%d|", name, s.cacheEpoch)
	sess.eng.SetCache(sessionCache{sess: sess, lru: s.cache})
	s.sessions[name] = sess
	return name, nil
}

// DropSession removes a session, reporting whether it existed. Its result
// cache entries are purged so dead entries stop consuming shared budget,
// and its view, patch and index counters are retired into the server
// totals so those keep counting up.
func (s *Server) DropSession(id string) bool {
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if !ok {
		s.mu.Unlock()
		return false
	}
	delete(s.sessions, id)
	ws := sess.eng.Workspace()
	vh, vm, _, _ := ws.ViewCacheStats()
	ih, im, _, _ := ws.IndexCacheStats()
	p, r := ws.PatchStats()
	s.retired.viewHits += vh
	s.retired.viewMisses += vm
	s.retired.indexHits += ih
	s.retired.indexMisses += im
	s.retired.patches += p
	s.retired.rebuilds += r
	s.mu.Unlock()
	sess.dropped.Store(true)
	s.cache.DeletePrefix(sess.cachePrefix)
	return true
}

// SnapshotSession writes a session's workspace to path in the binary
// snapshot format, under the session's shared lock: queries overlap with a
// snapshot, mutating commands wait for it.
func (s *Server) SnapshotSession(id, path string) (objects int, err error) {
	sess, ok := s.session(id)
	if !ok {
		return 0, errNoSession(id)
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	ws := sess.eng.Workspace()
	if err := ws.SnapshotFile(path); err != nil {
		return 0, err
	}
	return len(ws.Names()), nil
}

// RestoreSession replaces a session's workspace with the contents of the
// snapshot at path, holding the session lock exclusively, and purges the
// session's result-cache entries so nothing computed against pre-restore
// objects can be served.
func (s *Server) RestoreSession(id, path string) (objects int, err error) {
	sess, ok := s.session(id)
	if !ok {
		return 0, errNoSession(id)
	}
	sess.mu.Lock()
	defer sess.mu.Unlock()
	ws := sess.eng.Workspace()
	if err := ws.RestoreFile(path); err != nil {
		return 0, err
	}
	s.cache.DeletePrefix(sess.cachePrefix)
	return len(ws.Names()), nil
}

// WarmStart creates the named session and primes it from the file at path
// — the server's warm-restart entry point, used by the -restore flag
// before the listener comes up. The file's magic picks the path: a
// workspace snapshot (RNGS) is decoded onto the heap as before, while a
// mapped CSR image (RNGM, written by savemapped) is validated and served
// from mmap in place, bound as the read-only graph "g". Either way the
// warm-start wall time is logged, so a restart's cost difference between
// the two tiers shows up in the operator's log (BenchmarkRestoreDecode
// and BenchmarkRestoreMapped in internal/core quantify it).
func (s *Server) WarmStart(id, path string) error {
	if _, err := s.CreateSession(id); err != nil {
		return err
	}
	start := time.Now()
	if isMappedImage(path) {
		mg, err := extmem.Open(path)
		if err != nil {
			s.DropSession(id)
			return err
		}
		sess, _ := s.session(id)
		sess.mu.Lock()
		sess.eng.Workspace().SetWithProvenance("g", core.Object{Mapped: mg}, "warm start: "+path)
		sess.mu.Unlock()
		if s.logger != nil {
			s.logger.Info("warm start",
				"session", id, "path", path, "mode", "map",
				"nodes", mg.NumNodes(), "edges", mg.NumEdges(),
				"mmap", mg.Mapped(), "elapsed", time.Since(start))
		}
		return nil
	}
	n, err := s.RestoreSession(id, path)
	if err != nil {
		s.DropSession(id)
		return err
	}
	if s.logger != nil {
		s.logger.Info("warm start",
			"session", id, "path", path, "mode", "decode",
			"objects", n, "elapsed", time.Since(start))
	}
	return nil
}

// isMappedImage reports whether the file at path starts with the RNGM
// magic, routing WarmStart to the map path without committing to a full
// open. Unreadable or short files return false and fall through to the
// snapshot decoder, whose error will name the real problem.
func isMappedImage(path string) bool {
	f, err := os.Open(path)
	if err != nil {
		return false
	}
	defer f.Close()
	var magic [4]byte
	if _, err := io.ReadFull(f, magic[:]); err != nil {
		return false
	}
	return string(magic[:]) == "RNGM"
}

// ObjectFingerprint is one binding's identity in a SessionFingerprints
// report: the name#version fingerprint cache keys are built from.
type ObjectFingerprint struct {
	Name        string `json:"name"`
	Fingerprint string `json:"fingerprint"`
}

// SessionFingerprints identifies the exact state of a session's workspace:
// every binding's name#version fingerprint plus the content digest of the
// canonical snapshot encoding. Two sessions report equal fingerprints and
// digest exactly when they hold byte-identical workspaces — the check the
// cluster coordinator runs against every replica after shipping a
// snapshot, so a replica that restored the wrong bytes can never enter the
// read rotation.
type SessionFingerprints struct {
	Session string              `json:"session"`
	Digest  string              `json:"digest"`
	Objects []ObjectFingerprint `json:"objects"`
}

// Fingerprints reports a session's per-object fingerprints and workspace
// content digest, under the session's shared lock so the cut is consistent
// with respect to mutating commands. Sessions holding mapped (RNGM)
// bindings have no snapshot encoding and therefore no digest; the error
// says so.
func (s *Server) Fingerprints(id string) (SessionFingerprints, error) {
	sess, ok := s.session(id)
	if !ok {
		return SessionFingerprints{}, errNoSession(id)
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	ws := sess.eng.Workspace()
	digest, err := ws.Digest()
	if err != nil {
		return SessionFingerprints{}, err
	}
	fp := SessionFingerprints{Session: id, Digest: digest, Objects: []ObjectFingerprint{}}
	for _, name := range ws.Names() {
		f, _ := ws.Fingerprint(name)
		fp.Objects = append(fp.Objects, ObjectFingerprint{Name: name, Fingerprint: f})
	}
	return fp, nil
}

func (s *Server) handleFingerprints(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	fp, err := s.Fingerprints(id)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(errNoSession); ok {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, fp)
}

// SessionIDs lists current session ids, sorted.
func (s *Server) SessionIDs() []string {
	s.mu.RLock()
	defer s.mu.RUnlock()
	ids := make([]string, 0, len(s.sessions))
	for id := range s.sessions {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

func (s *Server) session(id string) (*session, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	sess, ok := s.sessions[id]
	return sess, ok
}

// Eval runs one command in a session under its command-level lock:
// read-only commands share the lock, mutators hold it exclusively.
func (s *Server) Eval(sessionID, cmd string) (*repl.Result, error) {
	sess, ok := s.session(sessionID)
	if !ok {
		return nil, errNoSession(sessionID)
	}
	return s.evalOn(sess, cmd)
}

// evalOn is the single evaluation path for synchronous queries and async
// jobs. It takes the session instance, not its id: a job queued against
// one instance must never run in a same-named session created later. It
// also converts engine panics into errors so one bad command from one
// client can never take down every analyst's in-memory session.
func (s *Server) evalOn(sess *session, cmd string) (res *repl.Result, err error) {
	if !s.allowFiles && repl.TouchesFiles(cmd) {
		return nil, fmt.Errorf("file access is disabled on this server (load, loadgraph, save, savemapped, snapshot, restore, source)")
	}
	readOnly := repl.ReadOnly(cmd)
	if readOnly {
		sess.mu.RLock()
		defer sess.mu.RUnlock()
	} else {
		sess.mu.Lock()
		defer sess.mu.Unlock()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, errInternal{fmt.Errorf("internal error evaluating %q: %v", cmd, p)}
		}
	}()
	if s.testHookQueryBarrier != nil {
		s.testHookQueryBarrier(sess.id, readOnly)
	}
	res, err = sess.eng.Eval(cmd)
	// A workspace-replacing command through the verb path invalidates by
	// version bump alone; purge like the /restore endpoint does, so the
	// replaced objects' entries stop consuming shared cache budget as
	// permanently dead keys.
	if err == nil && repl.ReplacesWorkspace(cmd) {
		s.cache.DeletePrefix(sess.cachePrefix)
	}
	return res, err
}

// EvalScript runs a parsed script in a session as one batch: the session
// lock is acquired once for the whole run — shared when every step is
// read-only per the verb table, exclusive otherwise — so an N-step script
// pays one lock round trip instead of N. Per-step results, errors and wall
// times come back in the ScriptResult; a failed step is not an error here
// (the batch ran), callers check ScriptResult.Err.
func (s *Server) EvalScript(sessionID string, script *repl.Script) (*repl.ScriptResult, error) {
	sess, ok := s.session(sessionID)
	if !ok {
		return nil, errNoSession(sessionID)
	}
	return s.evalScriptOn(sess, script)
}

// evalScriptOn is the script counterpart of evalOn, shared by the
// synchronous /script endpoint and async script jobs. The file-IO gate is
// enforced before anything runs, naming the offending step, so a gated
// script fails atomically instead of stopping halfway.
func (s *Server) evalScriptOn(sess *session, script *repl.Script) (res *repl.ScriptResult, err error) {
	if !s.allowFiles {
		if i := script.TouchesFiles(); i >= 0 {
			st := script.Steps[i]
			return nil, errForbidden{fmt.Errorf("file access is disabled on this server: step %d (line %d) %q needs it (load, loadgraph, save, savemapped, snapshot, restore, source)",
				i+1, st.LineNo, st.Cmd)}
		}
	}
	readOnly := script.ReadOnly()
	if readOnly {
		sess.mu.RLock()
		defer sess.mu.RUnlock()
	} else {
		sess.mu.Lock()
		defer sess.mu.Unlock()
	}
	defer func() {
		if p := recover(); p != nil {
			res, err = nil, errInternal{fmt.Errorf("internal error evaluating script: %v", p)}
		}
	}()
	if s.testHookQueryBarrier != nil {
		s.testHookQueryBarrier(sess.id, readOnly)
	}
	res = sess.eng.EvalScript(script)
	// Purge the session's result-cache entries if a workspace-replacing
	// step actually executed successfully, mirroring evalOn's handling of
	// a single restore command.
	for _, st := range res.Steps {
		if st.Error == "" && repl.ReplacesWorkspace(st.Cmd) {
			s.cache.DeletePrefix(sess.cachePrefix)
			break
		}
	}
	return res, nil
}

type errNoSession string

func (e errNoSession) Error() string { return fmt.Sprintf("no session %q", string(e)) }

// errInternal marks a server-side failure (an engine panic) so the HTTP
// layer reports 500, not 400.
type errInternal struct{ err error }

func (e errInternal) Error() string { return e.err.Error() }

// errForbidden marks a request refused by policy (the file-IO gate) so the
// HTTP layer reports 403, not 400.
type errForbidden struct{ err error }

func (e errForbidden) Error() string { return e.err.Error() }

// --- HTTP plumbing ---

type cmdRequest struct {
	Cmd string `json:"cmd"`
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// MaxBodyBytes bounds every request body the server and the coordinator
// read. The largest body a client sends is a script, and the scripts in the
// tree are a few KiB; 8 MiB leaves generated scripts room while one request
// cannot make the process that holds every session buffer gigabytes.
const MaxBodyBytes = 8 << 20

// ReadHeaderTimeout is how long the server and coordinator binaries wait
// for a connection's request headers, so a client that opens connections
// and never finishes a request cannot pin them.
const ReadHeaderTimeout = 10 * time.Second

// IdleTimeout is how long the server and coordinator binaries keep an idle
// keep-alive connection open.
const IdleTimeout = 2 * time.Minute

// ShutdownGrace is how long ListenAndServe lets in-flight requests finish
// after its context is cancelled before it closes their connections.
const ShutdownGrace = 10 * time.Second

// ListenAndServe serves hs on hs.Addr, with ReadHeaderTimeout and
// IdleTimeout set, until ctx is cancelled. It then drains: the listener
// closes at once, requests in flight get ShutdownGrace to finish, and
// whatever is left is closed. A clean drain returns nil.
func ListenAndServe(ctx context.Context, hs *http.Server) error {
	ln, err := net.Listen("tcp", hs.Addr)
	if err != nil {
		return err
	}
	return serve(ctx, hs, ln)
}

func serve(ctx context.Context, hs *http.Server, ln net.Listener) error {
	hs.ReadHeaderTimeout = ReadHeaderTimeout
	hs.IdleTimeout = IdleTimeout
	served := make(chan error, 1)
	go func() { served <- hs.Serve(ln) }()
	select {
	case err := <-served:
		return err
	case <-ctx.Done():
	}
	grace, cancel := context.WithTimeout(context.WithoutCancel(ctx), ShutdownGrace)
	defer cancel()
	err := hs.Shutdown(grace)
	hs.Close()
	<-served
	return err
}

// ReadBody reads a request body of at most MaxBodyBytes, answering 413
// past the bound and 400 when the read fails, and reports whether the
// handler may go on. The coordinator reads bodies through it too, so it
// never forwards a body the server would refuse.
func ReadBody(w http.ResponseWriter, r *http.Request) ([]byte, bool) {
	body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, MaxBodyBytes))
	var tooBig *http.MaxBytesError
	switch {
	case err == nil:
		return body, true
	case errors.As(err, &tooBig):
		writeError(w, http.StatusRequestEntityTooLarge, fmt.Errorf("request body over %d bytes", tooBig.Limit))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("reading request body: %w", err))
	}
	return nil, false
}

// decodeJSON decodes the request body into v, an empty body leaving v
// zero, answering 400 for one that does not parse; it reports whether the
// handler may go on.
func decodeJSON(w http.ResponseWriter, r *http.Request, v any) bool {
	body, ok := ReadBody(w, r)
	if !ok {
		return false
	}
	if len(bytes.TrimSpace(body)) == 0 {
		return true
	}
	if err := json.Unmarshal(body, v); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad request body: %w", err))
		return false
	}
	return true
}

func readCmd(w http.ResponseWriter, r *http.Request) (string, bool) {
	var req cmdRequest
	if !decodeJSON(w, r, &req) {
		return "", false
	}
	if strings.TrimSpace(req.Cmd) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty cmd"))
		return "", false
	}
	return req.Cmd, true
}

func (s *Server) handleCreateSession(w http.ResponseWriter, r *http.Request) {
	var req struct {
		ID string `json:"id"`
	}
	// An empty body is fine: the server names the session.
	if !decodeJSON(w, r, &req) {
		return
	}
	id, err := s.CreateSession(req.ID)
	if err != nil {
		status := http.StatusConflict
		switch {
		case errors.Is(err, ErrInvalidSessionID):
			status = http.StatusBadRequest
		case errors.Is(err, ErrSessionLimit):
			status = http.StatusServiceUnavailable
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusCreated, map[string]string{"id": id})
}

func (s *Server) handleListSessions(w http.ResponseWriter, r *http.Request) {
	type sessInfo struct {
		ID      string    `json:"id"`
		Objects int       `json:"objects"`
		Created time.Time `json:"created"`
	}
	out := []sessInfo{}
	for _, id := range s.SessionIDs() {
		if sess, ok := s.session(id); ok {
			out = append(out, sessInfo{
				ID:      id,
				Objects: len(sess.eng.Workspace().Names()),
				Created: sess.created,
			})
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{"sessions": out})
}

func (s *Server) handleGetSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.session(id)
	if !ok {
		writeError(w, http.StatusNotFound, errNoSession(id))
		return
	}
	type objInfo struct {
		Name       string `json:"name"`
		Kind       string `json:"kind"`
		Summary    string `json:"summary"`
		Provenance string `json:"provenance,omitempty"`
	}
	sess.mu.RLock()
	defer sess.mu.RUnlock()
	ws := sess.eng.Workspace()
	objs := []objInfo{}
	for _, n := range ws.Names() {
		o, _ := ws.Get(n)
		objs = append(objs, objInfo{Name: n, Kind: o.Kind(), Summary: o.Summary(), Provenance: ws.Provenance(n)})
	}
	writeJSON(w, http.StatusOK, map[string]any{"id": id, "created": sess.created, "objects": objs})
}

func (s *Server) handleDeleteSession(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if !s.DropSession(id) {
		writeError(w, http.StatusNotFound, errNoSession(id))
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"deleted": id})
}

func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	cmd, ok := readCmd(w, r)
	if !ok {
		return
	}
	res, err := s.Eval(id, cmd)
	if err != nil {
		status := http.StatusBadRequest
		switch err.(type) {
		case errNoSession:
			status = http.StatusNotFound
		case errInternal:
			status = http.StatusInternalServerError
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, res)
}

// parseScriptBody validates script text from a request body into
// executable steps — the one place the sync /script endpoint and async
// script jobs share their parse rules.
func parseScriptBody(text string) (*repl.Script, error) {
	if strings.TrimSpace(text) == "" {
		return nil, fmt.Errorf("empty script")
	}
	script, err := repl.ParseScript(text)
	if err != nil {
		return nil, err
	}
	if len(script.Steps) == 0 {
		return nil, fmt.Errorf("script has no executable steps")
	}
	return script, nil
}

// readScript decodes the {"script": "..."} body of the /script endpoint.
func readScript(w http.ResponseWriter, r *http.Request) (*repl.Script, bool) {
	var req struct {
		Script string `json:"script"`
	}
	if !decodeJSON(w, r, &req) {
		return nil, false
	}
	script, err := parseScriptBody(req.Script)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return script, true
}

func (s *Server) handleScript(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	script, ok := readScript(w, r)
	if !ok {
		return
	}
	res, err := s.EvalScript(id, script)
	if err != nil {
		status := http.StatusBadRequest
		switch err.(type) {
		case errNoSession:
			status = http.StatusNotFound
		case errInternal:
			status = http.StatusInternalServerError
		case errForbidden:
			status = http.StatusForbidden
		}
		writeError(w, status, err)
		return
	}
	// A failed step is still a 200: the batch executed, and the per-step
	// results say exactly which step failed and what ran before it.
	writeJSON(w, http.StatusOK, res)
}

func (s *Server) handleSubmitJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	sess, ok := s.session(id)
	if !ok {
		writeError(w, http.StatusNotFound, errNoSession(id))
		return
	}
	// A job body carries either one command or a whole script batch.
	var req struct {
		Cmd    string `json:"cmd"`
		Script string `json:"script"`
	}
	if !decodeJSON(w, r, &req) {
		return
	}
	cmd := strings.TrimSpace(req.Cmd)
	var script *repl.Script
	switch {
	case cmd != "" && strings.TrimSpace(req.Script) != "":
		writeError(w, http.StatusBadRequest, fmt.Errorf("body must carry cmd or script, not both"))
		return
	case cmd != "":
	case strings.TrimSpace(req.Script) != "":
		var err error
		if script, err = parseScriptBody(req.Script); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return
		}
		cmd = fmt.Sprintf("script (%d steps)", len(script.Steps))
	default:
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty cmd"))
		return
	}
	job, err := s.jobs.submit(sess, cmd, script)
	if err != nil {
		writeError(w, http.StatusServiceUnavailable, err)
		return
	}
	writeJSON(w, http.StatusAccepted, job.snapshot())
}

// readPath parses the {"path": "..."} body of the snapshot/restore
// endpoints, enforcing the file-IO gate first.
func (s *Server) readPath(w http.ResponseWriter, r *http.Request) (string, bool) {
	if !s.allowFiles {
		writeError(w, http.StatusForbidden, fmt.Errorf("file access is disabled on this server (start with -allow-file-io)"))
		return "", false
	}
	var req struct {
		Path string `json:"path"`
	}
	if !decodeJSON(w, r, &req) {
		return "", false
	}
	if strings.TrimSpace(req.Path) == "" {
		writeError(w, http.StatusBadRequest, fmt.Errorf("empty path"))
		return "", false
	}
	return req.Path, true
}

func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, ok := s.readPath(w, r)
	if !ok {
		return
	}
	n, err := s.SnapshotSession(id, path)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(errNoSession); ok {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "path": path, "objects": n})
}

func (s *Server) handleRestore(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	path, ok := s.readPath(w, r)
	if !ok {
		return
	}
	n, err := s.RestoreSession(id, path)
	if err != nil {
		status := http.StatusBadRequest
		if _, ok := err.(errNoSession); ok {
			status = http.StatusNotFound
		}
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"session": id, "path": path, "objects": n})
}

func (s *Server) handleGetJob(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	job, ok := s.jobs.get(id)
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Errorf("no job %q", id))
		return
	}
	writeJSON(w, http.StatusOK, job.snapshot())
}

func (s *Server) handleListJobs(w http.ResponseWriter, r *http.Request) {
	session := r.URL.Query().Get("session")
	writeJSON(w, http.StatusOK, map[string]any{"jobs": s.jobs.list(session)})
}

// handleStats renders the operational summary as JSON. Every figure is
// read out of the obs registry — the same series GET /metrics exposes —
// so the two surfaces cannot drift apart. The pre-registry JSON keys are
// kept byte-compatible for existing clients; uptime_seconds, goroutines
// and heap_bytes are additive.
func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	val := func(name string) float64 {
		v, _ := s.reg.Value(name)
		return v
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"sessions": int(val(metricSessions)),
		"jobs": map[string]int{
			JobQueued:  int(val(metricJobsQueued)),
			JobRunning: int(val(metricJobsRunning)),
			JobDone:    int(val(metricJobsDone)),
			JobFailed:  int(val(metricJobsFailed)),
		},
		"cache": map[string]any{
			"hits":    uint64(val(metricResultCacheHits)),
			"misses":  uint64(val(metricResultCacheMisses)),
			"entries": int(val(metricResultCacheEntries)),
			"bytes":   int64(val(metricResultCacheBytes)),
		},
		"views": map[string]any{
			"hits":        uint64(val(metricViewCacheHits)),
			"misses":      uint64(val(metricViewCacheMisses)),
			"entries":     int(val(metricViewCacheEntries)),
			"bytes":       int64(val(metricViewCacheBytes)),
			"patches":     uint64(val(metricViewPatches)),
			"rebuilds":    uint64(val(metricViewRebuilds)),
			"delta_edges": int(val(metricDeltaEdges)),
		},
		"indexes": map[string]any{
			"hits":    uint64(val(metricIndexCacheHits)),
			"misses":  uint64(val(metricIndexCacheMisses)),
			"entries": int(val(metricIndexCacheEntries)),
			"bytes":   int64(val(metricIndexCacheBytes)),
		},
		"uptime_seconds": val(metricUptime),
		"goroutines":     int(val(metricGoroutines)),
		"heap_bytes":     uint64(val(metricHeapAlloc)),
		"mapped_bytes":   int64(val(metricMappedBytes)),
	})
}
