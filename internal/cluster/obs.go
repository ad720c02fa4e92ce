package cluster

// Coordinator observability. All figures land in one obs.Registry served
// as Prometheus text on GET /metrics: rotation gauges
// (ringo_cluster_replicas by state), per-target proxy families
// (requests/errors/latency by target label), ship accounting
// (count/failures/rejects/bytes/duration), and per-target cache hit/miss
// counters scraped from each server's GET /stats — labeled by target so an
// operator can tell a cold replica from a hot one, and summed nowhere at
// the metrics layer, so nothing is ever double counted (each target's own
// process reports once, under its own label).
//
// GET /stats is the JSON aggregation view: per-target blocks verbatim from
// each server, plus cluster-wide cache/views/indexes sums computed from
// exactly those per-target figures — one fetch per distinct target per
// request, the same no-double-counting rule enforced structurally (New
// rejects duplicate target URLs).

import (
	"encoding/json"
	"net/http"
	"sort"
	"sync"
	"time"

	"ringo/internal/obs"
)

// Metric families the coordinator records. docs/CLUSTER.md documents every
// name; the drift test in docs_test.go keeps the list and the page equal.
const (
	metricReplicas        = "ringo_cluster_replicas"
	metricGeneration      = "ringo_cluster_generation"
	metricRequests        = "ringo_cluster_requests_total"
	metricErrors          = "ringo_cluster_errors_total"
	metricRequestDuration = "ringo_cluster_request_duration_seconds"
	metricRetries         = "ringo_cluster_retries_total"
	metricShips           = "ringo_cluster_ships_total"
	metricShipFailures    = "ringo_cluster_ship_failures_total"
	metricShipRejects     = "ringo_cluster_ship_rejects_total"
	metricShipBytes       = "ringo_cluster_ship_bytes_total"
	metricShipDuration    = "ringo_cluster_ship_duration_seconds"
	metricTargetUp        = "ringo_cluster_target_up"

	metricTargetResultHits   = "ringo_cluster_result_cache_hits_total"
	metricTargetResultMisses = "ringo_cluster_result_cache_misses_total"
	metricTargetViewHits     = "ringo_cluster_view_cache_hits_total"
	metricTargetViewMisses   = "ringo_cluster_view_cache_misses_total"
	metricTargetIndexHits    = "ringo_cluster_index_cache_hits_total"
	metricTargetIndexMisses  = "ringo_cluster_index_cache_misses_total"
)

// cacheBlock mirrors one hits/misses/entries/bytes block of the server's
// GET /stats JSON.
type cacheBlock struct {
	Hits    uint64 `json:"hits"`
	Misses  uint64 `json:"misses"`
	Entries int    `json:"entries"`
	Bytes   int64  `json:"bytes,omitempty"`
}

func (b *cacheBlock) add(o cacheBlock) {
	b.Hits += o.Hits
	b.Misses += o.Misses
	b.Entries += o.Entries
	b.Bytes += o.Bytes
}

// serverStats mirrors the fields of the server's GET /stats the
// coordinator aggregates.
type serverStats struct {
	Sessions int        `json:"sessions"`
	Cache    cacheBlock `json:"cache"`
	Views    cacheBlock `json:"views"`
	Indexes  cacheBlock `json:"indexes"`
}

// cachedStats is one target's last-fetched stats, kept StatsTTL so a
// /metrics scrape reading six labeled families per target costs one
// upstream fetch per target, not six.
type cachedStats struct {
	mu      sync.Mutex
	fetched time.Time
	stats   serverStats
	err     error
}

// targetStats returns a target's /stats block, from cache within
// StatsTTL. Errors (target down) return zero stats: a scrape must not
// fail because one node is; the target_up gauge carries the outage.
func (c *Coordinator) targetStats(t *target) (serverStats, error) {
	v, _ := c.statsCache.LoadOrStore(t, &cachedStats{})
	cs := v.(*cachedStats)
	cs.mu.Lock()
	defer cs.mu.Unlock()
	if c.cfg.StatsTTL > 0 && !cs.fetched.IsZero() && time.Since(cs.fetched) < c.cfg.StatsTTL {
		return cs.stats, cs.err
	}
	var s serverStats
	err := c.doJSON(t, "GET", "/stats", nil, &s)
	cs.fetched, cs.err = time.Now(), err
	if err != nil {
		cs.stats = serverStats{}
		return cs.stats, err
	}
	cs.stats = s
	return s, nil
}

// initObs registers the rotation gauges, ship instruments and per-target
// cache counters. Called once from New, before any request is served.
func (c *Coordinator) initObs() {
	reg := c.reg

	// Rotation census by state, plus "stale": healthy replicas not
	// currently eligible for strict reads (awaiting a re-ship).
	count := func(match func(*target) bool) func() float64 {
		return func() float64 {
			n := 0
			for _, t := range c.replicas {
				if match(t) {
					n++
				}
			}
			return float64(n)
		}
	}
	const replicasHelp = "Replicas by rotation state (stale = healthy but awaiting re-ship)."
	reg.GaugeFunc(metricReplicas, replicasHelp, count(func(t *target) bool {
		return targetState(t.state.Load()) == stateHealthy && c.eligible(t)
	}), obs.L("state", "healthy"))
	reg.GaugeFunc(metricReplicas, replicasHelp, count(func(t *target) bool {
		return targetState(t.state.Load()) == stateHealthy && !c.eligible(t)
	}), obs.L("state", "stale"))
	reg.GaugeFunc(metricReplicas, replicasHelp, count(func(t *target) bool {
		return targetState(t.state.Load()) == stateDown
	}), obs.L("state", "down"))
	reg.GaugeFunc(metricReplicas, replicasHelp, count(func(t *target) bool {
		return targetState(t.state.Load()) == stateRejected
	}), obs.L("state", "rejected"))

	reg.GaugeFunc(metricGeneration, "Serving session mutation version; replicas must verify at this generation for strict reads.",
		func() float64 { return float64(c.version.Load()) })

	c.mRetries = reg.Counter(metricRetries, "Read requests retried on another target after a transport failure.")
	c.mShips = reg.Counter(metricShips, "Snapshot ship cycles completed.")
	c.mShipFailures = reg.Counter(metricShipFailures, "Ship cycles with at least one failure.")
	c.mShipRejects = reg.Counter(metricShipRejects, "Replicas rejected on fingerprint mismatch after restore.")
	c.mShipBytes = reg.Counter(metricShipBytes, "Snapshot bytes shipped to replicas (file size x replicas restored).")
	c.mShipDur = reg.Histogram(metricShipDuration, "Ship cycle wall time in seconds (snapshot + restore + verify, all replicas).")

	// Per-target families: liveness and the cache blocks, each under its
	// target's own label so nothing aggregates (or double counts) at the
	// metrics layer.
	for _, t := range c.targets {
		t := t
		// Pre-register the proxy families so a scrape shows every target's
		// series from the first request, zeros included — an absent series
		// is indistinguishable from a never-registered one to an alerting
		// rule.
		reg.Counter(metricRequests, "Proxied requests, by target.", obs.L("target", t.name))
		reg.Counter(metricErrors, "Proxied request transport failures, by target.", obs.L("target", t.name))
		reg.Histogram(metricRequestDuration, "Proxied request latency in seconds, by target.", obs.L("target", t.name))
		reg.GaugeFunc(metricTargetUp, "1 when the target serves traffic (healthy), else 0.", func() float64 {
			if targetState(t.state.Load()) == stateHealthy {
				return 1
			}
			return 0
		}, obs.L("target", t.name))
		cacheFn := func(sel func(serverStats) float64) func() float64 {
			return func() float64 {
				s, err := c.targetStats(t)
				if err != nil {
					return 0
				}
				return sel(s)
			}
		}
		reg.CounterFunc(metricTargetResultHits, "Result cache hits, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Cache.Hits) }), obs.L("target", t.name))
		reg.CounterFunc(metricTargetResultMisses, "Result cache misses, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Cache.Misses) }), obs.L("target", t.name))
		reg.CounterFunc(metricTargetViewHits, "CSR view cache hits, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Views.Hits) }), obs.L("target", t.name))
		reg.CounterFunc(metricTargetViewMisses, "CSR view cache misses, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Views.Misses) }), obs.L("target", t.name))
		reg.CounterFunc(metricTargetIndexHits, "Equality-index cache hits, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Indexes.Hits) }), obs.L("target", t.name))
		reg.CounterFunc(metricTargetIndexMisses, "Equality-index cache misses, by target.",
			cacheFn(func(s serverStats) float64 { return float64(s.Indexes.Misses) }), obs.L("target", t.name))
	}
}

// --- coordinator endpoints ---

// targetView is one target's row in the GET /cluster topology report.
type targetView struct {
	Target     string `json:"target"`
	URL        string `json:"url"`
	Primary    bool   `json:"primary,omitempty"`
	State      string `json:"state"`
	Generation uint64 `json:"generation"`
	InFlight   int64  `json:"in_flight"`
	Eligible   bool   `json:"eligible"`
	Error      string `json:"error,omitempty"`
}

// handleCluster reports the live topology: every target's state, verified
// generation, load and last error, plus the serving session, consistency
// mode and last ship.
func (c *Coordinator) handleCluster(w http.ResponseWriter, r *http.Request) {
	targets := make([]targetView, 0, len(c.targets))
	for _, t := range c.targets {
		targets = append(targets, targetView{
			Target:     t.name,
			URL:        t.url,
			Primary:    t.primary,
			State:      targetState(t.state.Load()).String(),
			Generation: t.gen.Load(),
			InFlight:   t.inflight.Load(),
			Eligible:   !t.primary && c.eligible(t),
			Error:      t.errString(),
		})
	}
	consistency := "strict"
	if c.eventual {
		consistency = "eventual"
	}
	var lastShip string
	if ns := c.lastShip.Load(); ns > 0 {
		lastShip = time.Unix(0, ns).UTC().Format(time.RFC3339Nano)
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":         c.session,
		"consistency":     consistency,
		"balance":         c.balance,
		"version":         c.version.Load(),
		"ship_path":       c.shipPath,
		"last_ship":       lastShip,
		"last_ship_bytes": c.lastShipBytes.Load(),
		"targets":         targets,
	})
}

// handleShipRequest is the operator's manual ship trigger: re-snapshot and
// re-verify every replica now (bootstrap, after replacing a rejected node,
// after out-of-band primary changes).
func (c *Coordinator) handleShipRequest(w http.ResponseWriter, r *http.Request) {
	if err := c.Ship(); err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]any{"shipped": true, "version": c.version.Load()})
}

// handleStats aggregates GET /stats across the cluster: one block per
// target verbatim (so per-node figures stay attributable) and
// cluster-wide cache/views/indexes sums over exactly those blocks. Targets
// that fail to answer contribute zeros and carry their error in their
// block — an aggregation must degrade per node, not fail whole.
func (c *Coordinator) handleStats(w http.ResponseWriter, r *http.Request) {
	type targetBlock struct {
		Target   string     `json:"target"`
		URL      string     `json:"url"`
		State    string     `json:"state"`
		Sessions int        `json:"sessions"`
		Cache    cacheBlock `json:"cache"`
		Views    cacheBlock `json:"views"`
		Indexes  cacheBlock `json:"indexes"`
		Error    string     `json:"error,omitempty"`
	}
	var mu sync.Mutex
	blocks := make([]targetBlock, 0, len(c.targets))
	var wg sync.WaitGroup
	for _, t := range c.targets {
		wg.Add(1)
		go func(t *target) {
			defer wg.Done()
			s, err := c.targetStats(t)
			b := targetBlock{
				Target: t.name, URL: t.url,
				State:    targetState(t.state.Load()).String(),
				Sessions: s.Sessions, Cache: s.Cache, Views: s.Views, Indexes: s.Indexes,
			}
			if err != nil {
				b.Error = err.Error()
			}
			mu.Lock()
			blocks = append(blocks, b)
			mu.Unlock()
		}(t)
	}
	wg.Wait()
	sort.Slice(blocks, func(i, j int) bool { return blocks[i].Target < blocks[j].Target })

	var cache, views, indexes cacheBlock
	healthy := 0
	for _, b := range blocks {
		cache.add(b.Cache)
		views.add(b.Views)
		indexes.add(b.Indexes)
		if b.State == "healthy" && b.Target != "primary" {
			healthy++
		}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"session":  c.session,
		"version":  c.version.Load(),
		"replicas": map[string]int{"total": len(c.replicas), "healthy": healthy},
		"targets":  blocks,
		"cache":    cache,
		"views":    views,
		"indexes":  indexes,
	})
}

// handleMetrics serves the coordinator's registry in Prometheus text
// exposition format — cluster families only; each server keeps serving its
// own /metrics with the full per-process stack.
func (c *Coordinator) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	_ = c.reg.WritePrometheus(w)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
