package cluster

// Aggregation correctness and exposition hygiene for the coordinator's two
// telemetry surfaces. GET /stats must carry one block per distinct target
// with the cluster-wide cache/views/indexes sums equal to the sum over
// exactly those blocks — the bug class this guards is double counting (a
// target aggregated twice, or primary figures folded into a replica's).
// GET /metrics must parse as strict Prometheus text exposition with every
// per-target family labeled by target.

import (
	"io"
	"net/http"
	"strconv"
	"strings"
	"testing"
)

// coordStats mirrors the coordinator's GET /stats aggregation response.
type coordStats struct {
	Session  string `json:"session"`
	Version  uint64 `json:"version"`
	Replicas struct {
		Total   int `json:"total"`
		Healthy int `json:"healthy"`
	} `json:"replicas"`
	Targets []struct {
		Target   string     `json:"target"`
		URL      string     `json:"url"`
		State    string     `json:"state"`
		Sessions int        `json:"sessions"`
		Cache    cacheBlock `json:"cache"`
		Views    cacheBlock `json:"views"`
		Indexes  cacheBlock `json:"indexes"`
		Error    string     `json:"error,omitempty"`
	} `json:"targets"`
	Cache   cacheBlock `json:"cache"`
	Views   cacheBlock `json:"views"`
	Indexes cacheBlock `json:"indexes"`
}

func TestClusterStatsAggregation(t *testing.T) {
	coord, cts := newCluster(t, 2, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	// Generate cache activity on the replicas: algo results are served
	// from each node's result cache on repeat, so identical reads fanned
	// across both replicas produce per-target hits to aggregate.
	for i := 0; i < 12; i++ {
		if code, _, body := cquery(t, cts.URL, "main", "algo G wcc"); code != http.StatusOK {
			t.Fatalf("warm read: status %d: %s", code, body)
		}
	}

	var agg coordStats
	if code := doJSON(t, "GET", cts.URL+"/stats", nil, &agg); code != http.StatusOK {
		t.Fatalf("GET /stats: status %d", code)
	}
	if len(agg.Targets) != 3 {
		t.Fatalf("aggregated %d target blocks, want 3 (primary + 2 replicas)", len(agg.Targets))
	}
	seen := map[string]bool{}
	var wantCache, wantViews, wantIndexes cacheBlock
	for _, b := range agg.Targets {
		if seen[b.Target] {
			t.Fatalf("target %s aggregated twice", b.Target)
		}
		if seen[b.URL] {
			t.Fatalf("URL %s aggregated twice", b.URL)
		}
		seen[b.Target], seen[b.URL] = true, true
		wantCache.add(b.Cache)
		wantViews.add(b.Views)
		wantIndexes.add(b.Indexes)
	}
	for _, name := range []string{"primary", "r1", "r2"} {
		if !seen[name] {
			t.Fatalf("no block for target %s: %+v", name, agg.Targets)
		}
	}
	if agg.Cache != wantCache || agg.Views != wantViews || agg.Indexes != wantIndexes {
		t.Fatalf("cluster-wide sums disagree with per-target blocks:\ncache %+v want %+v\nviews %+v want %+v\nindexes %+v want %+v",
			agg.Cache, wantCache, agg.Views, wantViews, agg.Indexes, wantIndexes)
	}
	// The reads above hit replica result caches; if the sum were double or
	// zero counted this would not line up with what the traffic implies.
	if agg.Cache.Hits == 0 {
		t.Fatal("repeated identical replica reads produced no aggregated cache hits")
	}
	if agg.Replicas.Total != 2 || agg.Replicas.Healthy != 2 {
		t.Fatalf("replica census %+v, want 2/2", agg.Replicas)
	}
}

// TestClusterMetricsExposition scrapes the coordinator's /metrics and
// checks it the way a real Prometheus scraper would — plus that every
// cluster family this package records is present, and per-target families
// carry a series per distinct target (no merged or duplicated labels).
func TestClusterMetricsExposition(t *testing.T) {
	coord, cts := newCluster(t, 2, nil)
	if err := coord.Ship(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		cquery(t, cts.URL, "main", "top PR 5")
	}
	cquery(t, cts.URL, "main", "gen rmat E2 5 32 1") // one mutation: ship metrics move

	resp, err := http.Get(cts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	out := string(raw)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("content type %q", ct)
	}
	checkExposition(t, out)

	for _, name := range metricNames() {
		if !strings.Contains(out, "# TYPE "+name+" ") {
			t.Errorf("family %s missing from exposition", name)
		}
	}
	for _, series := range []string{
		`ringo_cluster_replicas{state="healthy"} 2`,
		`ringo_cluster_replicas{state="down"} 0`,
		`ringo_cluster_replicas{state="rejected"} 0`,
		`ringo_cluster_replicas{state="stale"} 0`,
		`ringo_cluster_target_up{target="primary"} 1`,
		`ringo_cluster_target_up{target="r1"} 1`,
		`ringo_cluster_target_up{target="r2"} 1`,
	} {
		if !strings.Contains(out, series) {
			t.Errorf("series %q missing from exposition", series)
		}
	}
	// Per-target request accounting: every target label appears, and the
	// ship counters reflect the bootstrap ship plus the post-mutation one.
	for _, target := range []string{"primary", "r1", "r2"} {
		if !strings.Contains(out, `ringo_cluster_requests_total{target="`+target+`"}`) {
			t.Errorf("no request counter for target %s", target)
		}
		if !strings.Contains(out, `ringo_cluster_result_cache_hits_total{target="`+target+`"}`) {
			t.Errorf("no labeled cache-hit counter for target %s", target)
		}
	}
	if v := metricValue(t, out, "ringo_cluster_ships_total"); v < 2 {
		t.Errorf("ships_total = %v, want >= 2 (bootstrap + post-mutation)", v)
	}
	if v := metricValue(t, out, "ringo_cluster_generation"); v != 2 {
		t.Errorf("generation = %v, want 2", v)
	}
}

// metricValue extracts one unlabeled sample from exposition text.
func metricValue(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, name+" "); ok {
			v, err := strconv.ParseFloat(rest, 64)
			if err != nil {
				t.Fatalf("metric %s: bad value %q", name, rest)
			}
			return v
		}
	}
	t.Fatalf("metric %s not found", name)
	return 0
}

// checkExposition validates Prometheus text format strictly: every sample
// belongs to a family announced by a preceding # TYPE, no series line
// repeats, values parse, and comments are only HELP/TYPE.
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
}

// metricNames lists every family this package registers, for the
// docs-drift test.
func metricNames() []string {
	return []string{
		metricReplicas, metricGeneration, metricRequests, metricErrors,
		metricRequestDuration, metricRetries, metricShips, metricShipFailures,
		metricShipRejects, metricShipBytes, metricShipDuration, metricTargetUp,
		metricTargetResultHits, metricTargetResultMisses,
		metricTargetViewHits, metricTargetViewMisses,
		metricTargetIndexHits, metricTargetIndexMisses,
	}
}
