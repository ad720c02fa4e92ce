package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

func readSpec(t *testing.T) benchSpec {
	t.Helper()
	var spec benchSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSmoke runs every workload of BENCHMARK.json at smoke size, timed and
// traced, and holds the output to the contract: exactly the listed metric
// names, finite values with the listed units, no failed op, and a trace in
// which every span's parent resolves.
func TestSmoke(t *testing.T) {
	spec := readSpec(t)
	t.Chdir(t.TempDir())
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]*$`)
	units := map[bool]map[string]string{false: {}, true: {}}
	for _, m := range spec.EndToEnd {
		units[false][m.Name] = m.Unit
	}
	for _, m := range spec.PerLayer {
		units[true][m.Name] = m.Unit
	}
	if len(spec.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(spec.Workloads), len(workloads))
	}
	for _, wl := range spec.Workloads {
		for _, trace := range []bool{false, true} {
			cfg := config{workload: wl.Name, seed: 7, seconds: 1, trace: trace, sizes: smokeSizes, traceOut: "trace.json", log: t.Logf}
			res, err := run(cfg)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", wl.Name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v, %d of %d ops failed", wl.Name, trace, res.Correct, res.Failed, res.Attempted)
			}
			if len(res.Metrics) != len(units[trace]) {
				t.Errorf("%s trace=%v: %d metrics, BENCHMARK.json lists %d", wl.Name, trace, len(res.Metrics), len(units[trace]))
			}
			for n, m := range res.Metrics {
				if !name.MatchString(n) || len(n) > 64 {
					t.Errorf("%s: metric name %q is outside the contract", wl.Name, n)
				}
				if want, ok := units[trace][n]; !ok || want != m.Unit {
					t.Errorf("%s: metric %s has unit %q, BENCHMARK.json says %q (listed: %v)", wl.Name, n, m.Unit, want, ok)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
					t.Errorf("%s: metric %s is %v", wl.Name, n, m.Value)
				}
				if !trace && m.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s is %v, must never be 0", wl.Name, n, m.Value)
				}
			}
		}
		var spans []span
		if err := readJSON("trace.json", &spans); err != nil {
			t.Fatal(err)
		}
		roots := 0
		for i, s := range spans {
			if s.ID != i+1 || s.Parent < 0 || s.Parent >= s.ID || s.EndNS < s.StartNS || s.Workload != wl.Name {
				t.Fatalf("%s: span %+v does not resolve", wl.Name, s)
			}
			if s.Parent == 0 {
				roots++
				if s.Layer != "client" {
					t.Fatalf("%s: span %+v has no parent but is not an op", wl.Name, s)
				}
			}
		}
		if roots == 0 || roots == len(spans) {
			t.Errorf("%s: %d spans, %d of them roots", wl.Name, len(spans), roots)
		}
	}
}

// TestEveryLayerMetricIsExercised: each per-layer metric is populated by at
// least one workload.
func TestEveryLayerMetricIsExercised(t *testing.T) {
	spec := readSpec(t)
	t.Chdir(t.TempDir())
	seen := map[string]bool{}
	for _, wl := range spec.Workloads {
		res, err := run(config{workload: wl.Name, seed: 3, seconds: 1, trace: true, sizes: smokeSizes, traceOut: "trace.json", log: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		for n, m := range res.Metrics {
			seen[n] = seen[n] || m.Value != 0
		}
	}
	for _, m := range spec.PerLayer {
		if !seen[m.Name] {
			t.Errorf("per-layer metric %s is 0 on every workload", m.Name)
		}
	}
}

// TestChecksAreLive corrupts one expected value and sees ops fail.
func TestChecksAreLive(t *testing.T) {
	t.Chdir(t.TempDir())
	wl := &coldPipeline{}
	if _, err := wl.generate(".", smokeSizes, 1); err != nil {
		t.Fatal(err)
	}
	wl.pass[1].want = "S: 1 rows"
	p, _, err := newPhase(wl, 1, 0, nil)
	defer p.x.close()
	if err == nil || !strings.Contains(err.Error(), "want prefix") {
		t.Fatalf("set-up passed a corrupted check: %v", err)
	}
	p.measure(func(_, i int) bool { return i < 3 })
	if p.attempted != 3 || p.failed != 3 {
		t.Errorf("%d of %d ops failed, want 3 of 3", p.failed, p.attempted)
	}
}

// TestBlocks: two clients' samples are put in sending order and cut into
// blocks of equal count, each timed to the start of the next.
func TestBlocks(t *testing.T) {
	p := &phase{ended: 1000e6}
	for c := 0; c < 2; c++ { // as measure merges them: client after client
		for i := 0; i < 2*blockOps; i++ {
			at := int64(2*i+c) * 1e6 // 1 ms apart, the clients alternating
			p.started = append(p.started, at)
			p.latency = append(p.latency, 1+2*float64(at/400e6)) // 1 ms, then 3 ms
		}
	}
	p50, p95, rate := p.blocks()
	if want := []float64{1, 1, 3, 3}; !reflect.DeepEqual(p50, want) || !reflect.DeepEqual(p95, want) {
		t.Errorf("p50 %v, p95 %v, want %v", p50, p95, want)
	}
	if want := []float64{1000, 1000, 1000, 500}; !reflect.DeepEqual(rate, want) { // the last block lasts to p.ended
		t.Errorf("rate %v, want %v", rate, want)
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	if got := spread([]float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread = %v, want 1", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	spec := readSpec(t)
	specPath, err := filepath.Abs(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	t.Chdir(t.TempDir())
	write := func(path string, p50 []float64, failed int) {
		file := resultFile{Workloads: map[string]*workloadResult{}}
		for _, wl := range spec.Workloads {
			wr := &workloadResult{Attempted: 100, Failed: failed, FailRatio: float64(failed) / 100, EndToEnd: map[string]series{}}
			for _, m := range spec.EndToEnd {
				wr.EndToEnd[m.Name] = series{Unit: m.Unit, Values: []float64{5, 5}, Median: 5}
			}
			wr.EndToEnd["op_p50_ms"] = series{Unit: "ms", Values: p50, Median: median(p50), Spread: spread(p50)}
			file.Workloads[wl.Name] = wr
		}
		b, _ := json.Marshal(file)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	var b float64 // op_p50_ms's bound
	for _, m := range spec.EndToEnd {
		if m.Name == "op_p50_ms" {
			b = m.Bound
		}
	}
	flat := func(v float64) []float64 { return []float64{v, v, v, v} }
	write("old.json", flat(10), 0)
	write("same.json", flat(10*(1+b/2)), 0)
	write("slow.json", flat(10*(1+1.5*b)), 0)
	write("noisy.json", []float64{10 * (1 - 1.5*b), 10 * (1 - b), 10 * (1 + b), 10 * (1 + 1.5*b)}, 0)
	write("failing.json", flat(10), 1)
	// A result file that lacks a metric is refused, not read as unchanged.
	file := resultFile{}
	if err := readJSON("same.json", &file); err != nil {
		t.Fatal(err)
	}
	delete(file.Workloads[spec.Workloads[0].Name].EndToEnd, "op_p95_ms")
	b2, _ := json.Marshal(file)
	if err := os.WriteFile("partial.json", b2, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, pair := range [][2]string{{"old.json", "partial.json"}, {"partial.json", "old.json"}} {
		if _, err := compareFiles(&bytes.Buffer{}, specPath, pair[0], pair[1]); err == nil {
			t.Errorf("%s against %s: a missing metric passed", pair[0], pair[1])
		}
	}
	for _, c := range []struct {
		file, verdict string
		regressed     bool
	}{{"same.json", "", false}, {"slow.json", "regressed", true}, {"noisy.json", "unresolved", false}, {"failing.json", "regressed", true}} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, specPath, "old.json", c.file)
		if err != nil {
			t.Fatal(err)
		}
		if regressed != c.regressed || c.verdict != "" && !strings.Contains(out.String(), c.verdict) ||
			c.verdict == "" && (strings.Contains(out.String(), "regressed") || strings.Contains(out.String(), "unresolved")) {
			t.Errorf("old.json against %s: regressed=%v, output:\n%s", c.file, regressed, out.String())
		}
	}
}
