package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
)

// resultFile is what -all writes and -compare reads.
type resultFile struct {
	Header    header                     `json:"header"`
	Workloads map[string]*workloadResult `json:"workloads"`
}

// header pins what the numbers were taken on.
type header struct {
	Commit    string  `json:"commit"`
	GoVersion string  `json:"go_version"`
	NProc     int     `json:"nproc"`
	Seeds     []int64 `json:"seeds"`
	Seconds   float64 `json:"seconds"`
	Sizes     string  `json:"sizes"` // the frozen input sizes, as the sizes struct prints
}

type workloadResult struct {
	GOMAXPROCS int               `json:"gomaxprocs"` // one per closed-loop client
	Attempted  int               `json:"attempted"`
	Failed     int               `json:"failed"`
	FailRatio  float64           `json:"fail_ratio"`
	EndToEnd   map[string]series `json:"end_to_end"`
	PerLayer   map[string]metric `json:"per_layer"` // one traced run, on the first seed
}

// series is one end-to-end metric over the timed runs, one per seed.
type series struct {
	Unit   string    `json:"unit"`
	Values []float64 `json:"values"`
	Median float64   `json:"median"`
	Spread float64   `json:"spread"` // (third quartile - first quartile) / median
}

// spread is the interquartile range as a share of the median, with the
// quartiles Python's statistics.quantiles(values, n=4) gives.
func spread(values []float64) float64 {
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if len(s) < 2 {
		return 0
	}
	quartile := func(i int) float64 {
		j := min(max(i*(len(s)+1)/4, 1), len(s)-1)
		delta := float64(i*(len(s)+1) - j*4)
		return (s[j-1]*(4-delta) + s[j]*delta) / 4
	}
	return safeDiv(quartile(3)-quartile(1), median(s))
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// child runs one workload once in a fresh process, so that peak RSS and GC
// state do not leak between runs, and parses the result off its last line.
func child(log io.Writer, args ...string) (result, error) {
	self, err := os.Executable()
	if err != nil {
		return result{}, err
	}
	cmd := exec.Command(self, args...)
	var stdout bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, os.Stderr
	err = cmd.Run()
	lines := strings.Split(strings.TrimSpace(stdout.String()), "\n")
	for _, l := range lines[:len(lines)-1] {
		fmt.Fprintln(log, "   ", l)
	}
	if err != nil {
		return result{}, fmt.Errorf("%s: %w", strings.Join(args, " "), err)
	}
	var res result
	return res, json.Unmarshal([]byte(lines[len(lines)-1]), &res)
}

// runAll runs every workload (or only the one named) runs times with
// tracing off, on consecutive seeds, and once traced, and writes the result
// file.
func runAll(w io.Writer, out, only string, seed int64, runs int, seconds float64, smoke bool) error {
	sz := fullSizes
	if smoke {
		sz = smokeSizes
	}
	file := resultFile{
		Header: header{Commit: "unknown", GoVersion: runtime.Version(), NProc: runtime.NumCPU(),
			Seconds: seconds, Sizes: fmt.Sprintf("%+v", sz)},
		Workloads: map[string]*workloadResult{},
	}
	if b, err := exec.Command("git", "describe", "--always", "--dirty").Output(); err == nil {
		file.Header.Commit = strings.TrimSpace(string(b))
	}
	for i := 0; i < runs; i++ {
		file.Header.Seeds = append(file.Header.Seeds, seed+int64(i))
	}
	for _, wl := range workloads {
		if only != "" && only != wl.name {
			continue
		}
		wr := &workloadResult{GOMAXPROCS: min(wl.clients, runtime.NumCPU()), EndToEnd: map[string]series{}}
		file.Workloads[wl.name] = wr
		args := func(seed int64, trace int) []string {
			a := []string{"-workload", wl.name, "-seed", fmt.Sprint(seed), "-seconds", fmt.Sprint(seconds), "-trace", fmt.Sprint(trace)}
			if smoke {
				a = append(a, "-smoke")
			}
			return a
		}
		for _, s := range file.Header.Seeds {
			fmt.Fprintf(w, "%s seed %d\n", wl.name, s)
			res, err := child(w, args(s, 0)...)
			if err != nil {
				return err
			}
			wr.Attempted += res.Attempted
			wr.Failed += res.Failed
			if !res.Correct {
				wr.Failed = max(wr.Failed, 1) // a failed end-of-run check fails no single op
			}
			for name, m := range res.Metrics {
				e := wr.EndToEnd[name]
				e.Unit, e.Values = m.Unit, append(e.Values, m.Value)
				wr.EndToEnd[name] = e
			}
		}
		wr.FailRatio = safeDiv(float64(wr.Failed), float64(wr.Attempted))
		for name, e := range wr.EndToEnd {
			e.Median, e.Spread = median(e.Values), spread(e.Values)
			wr.EndToEnd[name] = e
		}
		fmt.Fprintf(w, "%s seed %d, traced\n", wl.name, seed)
		res, err := child(w, args(seed, 1)...)
		if err != nil {
			return err
		}
		wr.PerLayer = res.Metrics
		fmt.Fprintf(w, "%s: fail_ratio %g (%d of %d ops)\n", wl.name, wr.FailRatio, wr.Failed, wr.Attempted)
		for _, name := range sortedKeys(wr.EndToEnd) {
			e := wr.EndToEnd[name]
			fmt.Fprintf(w, "  %-14s median %12.4f %-4s spread %.4f over %d runs\n", name, e.Median, e.Unit, e.Spread, len(e.Values))
		}
	}
	b, err := json.MarshalIndent(file, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(out), 0o755); err != nil {
		return err
	}
	fmt.Fprintf(w, "result file: %s\n", out)
	return os.WriteFile(out, append(b, '\n'), 0o644)
}

// benchSpec is the part of BENCHMARK.json the benchmark itself reads.
type benchSpec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// compareFiles prints one row per workload and end-to-end metric and
// reports whether anything regressed. A metric regressed when the new
// median is worse than the old by more than its bound; it is unresolved
// when it did not, but either file's own spread is wider than the bound. A
// metric that a file lacks, or whose old median is 0, is an error: a renamed
// or dropped metric must not pass as unchanged.
func compareFiles(w io.Writer, specPath, oldPath, newPath string) (regressed bool, err error) {
	var spec benchSpec
	var old, cur resultFile
	for path, v := range map[string]any{specPath: &spec, oldPath: &old, newPath: &cur} {
		if err := readJSON(path, v); err != nil {
			return false, err
		}
	}
	fmt.Fprintf(w, "old: %s commit %s, new: %s commit %s\n", oldPath, old.Header.Commit, newPath, cur.Header.Commit)
	fmt.Fprintf(w, "%-14s %-12s %12s %12s  %-26s %7s %7s %6s  %s\n", "workload", "metric", "old", "new", "new/old (base)", "spr.old", "spr.new", "bound", "verdict")
	for _, wl := range spec.Workloads {
		o, n := old.Workloads[wl.Name], cur.Workloads[wl.Name]
		if o == nil || n == nil {
			return false, fmt.Errorf("workload %s is missing from a result file", wl.Name)
		}
		for _, m := range spec.EndToEnd {
			a, b := o.EndToEnd[m.Name], n.EndToEnd[m.Name]
			if len(a.Values) == 0 || len(b.Values) == 0 || a.Median == 0 {
				return false, fmt.Errorf("%s: metric %s is missing from a result file, or 0 in the old one", wl.Name, m.Name)
			}
			worse := safeDiv(b.Median-a.Median, a.Median)
			if m.Better == "higher" {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case worse > m.Bound:
				verdict, regressed = "regressed", true
			case max(a.Spread, b.Spread) > m.Bound:
				verdict = "unresolved"
			}
			ratio := fmt.Sprintf("%.4f (old %.4g %s)", safeDiv(b.Median, a.Median), a.Median, m.Unit)
			fmt.Fprintf(w, "%-14s %-12s %12.4f %12.4f  %-26s %7.4f %7.4f %6.2g  %s\n", wl.Name, m.Name, a.Median, b.Median, ratio, a.Spread, b.Spread, m.Bound, verdict)
		}
		verdict := "ok"
		if n.FailRatio > o.FailRatio {
			verdict, regressed = "regressed", true
		}
		fmt.Fprintf(w, "%-14s %-12s %12.6f %12.6f  %-26s %7s %7s %6s  %s\n", wl.Name, "fail_ratio", o.FailRatio, n.FailRatio, "(any increase)", "", "", "", verdict)
	}
	return regressed, nil
}
