package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"ringo/internal/xhash"
)

// phase is one fresh executor at one depth: set-up, the measured ops, the
// epilogue.
type phase struct {
	wl      workload
	x       executor
	layer   string
	clients int
	tr      *tracer // nil: tracing off

	mu             sync.Mutex
	first          map[string]reply // first reply per "same" key
	errs           []string         // the first few failures, for the log
	bytes, rowsOut int64

	attempted, failed int
	latency           []float64 // ms per measured op
	started           []int64   // when each of them was sent, as now() reads
	ended             int64     // when the last client finished

	// before holds GET /metrics as read on the fresh server of a traced
	// HTTP phase, so counter deltas cover set-up and the measured ops.
	before map[string]float64
}

// newPhase starts an executor at the given depth and runs the workload's
// set-up on it, returning how long both took.
func newPhase(wl workload, clients, depth int, tr *tracer) (*phase, time.Duration, error) {
	start := time.Now()
	p := &phase{wl: wl, x: depths[depth].new(), layer: depths[depth].layer, clients: clients, tr: tr, first: map[string]reply{}}
	if x, ok := p.x.(*httpExec); ok && tr != nil {
		var err error
		if p.before, err = x.counters(); err != nil {
			return p, 0, err
		}
	}
	err := p.unmeasured(wl.setup(), -1)
	return p, time.Since(start), err
}

func (p *phase) fail(format string, args ...any) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.errs) < 5 {
		p.errs = append(p.errs, fmt.Sprintf(format, args...))
	}
}

// check applies a command's checks to its reply.
func (p *phase) check(c command, r reply) error {
	if !strings.HasPrefix(r.message, c.want) {
		return fmt.Errorf("message %q, want prefix %q", r.message, c.want)
	}
	if c.same != "" {
		p.mu.Lock()
		first, seen := p.first[c.same]
		if !seen {
			p.first[c.same] = r
		}
		p.mu.Unlock()
		if seen && (first.message != r.message || !reflect.DeepEqual(first.rows, r.rows) || c.raw && !bytes.Equal(first.raw, r.raw)) {
			return fmt.Errorf("reply differs from the first reply to %q", c.same)
		}
	}
	if c.check != nil {
		return c.check(r)
	}
	return nil
}

// do runs one op, reporting its latency and whether every command
// succeeded and passed its checks.
func (p *phase) do(client, index int, o op) (ok bool, ms float64) {
	ok = true
	start := now()
	root := 0
	if p.tr != nil && p.layer == depths[0].layer {
		root = p.tr.add(span{Client: client, Op: index, Verb: "op", Layer: "client", StartNS: start})
	}
	if o.create {
		if err := p.x.create(o.session); err != nil {
			p.fail("create %s: %v", o.session, err)
			return false, 0
		}
	}
	for i, c := range o.cmds {
		t0 := now()
		r, err := p.x.eval(o.session, c.line)
		t1 := now()
		if err == nil {
			err = p.check(c, r)
		}
		if err != nil {
			ok = false
			p.fail("%s [%s depth]: %v", c.line, p.layer, err)
		}
		p.mu.Lock()
		p.bytes += int64(len(r.raw))
		if c.scan {
			p.rowsOut += messageRows(r)
		}
		p.mu.Unlock()
		if p.tr != nil {
			p.record(cmdKey{client, index, i}, root, c.verb, t0, t1, r.leaves)
		}
	}
	if o.drop {
		if err := p.x.drop(o.session); err != nil {
			ok = false
			p.fail("drop %s: %v", o.session, err)
		}
	}
	end := now()
	if root != 0 {
		p.tr.end(root, end)
	}
	return ok, float64(end-start) / 1e6
}

// record adds a command's span, or at the leaf depth its leaves' spans,
// under the command's span one depth up.
func (p *phase) record(key cmdKey, root int, verb string, t0, t1 int64, leaves []leaf) {
	parent := root
	if root == 0 {
		parent = p.tr.up[key]
	}
	s := span{Parent: parent, Client: key.client, Op: key.op, Verb: verb, Layer: p.layer, StartNS: t0, EndNS: t1}
	if p.layer != "leaf" {
		p.tr.link(key, p.tr.add(s))
		return
	}
	ids := make([]int, len(leaves))
	for i, l := range leaves {
		s.Layer, s.Verb, s.StartNS, s.EndNS, s.Work = l.layer, verb+"/"+l.name, l.start, l.end, l.work
		if s.Parent = parent; l.under > 0 {
			s.Parent = ids[l.under-1]
		}
		ids[i] = p.tr.add(s)
	}
}

// unmeasured runs set-up or epilogue ops on client 0, numbering them
// downwards from first so that they stay apart from the measured ops.
func (p *phase) unmeasured(ops []op, first int) error {
	for i, o := range ops {
		if ok, _ := p.do(0, first-i, o); !ok {
			return fmt.Errorf("%s", strings.Join(p.errs, "; "))
		}
	}
	return nil
}

// measure runs every client's stream in a closed loop: a client sends its
// next op only after the previous one completed. more decides, before each
// op, whether client c sends its i-th op.
func (p *phase) measure(more func(c, i int) bool) []stream {
	streams := make([]stream, p.clients)
	lat := make([][]float64, p.clients)
	at := make([][]int64, p.clients)
	failed := make([]int, p.clients)
	var wg sync.WaitGroup
	for c := range streams {
		streams[c] = p.wl.stream(c)
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; more(c, i); i++ {
				at[c] = append(at[c], now())
				ok, ms := p.do(c, i, streams[c].next())
				lat[c] = append(lat[c], ms)
				if !ok {
					failed[c]++
				}
			}
		}()
	}
	wg.Wait()
	p.ended = now()
	for c := range lat {
		p.latency = append(p.latency, lat[c]...)
		p.started = append(p.started, at[c]...)
		p.attempted += len(lat[c])
		p.failed += failed[c]
	}
	return streams
}

// A timed run reports its latencies and its throughput per block of
// consecutive ops and takes the median over the blocks, so that a stretch in
// which the host slows the process down, which on a shared machine comes and
// goes within seconds, moves a few blocks and not the run's numbers. A block
// has at least blockOps ops, so that ten samples or more lie beyond its 95th
// percentile.
const (
	maxBlocks = 10
	blockOps  = 200
)

// blocks cuts the measured ops, in the order they were sent, into blocks of
// equal op count and returns each block's median and 95th-percentile latency
// and its throughput. A block lasts from its first op's start to the next
// block's, the last one to the end of the phase.
func (p *phase) blocks() (p50, p95, rate []float64) {
	order := make([]int, len(p.latency))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return p.started[order[a]] < p.started[order[b]] })
	n := max(1, min(maxBlocks, len(order)/blockOps))
	for b := 0; b < n; b++ {
		lo, hi := b*len(order)/n, (b+1)*len(order)/n
		end := p.ended
		if hi < len(order) {
			end = p.started[order[hi]]
		}
		lat := make([]float64, 0, hi-lo)
		for _, i := range order[lo:hi] {
			lat = append(lat, p.latency[i])
		}
		p50, p95 = append(p50, median(lat)), append(p95, quantile(lat, 0.95))
		rate = append(rate, safeDiv(float64(hi-lo), float64(end-p.started[order[lo]])/1e9))
	}
	return p50, p95, rate
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is what one run prints as its last line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

type config struct {
	workload string
	seed     int64
	seconds  float64
	trace    bool
	sizes    sizes
	traceOut string
	log      func(format string, args ...any)
}

// run executes one workload once, timed or traced.
func run(cfg config) (result, error) {
	var wl workload
	clients, ops := 0, 0
	for _, w := range workloads {
		if w.name == cfg.workload {
			wl, clients, ops = w.new(), min(w.clients, runtime.NumCPU()), w.ops(cfg.sizes)
		}
	}
	if wl == nil {
		return result{}, fmt.Errorf("unknown workload %q", cfg.workload)
	}
	// One core per analyst. With a second core a one-client workload runs its
	// fork-join operators and the collector across two vCPUs and then waits
	// on whichever the host serves last, which is what made table-explore
	// unsteady on a shared 2-vCPU machine; on one it is steadier and, at
	// these input sizes, faster.
	runtime.GOMAXPROCS(clients)
	// The inputs live inside the checkout, never in the system temp dir.
	build, err := filepath.Abs(".bench_build")
	if err != nil {
		return result{}, err
	}
	if err := os.MkdirAll(build, 0o755); err != nil {
		return result{}, err
	}
	dir, err := os.MkdirTemp(build, "inputs-")
	if err != nil {
		return result{}, err
	}
	defer os.RemoveAll(dir)

	start := time.Now()
	files, err := wl.generate(dir, cfg.sizes, cfg.seed)
	if err != nil {
		return result{}, fmt.Errorf("generating inputs: %w", err)
	}
	genS := time.Since(start).Seconds()
	var snapshotBytes int64
	for _, f := range files {
		b, err := os.ReadFile(f)
		if err != nil {
			return result{}, err
		}
		cfg.log("input %s: %d bytes, xhash %016x", filepath.Base(f), len(b), xhash.Checksum64(b))
		if filepath.Ext(f) == ".rngs" {
			snapshotBytes = int64(len(b))
		}
	}
	if !cfg.trace {
		return timed(cfg, wl, clients, ops)
	}
	res, err := traced(cfg, wl, clients, max(1, ops/5)) // a fifth of the ops, and of the seconds
	if err == nil {
		res.Metrics["gen.input_s"] = metric{genS, "s"}
		res.Metrics["snapshot.bytes_per_edge"] = metric{safeDiv(float64(snapshotBytes), float64(cfg.sizes.warmRows)), "B"}
	}
	return res, err
}

// timed measures the end-to-end metrics at the HTTP depth with tracing off:
// ops ops per client, or as many as fit into cfg.seconds.
func timed(cfg config, wl workload, clients, ops int) (result, error) {
	// The server of the first set-up is the one measured. The generator's
	// garbage goes back to the system and the high-water mark is reset first,
	// so that peak_rss_mb covers that set-up and the measured ops and not
	// the generator.
	debug.FreeOSMemory()
	if err := os.WriteFile("/proc/self/clear_refs", []byte("5"), 0); err != nil {
		cfg.log("peak_rss_mb includes input generation: %v", err)
	}
	p, took, err := newPhase(wl, clients, 0, nil)
	if err != nil {
		p.x.close()
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	setups := []float64{took.Seconds()}
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second)))
	streams := p.measure(func(_, i int) bool { return i < ops && time.Now().Before(deadline) })
	peak, err := peakRSSMB()
	oracle := p.unmeasured(wl.epilogue(streams, 0), -1000)
	p.x.close()
	if err != nil {
		return result{}, err
	}
	if p.attempted == 0 {
		return result{}, fmt.Errorf("--seconds %v left no time for a single op", cfg.seconds)
	}
	if p.attempted < ops*clients {
		cfg.log("CUT SHORT by --seconds: %d of %d ops", p.attempted, ops*clients)
	}

	// The other set-ups only feed setup_s.
	for len(setups) < cfg.sizes.setups {
		runtime.GC()
		q, took, err := newPhase(wl, clients, 0, nil)
		q.x.close()
		if err != nil {
			return result{}, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, took.Seconds())
	}
	for _, e := range p.errs {
		cfg.log("FAILED: %s", e)
	}
	p50, p95, rate := p.blocks()
	cfg.log("%d ops (the latency sample count) in %.2fs by %d closed-loop client(s) at GOMAXPROCS=%d, %d failed; %d set-ups took %.3fs",
		p.attempted, float64(p.ended-p.started[0])/1e9, clients, runtime.GOMAXPROCS(0), p.failed, len(setups), setups)
	cfg.log("per block of %d ops: op_p50_ms %.3f, op_p95_ms %.3f, ops_per_s %.2f", p.attempted/len(p50), p50, p95, rate)
	return result{
		Correct: p.failed == 0 && oracle == nil, Attempted: p.attempted, Failed: p.failed,
		Metrics: map[string]metric{
			"setup_s":     {median(setups), "s"},
			"op_p50_ms":   {median(p50), "ms"},
			"op_p95_ms":   {median(p95), "ms"},
			"ops_per_s":   {median(rate), "1/s"},
			"pass_ratio":  {1 - float64(p.failed)/float64(p.attempted), "ratio"},
			"peak_rss_mb": {peak, "MB"},
		},
	}, nil
}

// peakRSSMB reads VmHWM, the process's peak resident set, from
// /proc/self/status.
func peakRSSMB() (float64, error) {
	b, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return 0, err
	}
	_, rest, ok := strings.Cut(string(b), "VmHWM:")
	f := strings.Fields(rest)
	if !ok || len(f) < 2 || f[1] != "kB" {
		return 0, fmt.Errorf("/proc/self/status has no VmHWM in kB")
	}
	kb, err := strconv.ParseFloat(f[0], 64)
	return kb / 1024, err
}

// traced replays the same ops, a fifth of a timed run's, at every depth and
// derives the per-layer metrics. A first, untraced HTTP phase is the base of
// trace.overhead_ratio; should --seconds cut it short, the depths replay
// only the ops it got to.
func traced(cfg config, wl workload, clients, ops int) (result, error) {
	base, _, err := newPhase(wl, clients, 0, nil)
	if err != nil {
		return result{}, fmt.Errorf("set-up: %w", err)
	}
	counts := make([]int, clients)
	deadline := time.Now().Add(time.Duration(cfg.seconds * float64(time.Second) / 5))
	base.measure(func(c, i int) bool {
		if i >= ops || !time.Now().Before(deadline) {
			return false
		}
		counts[c] = i + 1
		return true
	})
	base.x.close()

	tr := &tracer{workload: cfg.workload}
	out := result{Correct: base.failed == 0, Attempted: base.attempted, Failed: base.failed}
	var top *phase // the traced HTTP phase, where counters are read
	var after map[string]float64
	var m0, m1, live runtime.MemStats
	for d := range depths {
		runtime.GC()
		tr.descend()
		p, _, err := newPhase(wl, clients, d, tr)
		if err != nil {
			return result{}, fmt.Errorf("set-up at the %s depth: %w", p.layer, err)
		}
		if d == 0 {
			top = p
			runtime.ReadMemStats(&m0)
		}
		streams := p.measure(func(c, i int) bool { return i < counts[c] })
		if d == 0 {
			runtime.ReadMemStats(&m1)
			if after, err = p.x.(*httpExec).counters(); err != nil {
				return result{}, err
			}
			runtime.GC()
			runtime.ReadMemStats(&live)
		}
		oracle := p.unmeasured(wl.epilogue(streams, cfg.sizes.triangles), -1000)
		p.x.close()
		out.Attempted += p.attempted
		out.Failed += p.failed
		out.Correct = out.Correct && p.failed == 0 && oracle == nil
		for _, e := range p.errs {
			cfg.log("FAILED: %s", e)
		}
	}

	sent := float64(max(top.attempted, 1))
	delta := func(name string) float64 { return after[name] - top.before[name] }
	ratio := func(hit, miss string) float64 { return safeDiv(delta(hit), delta(hit)+delta(miss)) }
	ms := layerMetrics(tr.spans)
	ms["server.resp_bytes_per_op"] = metric{float64(top.bytes) / sent, "B"}
	ms["server.result_cache_hit_ratio"] = metric{ratio("ringo_result_cache_hits_total", "ringo_result_cache_misses_total"), "ratio"}
	ms["server.result_cache_entries"] = metric{after["ringo_result_cache_entries"], "count"}
	ms["core.view_hit_ratio"] = metric{ratio("ringo_view_cache_hits_total", "ringo_view_cache_misses_total"), "ratio"}
	ms["core.view_patches"] = metric{delta("ringo_view_patches_total"), "count"}
	ms["core.view_rebuilds"] = metric{delta("ringo_view_rebuilds_total"), "count"}
	ms["core.index_hit_ratio"] = metric{ratio("ringo_index_cache_hits_total", "ringo_index_cache_misses_total"), "ratio"}
	ms["table.rows_scanned_per_row_out"] = metric{safeDiv(delta("ringo_table_filter_rows_total"), float64(top.rowsOut)), "ratio"}
	ms["runtime.alloc_mb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / (1 << 20) / sent, "MB"}
	ms["runtime.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	ms["runtime.gc_pause_ms"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	ms["runtime.heap_live_mb"] = metric{float64(live.HeapAlloc) / (1 << 20), "MB"}
	ms["trace.overhead_ratio"] = metric{safeDiv(median(top.latency), median(base.latency)), "ratio"}
	out.Metrics = ms

	if err := os.MkdirAll(filepath.Dir(cfg.traceOut), 0o755); err != nil {
		return result{}, err
	}
	b, err := json.Marshal(tr.spans)
	if err != nil {
		return result{}, err
	}
	cfg.log("%d ops per depth, %d spans written to %s", top.attempted, len(tr.spans), cfg.traceOut)
	return out, os.WriteFile(cfg.traceOut, b, 0o644)
}
