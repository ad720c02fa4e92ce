package obs

import (
	"io"
	"testing"
	"time"
)

// The instrumentation budget: recording must stay well under 50ns/op so
// the per-verb and per-request metrics can be left on unconditionally in
// the hot paths. These run in the CI bench-smoke job.

func BenchmarkObsCounter(b *testing.B) {
	reg := NewRegistry()
	c := reg.Counter("bench_total", "benchmark counter")
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
	}
}

func BenchmarkObsCounterLookup(b *testing.B) {
	reg := NewRegistry()
	reg.Counter("bench_total", "benchmark counter", L("verb", "pagerank"))
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		reg.Counter("bench_total", "benchmark counter", L("verb", "pagerank")).Inc()
	}
}

func BenchmarkObsHistogram(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_seconds", "benchmark histogram")
	d := 137 * time.Microsecond
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		h.Observe(d)
	}
}

func BenchmarkObsHistogramParallel(b *testing.B) {
	reg := NewRegistry()
	h := reg.Histogram("bench_seconds", "benchmark histogram")
	d := 137 * time.Microsecond
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			h.Observe(d)
		}
	})
}

func BenchmarkObsWritePrometheus(b *testing.B) {
	reg := NewRegistry()
	for _, verb := range []string{"pagerank", "select", "join", "algo", "top", "show", "ls", "script"} {
		reg.Counter("verbs_total", "calls", L("verb", verb)).Add(100)
		h := reg.Histogram("verb_seconds", "latency", L("verb", verb))
		for i := 0; i < 64; i++ {
			h.Observe(time.Duration(i) * time.Millisecond)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if err := reg.WritePrometheus(io.Discard); err != nil {
			b.Fatal(err)
		}
	}
}
