package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

func openMappedTestGraph(t testing.TB, g *graph.Directed) *extmem.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(path, graph.BuildView(g)); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	mg, err := extmem.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	t.Cleanup(func() { mg.Close() })
	return mg
}

func TestWorkspaceMappedBinding(t *testing.T) {
	mg := openMappedTestGraph(t, gen.GNM(300, 2000, 21))
	ws := NewWorkspace()
	ws.Set("m", Object{Mapped: mg})

	o, ok := ws.Get("m")
	if !ok || o.Kind() != "mgraph" {
		t.Fatalf("binding kind = %q, want mgraph", o.Kind())
	}
	if !strings.Contains(o.Summary(), "mgraph") {
		t.Fatalf("summary %q does not name the mapped kind", o.Summary())
	}

	v, err := ws.DirectedView("m")
	if err != nil {
		t.Fatalf("DirectedView: %v", err)
	}
	if v != mg.View() {
		t.Fatalf("DirectedView did not serve the mapped view in place")
	}
	// Mapped views bypass the cache entirely: no entry, no accounted bytes.
	_, _, entries, _ := ws.ViewCacheStats()
	if entries != 0 {
		t.Fatalf("mapped DirectedView occupied %d cache entries", entries)
	}

	// The undirected projection is a heap materialization and is cached.
	u1, err := ws.UndirectedView("m")
	if err != nil {
		t.Fatalf("UndirectedView: %v", err)
	}
	u2, err := ws.UndirectedView("m")
	if err != nil {
		t.Fatalf("UndirectedView (warm): %v", err)
	}
	if u1 != u2 {
		t.Fatalf("undirected projection of a mapped graph was rebuilt on the second query")
	}
	if u1.NumNodes() != mg.NumNodes() {
		t.Fatalf("projection has %d nodes, image %d", u1.NumNodes(), mg.NumNodes())
	}

	if ws.MappedBytes() != mg.Bytes() {
		t.Fatalf("MappedBytes() = %d, want %d", ws.MappedBytes(), mg.Bytes())
	}

	// Mutating accessors must reject the read-only tier by kind.
	if _, err := ws.Graph("m"); err == nil {
		t.Fatalf("Graph() handed out a mutable handle to a mapped graph")
	}

	// Snapshots exclude mapped bindings with a pointed error.
	var buf bytes.Buffer
	err = ws.Snapshot(&buf)
	if err == nil || !strings.Contains(err.Error(), "mapped graph") {
		t.Fatalf("Snapshot err = %v, want mapped-graph rejection", err)
	}
}

func TestWorkspaceMappedUndirectedBinding(t *testing.T) {
	u := graph.BuildUView(gen.BarabasiAlbert(200, 3, 5))
	path := filepath.Join(t.TempDir(), "u.rngm")
	if err := extmem.SaveMappedUndirected(path, u); err != nil {
		t.Fatalf("SaveMappedUndirected: %v", err)
	}
	mg, err := extmem.Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer mg.Close()

	ws := NewWorkspace()
	ws.Set("mu", Object{Mapped: mg})
	uv, err := ws.UndirectedView("mu")
	if err != nil {
		t.Fatalf("UndirectedView: %v", err)
	}
	if uv != mg.UView() {
		t.Fatalf("UndirectedView did not serve the mapped view in place")
	}
	if _, err := ws.DirectedView("mu"); err == nil {
		t.Fatalf("DirectedView served an undirected mapped image")
	}
}

func TestExtMemReportSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and times a dataset")
	}
	r, err := ExtMem(LJSim(0.001))
	if err != nil {
		t.Fatalf("ExtMem: %v", err)
	}
	if len(r.Rows) < 3 {
		t.Fatalf("ExtMem report has %d rows", len(r.Rows))
	}
}

// restoreFixture builds a ≥1M-edge graph once per benchmark run and lays
// down both warm-start artifacts: the RNGS workspace snapshot (decode
// path) and the RNGM image (map path).
func restoreFixture(b *testing.B) (snapPath, mapPath string) {
	b.Helper()
	g := gen.GNM(200_000, 1_000_000, 77)
	dir := b.TempDir()
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g})
	snapPath = filepath.Join(dir, "ws.rngs")
	if err := ws.SnapshotFile(snapPath); err != nil {
		b.Fatalf("SnapshotFile: %v", err)
	}
	mapPath = filepath.Join(dir, "g.rngm")
	if err := extmem.SaveMapped(mapPath, graph.BuildView(g)); err != nil {
		b.Fatalf("SaveMapped: %v", err)
	}
	return snapPath, mapPath
}

// BenchmarkRestoreDecode is the warm-start baseline: decode the RNGS
// snapshot, rebuilding every adjacency vector and hash map on the heap.
func BenchmarkRestoreDecode(b *testing.B) {
	snapPath, _ := restoreFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ws := NewWorkspace()
		if err := ws.RestoreFile(snapPath); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRestoreMapped is the beyond-RAM warm start: validate and map
// the RNGM image, serving a queryable view with no decode. Compare against
// BenchmarkRestoreDecode on the same 1M-edge graph.
func BenchmarkRestoreMapped(b *testing.B) {
	_, mapPath := restoreFixture(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mg, err := extmem.Open(mapPath)
		if err != nil {
			b.Fatal(err)
		}
		if mg.View().NumNodes() == 0 {
			b.Fatal("empty view")
		}
		mg.Close()
	}
}
