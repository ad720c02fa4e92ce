package core

import (
	"bytes"
	"path/filepath"
	"strings"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/extmem"
	"ringo/internal/gen"
	"ringo/internal/graph"
)

func openMappedTestGraph(t testing.TB, v *graph.View) *extmem.Graph {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(path, v); err != nil {
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
	// A mapped view is served in place: no projection held, no bytes.
	_, _, entries, _ := ws.ViewCacheStats()
	if entries != 0 {
		t.Fatalf("mapped DirectedView left %d projections held", entries)
	}

	// The undirected projection is a heap materialization the binding
	// holds.
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
	u := gen.BarabasiAlbert(200, 3, 5)
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

// BenchmarkRestoreDecode is the warm-start baseline: restore an RNGS
// snapshot file into a fresh workspace — read each record, verify its
// checksum, decode a table column by column and validate a graph's CSR
// arrays in place. gnm-1M is one 1M-edge graph; warm-read is the session
// the warm-read workload restores: an R-MAT scale-16 edge table of 400K
// rows, the graph tograph builds from it and that graph's PageRank.
func BenchmarkRestoreDecode(b *testing.B) {
	for _, c := range []struct {
		name string
		ws   func(b *testing.B) *Workspace
	}{
		{"gnm-1M", func(b *testing.B) *Workspace {
			ws := NewWorkspace()
			ws.Set("g", Object{View: gen.GNM(200_000, 1_000_000, 77)})
			return ws
		}},
		{"warm-read", func(b *testing.B) *Workspace {
			t := gen.RMATTable(16, 400_000, 1)
			v, err := conv.ToView(t, "src", "dst")
			if err != nil {
				b.Fatal(err)
			}
			ws := NewWorkspace()
			ws.Set("E", Object{Table: t})
			ws.Set("G", Object{View: v})
			ws.Set("PR", Object{Scores: algo.PageRankView(v, algo.DefaultDamping, 10)})
			return ws
		}},
	} {
		b.Run(c.name, func(b *testing.B) {
			path := filepath.Join(b.TempDir(), "ws.rngs")
			if err := c.ws(b).SnapshotFile(path); err != nil {
				b.Fatalf("SnapshotFile: %v", err)
			}
			b.ResetTimer()
			for range b.N {
				if err := NewWorkspace().RestoreFile(path); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkRestoreMapped is the beyond-RAM warm start: validate and map
// the RNGM image, serving a queryable view with no decode. Compare against
// BenchmarkRestoreDecode/gnm-1M, the same graph.
func BenchmarkRestoreMapped(b *testing.B) {
	mapPath := filepath.Join(b.TempDir(), "g.rngm")
	if err := extmem.SaveMapped(mapPath, gen.GNM(200_000, 1_000_000, 77)); err != nil {
		b.Fatalf("SaveMapped: %v", err)
	}
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
