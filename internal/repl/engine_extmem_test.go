package repl

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ringo/internal/core"
	"ringo/internal/graph"
)

// TestSaveMapGraphRoundTrip drives the mapped tier end to end through the
// verb language: generate, convert, save as RNGM, map it back as a
// read-only binding, and check analytics agree with the heap graph.
func TestSaveMapGraphRoundTrip(t *testing.T) {
	e := New(nil)
	mustEval := func(line string) *Result {
		t.Helper()
		r, err := e.Eval(line)
		if err != nil {
			t.Fatalf("%s: %v", line, err)
		}
		return r
	}

	mustEval("gen rmat t 8 2000 3")
	mustEval("tograph g t src dst")
	path := filepath.Join(t.TempDir(), "g.rngm")
	mustEval("save g " + path)

	r := mustEval(fmt.Sprintf("mapgraph m %s", path))
	if r.Kind != "mgraph" {
		t.Fatalf("mapgraph bound kind %q, want mgraph", r.Kind)
	}
	if !strings.Contains(r.Message, "mapped directed") {
		t.Fatalf("mapgraph message %q does not describe the mapped load", r.Message)
	}

	// Analytics over the mapped binding must agree with the heap graph.
	heap := mustEval("algo g wcc")
	mapped := mustEval("algo m wcc")
	if heap.Message != mapped.Message {
		t.Fatalf("wcc over mapped graph %q differs from heap graph %q", mapped.Message, heap.Message)
	}
	prHeap := mustEval("pagerank ph g")
	prMapped := mustEval("pagerank pm m")
	if prHeap.Message[strings.Index(prHeap.Message, ":"):] != prMapped.Message[strings.Index(prMapped.Message, ":"):] {
		t.Fatalf("pagerank summaries diverge: %q vs %q", prHeap.Message, prMapped.Message)
	}

	// The read-only tier: graph-mutating verbs and snapshots reject it.
	if _, err := e.Eval("addedge m 1 2"); err == nil || !strings.Contains(err.Error(), "read-only") {
		t.Fatalf("addedge err = %v, want read-only rejection", err)
	}
	if _, err := e.Eval("snapshot " + filepath.Join(t.TempDir(), "ws.rngs")); err == nil || !strings.Contains(err.Error(), "mapped graph") {
		t.Fatalf("snapshot err = %v, want mapped-binding rejection", err)
	}

	// Re-exporting a mapped binding writes the same image.
	path2 := filepath.Join(t.TempDir(), "g2.rngm")
	mustEval("save m " + path2)
	if a, b := readFile(t, path), readFile(t, path2); !bytes.Equal(a, b) {
		t.Fatalf("save of the mapped binding wrote %d bytes, the heap graph's image has %d", len(b), len(a))
	}
	r2 := mustEval("mapgraph m2 " + path2)
	if r2.Kind != "mgraph" {
		t.Fatalf("re-exported image bound kind %q", r2.Kind)
	}

	// An undirected image maps too, and a file that is no image is
	// refused by name.
	upath := filepath.Join(t.TempDir(), "u.rngm")
	e.Workspace().Set("u", core.Object{UView: graph.ProjectUView(mustView(t, e, "g"))})
	mustEval("save u " + upath)
	if r := mustEval("mapgraph mu " + upath); r.Kind != "mgraph" || !strings.Contains(r.Message, "mapped undirected") {
		t.Fatalf("mapgraph of an undirected image: kind %q, message %q", r.Kind, r.Message)
	}
	text := filepath.Join(t.TempDir(), "g.txt")
	if err := os.WriteFile(text, []byte("1 2\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("mapgraph mt " + text); err == nil || !strings.Contains(err.Error(), "not an RNGM graph image") {
		t.Fatalf("mapgraph of a text edge list: error %v", err)
	}
}

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func mustView(t *testing.T, e *Engine, name string) *graph.View {
	t.Helper()
	v, err := e.Workspace().DirectedView(name)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// TestToTableOfMappedGraph: totable walks a directed mapped graph's view
// as it walks a heap binding's, so the two edge tables are equal.
func TestToTableOfMappedGraph(t *testing.T) {
	e := New(nil)
	path := filepath.Join(t.TempDir(), "g.rngm")
	for _, line := range []string{"gen rmat t 8 2000 3", "tograph g t src dst", "save g " + path,
		"mapgraph m " + path, "totable tg g", "totable tm m"} {
		if _, err := e.Eval(line); err != nil {
			t.Fatalf("%s: %v", line, err)
		}
	}
	heap, err := e.Workspace().Table("tg")
	if err != nil {
		t.Fatal(err)
	}
	mapped, err := e.Workspace().Table("tm")
	if err != nil {
		t.Fatal(err)
	}
	if v := mustView(t, e, "g"); int64(heap.NumRows()) != v.NumEdges() || mapped.NumRows() != heap.NumRows() {
		t.Fatalf("totable rows: heap %d, mapped %d", heap.NumRows(), mapped.NumRows())
	}
	for _, col := range []string{"src", "dst"} {
		h, _ := heap.IntCol(col)
		m, _ := mapped.IntCol(col)
		if !slices.Equal(h, m) {
			t.Fatalf("totable column %s of the mapped graph differs from the heap graph's", col)
		}
	}
}

// TestSaveRejectsScores: save writes tables and graphs only, and points
// at snapshot for the rest.
func TestSaveRejectsScores(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat t 6 100 1", "tograph g t src dst", "pagerank pr g")
	_, err := e.Eval("save pr " + filepath.Join(t.TempDir(), "pr"))
	if err == nil || !strings.Contains(err.Error(), "save handles tables and graphs") {
		t.Fatalf("err = %v, want kind rejection", err)
	}
}
