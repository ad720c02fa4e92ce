package repl

import (
	"fmt"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// TestSaveMappedLoadGraphRoundTrip drives the mapped tier end to end
// through the verb language: generate, convert, save as RNGM, load it back
// as a mapped binding, and check analytics agree with the heap graph.
func TestSaveMappedLoadGraphRoundTrip(t *testing.T) {
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
	mustEval("savemapped g " + path)

	r := mustEval(fmt.Sprintf("loadgraph m %s", path))
	if r.Kind != "mgraph" {
		t.Fatalf("loadgraph bound kind %q, want mgraph", r.Kind)
	}
	if !strings.Contains(r.Message, "mapped directed") {
		t.Fatalf("loadgraph message %q does not describe the mapped load", r.Message)
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

	// Re-exporting a mapped binding writes a byte-stable image.
	path2 := filepath.Join(t.TempDir(), "g2.rngm")
	mustEval("savemapped m " + path2)
	r2 := mustEval("loadgraph m2 " + path2)
	if r2.Kind != "mgraph" {
		t.Fatalf("re-exported image bound kind %q", r2.Kind)
	}
}

// TestToTableOfMappedGraph: totable walks a directed mapped graph's view
// as it walks a heap binding's, so the two edge tables are equal.
func TestToTableOfMappedGraph(t *testing.T) {
	e := New(nil)
	path := filepath.Join(t.TempDir(), "g.rngm")
	for _, line := range []string{"gen rmat t 8 2000 3", "tograph g t src dst", "savemapped g " + path,
		"loadgraph m " + path, "totable tg g", "totable tm m"} {
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
	v, err := e.Workspace().DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	if int64(heap.NumRows()) != v.NumEdges() || mapped.NumRows() != heap.NumRows() {
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

func TestSaveMappedRejectsNonGraphs(t *testing.T) {
	e := New(nil)
	if _, err := e.Eval("gen rmat t 6 100 1"); err != nil {
		t.Fatal(err)
	}
	_, err := e.Eval("savemapped t " + filepath.Join(t.TempDir(), "t.rngm"))
	if err == nil || !strings.Contains(err.Error(), "savemapped handles graphs") {
		t.Fatalf("err = %v, want kind rejection", err)
	}
}
