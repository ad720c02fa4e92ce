package ringo_test

import (
	"bytes"
	"net/http/httptest"
	"testing"

	"ringo"
	"ringo/internal/core"
	"ringo/internal/graph"
)

// TestSnapshotFacade round-trips a full workspace — table with strings,
// directed graph, undirected graph, score vector — through the re-exported
// snapshot API, checking fingerprints are reproduced.
func TestSnapshotFacade(t *testing.T) {
	ws := ringo.NewWorkspace()
	eng := ringo.NewEngine(ws)
	for _, cmd := range []string{"gen posts P 40", "gen rmat E 7 100 2", "tograph G E src dst", "pagerank PR G"} {
		if _, err := eng.Eval(cmd); err != nil {
			t.Fatalf("Eval(%q): %v", cmd, err)
		}
	}
	u, err := ringo.ToUGraph(mustTable(t, ws, "E"), "src", "dst")
	if err != nil {
		t.Fatal(err)
	}
	ws.SetWithProvenance("U", core.Object{UView: graph.BuildUView(u)}, "tougraph U E src dst")

	var buf bytes.Buffer
	if err := ringo.SnapshotWorkspace(ws, &buf); err != nil {
		t.Fatal(err)
	}
	back, err := ringo.RestoreWorkspace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	names := back.Names()
	if len(names) != 5 {
		t.Fatalf("restored %d objects: %v", len(names), names)
	}
	for _, name := range names {
		wantFP, _ := ws.Fingerprint(name)
		gotFP, ok := back.Fingerprint(name)
		if !ok || gotFP != wantFP {
			t.Fatalf("fingerprint(%s) = %q, want %q", name, gotFP, wantFP)
		}
		if back.Provenance(name) != ws.Provenance(name) {
			t.Fatalf("provenance(%s) changed", name)
		}
	}
	// The restored engine keeps working: analytics over restored objects.
	eng2 := ringo.NewEngine(back)
	if _, err := eng2.Eval("algo G wcc"); err != nil {
		t.Fatal(err)
	}
}

func mustTable(t *testing.T, ws *ringo.Workspace, name string) *ringo.Table {
	t.Helper()
	tbl, err := ws.Table(name)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

// TestEngineAndServerFacade exercises the interactive-engine re-exports:
// a workspace-backed evaluator and the HTTP server constructor.
func TestEngineAndServerFacade(t *testing.T) {
	ws := ringo.NewWorkspace()
	eng := ringo.NewEngine(ws)
	for _, cmd := range []string{"gen rmat E 7 100 2", "tograph G E src dst", "pagerank PR G"} {
		if _, err := eng.Eval(cmd); err != nil {
			t.Fatalf("Eval(%q): %v", cmd, err)
		}
	}
	if eng.Workspace() != ws {
		t.Fatal("engine not backed by the provided workspace")
	}
	fp, ok := ws.Fingerprint("G")
	if !ok || fp == "" {
		t.Fatalf("Fingerprint(G) = %q, %v", fp, ok)
	}
	if err := ws.Rename("PR", "Ranks"); err != nil {
		t.Fatal(err)
	}
	if !ws.Delete("Ranks") {
		t.Fatal("Delete(Ranks) = false")
	}

	srv := ringo.NewServer(ringo.ServerConfig{CacheSize: 8, Workers: 1})
	defer srv.Close()
	ts := httptest.NewServer(srv)
	defer ts.Close()
	id, err := srv.CreateSession("")
	if err != nil {
		t.Fatal(err)
	}
	r, err := srv.Eval(id, "gen rmat E 6 30 1")
	if err != nil {
		t.Fatal(err)
	}
	if r.Message != "E: 30 rows" {
		t.Fatalf("server eval message = %q", r.Message)
	}
}
