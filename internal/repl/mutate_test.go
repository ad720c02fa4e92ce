package repl

import (
	"strings"
	"testing"
)

// TestMutationVerbs drives the addedge/deledge/addnode surface end to
// end: golden messages, no-op phrasing, delta-log visibility, and the
// view-patching effect on a later analytics query.
func TestMutationVerbs(t *testing.T) {
	e := New(nil)
	evalAll(t, e,
		"gen rmat E 6 120 7",
		"tograph G E src dst",
		"algo G wcc", // warms the directed view
	)
	steps := []struct {
		cmd  string
		want string
	}{
		{"addedge G 1000 1001", "G: added edge 1000 -> 1001 (1 pending deltas)"},
		{"addedge G 1000 1001", "G: edge 1000 -> 1001 already present"},
		{"deledge G 1000 1001", "G: deleted edge 1000 -> 1001 (2 pending deltas)"},
		{"deledge G 1000 1001", "G: no edge 1000 -> 1001"},
		{"addnode G 2000", "G: added node 2000 (3 pending deltas)"},
		{"addnode G 2000", "G: node 2000 already present"},
	}
	for _, s := range steps {
		r, err := e.Eval(s.cmd)
		if err != nil {
			t.Fatalf("Eval(%q): %v", s.cmd, err)
		}
		if r.Message != s.want {
			t.Errorf("Eval(%q) message = %q, want %q", s.cmd, r.Message, s.want)
		}
		if r.Bound != "G" || r.Kind != "graph" {
			t.Errorf("Eval(%q) bound %q kind %q, want G/graph", s.cmd, r.Bound, r.Kind)
		}
	}

	// The warmed view must have been patched, not rebuilt, on requery.
	p0, _ := e.Workspace().PatchStats()
	evalAll(t, e, "algo G wcc")
	if p1, _ := e.Workspace().PatchStats(); p1 != p0+1 {
		t.Fatalf("query after small mutations should patch: patches %d -> %d", p0, p1)
	}
}

// TestNoOpMutationKeepsResultCache pins a feature: a mutation verb that
// changes nothing (edge already present / absent, node already present)
// leaves the graph's fingerprint alone, so results cached against it keep
// being served.
func TestNoOpMutationKeepsResultCache(t *testing.T) {
	e := New(nil)
	cache := newCountingCache()
	e.SetCache(cache)
	evalAll(t, e, "gen rmat E 6 120 7", "tograph G E src dst", "addedge G 1000 1001")
	if r := evalAll(t, e, "pagerank PR G"); r.Cached {
		t.Fatal("first pagerank reported cached")
	}
	fp, _ := e.Workspace().Fingerprint("G")
	for _, noop := range []string{"addedge G 1000 1001", "deledge G 1001 1000", "addnode G 1000"} {
		evalAll(t, e, noop)
		if got, _ := e.Workspace().Fingerprint("G"); got != fp {
			t.Fatalf("%q moved the fingerprint %s -> %s", noop, fp, got)
		}
		if r := evalAll(t, e, "pagerank PR2 G"); !r.Cached {
			t.Fatalf("pagerank after no-op %q was recomputed", noop)
		}
	}
	// A mutation that does change the graph still invalidates.
	evalAll(t, e, "deledge G 1000 1001")
	if r := evalAll(t, e, "pagerank PR3 G"); r.Cached {
		t.Fatal("pagerank after a real deledge served the stale result")
	}
}

// TestMutationVerbErrors pins the error surface.
func TestMutationVerbErrors(t *testing.T) {
	e := New(nil)
	evalAll(t, e, "gen rmat E 6 120 7")
	for _, cmd := range []string{
		"addedge",                        // usage
		"addedge G 1",                    // usage
		"addedge NOPE 1 2",               // unknown binding
		"addedge E 1 2",                  // not a graph
		"addedge G x 2",                  // bad id (checked before binding lookup)
		"deledge G 1 y",                  // bad id
		"addnode G zzz",                  // bad id
		"addnode G -9223372036854775808", // reserved sentinel id
	} {
		if _, err := e.Eval(cmd); err == nil {
			t.Errorf("Eval(%q): expected error", cmd)
		}
	}
	// All three verbs must be marked mutating so hosts serialize them.
	for _, v := range []string{"addedge G 1 2", "deledge G 1 2", "addnode G 1"} {
		if ReadOnly(v) {
			t.Errorf("ReadOnly(%q) = true, want false", v)
		}
	}
}

// TestMutationVerbUndirected checks the verbs work on undirected bindings
// (as a snapshot restores them).
func TestMutationVerbUndirected(t *testing.T) {
	e := New(nil)
	if _, err := e.Eval("gen rmat E 6 120 7"); err != nil {
		t.Fatal(err)
	}
	// No verb binds a ugraph directly; set one through the workspace.
	evalAll(t, e, "tograph G E src dst")
	r, err := e.Eval("addedge G 5000 5000")
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Message, "added edge 5000 -> 5000") {
		t.Fatalf("self-loop add message: %q", r.Message)
	}
}
