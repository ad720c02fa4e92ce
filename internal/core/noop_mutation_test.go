package core

import (
	"slices"
	"testing"

	"ringo/internal/graph"
)

// TestNoOpMutationLeavesBindingUntouched pins a feature, not an accident: a
// mutation that changes nothing (edge already present, edge or node
// already absent / present) is not a new state of the graph, so the
// binding keeps its version, fingerprint and delta log, and everything
// cached against that fingerprint keeps hitting.
func TestNoOpMutationLeavesBindingUntouched(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, (i+1)%10)
	}
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g})
	if ok, err := ws.AddGraphEdge("g", 0, 5); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	v, err := ws.DirectedView("g")
	if err != nil {
		t.Fatal(err)
	}
	fp, _ := ws.Fingerprint("g")
	pending := ws.PendingDeltas("g")
	hits, misses, _, _ := ws.ViewCacheStats()
	patches, rebuilds := ws.PatchStats()

	for name, mutate := range map[string]func() (bool, error){
		"addedge of a present edge": func() (bool, error) { return ws.AddGraphEdge("g", 0, 5) },
		"deledge of an absent edge": func() (bool, error) { return ws.DelGraphEdge("g", 5, 0) },
		"addnode of a present node": func() (bool, error) { return ws.AddGraphNode("g", 3) },
	} {
		if changed, err := mutate(); err != nil || changed {
			t.Fatalf("%s: changed=%v err=%v, want a no-op", name, changed, err)
		}
		if got, _ := ws.Fingerprint("g"); got != fp {
			t.Fatalf("%s moved the fingerprint %s -> %s", name, fp, got)
		}
		if got := ws.PendingDeltas("g"); !slices.Equal(got, pending) {
			t.Fatalf("%s changed the delta log: %v -> %v", name, pending, got)
		}
		v2, err := ws.DirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		hits++
		if v2 != v {
			t.Fatalf("%s: the next DirectedView is a different view", name)
		}
		if h, m, _, _ := ws.ViewCacheStats(); h != hits || m != misses {
			t.Fatalf("%s: view cache %d hits %d misses, want %d and %d", name, h, m, hits, misses)
		}
		if p, r := ws.PatchStats(); p != patches || r != rebuilds {
			t.Fatalf("%s: next view was patched or rebuilt (%d/%d -> %d/%d)", name, patches, rebuilds, p, r)
		}
	}
}
