package core

import (
	"slices"
	"sync"
	"testing"

	"ringo/internal/graph"
)

// TestNoOpMutationLeavesBindingUntouched pins a feature, not an accident: a
// mutation that changes nothing (edge already present, edge or node
// already absent / present) is not a new state of the graph, so the
// binding keeps its version, fingerprint, delta log and view, and
// everything cached against that fingerprint keeps hitting.
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
	uv, err := ws.UndirectedView("g")
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
		if v2, err := ws.DirectedView("g"); err != nil || v2 != v {
			t.Fatalf("%s: the next DirectedView is a different view (err %v)", name, err)
		}
		uv2, err := ws.UndirectedView("g")
		if err != nil {
			t.Fatal(err)
		}
		hits++
		if uv2 != uv {
			t.Fatalf("%s: the next UndirectedView is a different view", name)
		}
		if h, m, _, _ := ws.ViewCacheStats(); h != hits || m != misses {
			t.Fatalf("%s: view cache %d hits %d misses, want %d and %d", name, h, m, hits, misses)
		}
		if p, r := ws.PatchStats(); p != patches || r != rebuilds {
			t.Fatalf("%s: next view was patched or rebuilt (%d/%d -> %d/%d)", name, patches, rebuilds, p, r)
		}
	}
}

// TestFrozenBindingThawsOnlyOnChange: on a binding set as its view, a
// mutation that changes nothing leaves the view, version and log alone,
// and one that changes the graph is logged, moves the fingerprint and is
// folded into the view by the next read — one patch, a view equal to
// BuildView of the mutated hash graph — while the binding stays a CSR
// view throughout: nothing thaws it into a hash graph.
func TestFrozenBindingThawsOnlyOnChange(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, (i+1)%10)
	}
	for _, c := range []struct {
		name    string
		d       graph.Delta
		changed bool
	}{
		{"addedge of a present edge", graph.Delta{Op: graph.DeltaAddEdge, Src: 0, Dst: 1}, false},
		{"deledge of an absent edge", graph.Delta{Op: graph.DeltaDelEdge, Src: 1, Dst: 0}, false},
		{"deledge with an absent endpoint", graph.Delta{Op: graph.DeltaDelEdge, Src: 1, Dst: 99}, false},
		{"addnode of a present node", graph.Delta{Op: graph.DeltaAddNode, Src: 3}, false},
		{"addedge of a new edge", graph.Delta{Op: graph.DeltaAddEdge, Src: 1, Dst: 0}, true},
		{"addedge to a new node", graph.Delta{Op: graph.DeltaAddEdge, Src: 1, Dst: 99}, true},
		{"deledge of a present edge", graph.Delta{Op: graph.DeltaDelEdge, Src: 0, Dst: 1}, true},
		{"addnode of a new node", graph.Delta{Op: graph.DeltaAddNode, Src: 42}, true},
	} {
		ws := NewWorkspace()
		v := graph.BuildView(g)
		ws.Set("g", Object{View: v})
		fp, _ := ws.Fingerprint("g")
		changed, err := ws.mutateGraph("g", c.d)
		if err != nil || changed != c.changed {
			t.Fatalf("%s: changed=%v err=%v, want changed=%v", c.name, changed, err, c.changed)
		}
		if got, _ := ws.Fingerprint("g"); (got == fp) == changed {
			t.Fatalf("%s: fingerprint %s -> %s", c.name, fp, got)
		}
		if n := len(ws.PendingDeltas("g")); (n == 1) != changed {
			t.Fatalf("%s: %d deltas logged", c.name, n)
		}
		o, _ := ws.Get("g")
		if o.Graph != nil || o.View == nil || (o.View == v) == changed {
			t.Fatalf("%s: bound %+v, want a folded view only after a change", c.name, o)
		}
		if p, r := ws.PatchStats(); p > 1 || (p == 1) != changed || r != 0 {
			t.Fatalf("%s: patches/rebuilds %d/%d", c.name, p, r)
		}
		want := graph.NewDirected()
		g.ForNodes(func(id int64) { want.AddNode(id) })
		g.ForEdges(func(s, d int64) { want.AddEdge(s, d) })
		switch c.d.Op {
		case graph.DeltaAddNode:
			want.AddNode(c.d.Src)
		case graph.DeltaAddEdge:
			want.AddEdge(c.d.Src, c.d.Dst)
		default:
			delEdge(want, c.d.Src, c.d.Dst)
		}
		sameViewT(t, c.name, o.View, graph.BuildView(want))
	}
}

// TestConcurrentFirstMutationsThawOnce: mutations racing to be a view
// binding's first each land once without thawing it, and readers racing
// to be the first after them fold the pending deltas exactly once and all
// read the one folded view, which is BuildView of the mutated graph.
func TestConcurrentFirstMutationsThawOnce(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 200; i++ {
		g.AddEdge(i, (i*7+1)%200)
	}
	ws := NewWorkspace()
	ws.Set("g", Object{View: graph.BuildView(g)})
	ver, _ := ws.Version("g")
	const writers, readers = 8, 8
	var wg sync.WaitGroup
	wg.Add(writers)
	for i := int64(0); i < writers; i++ {
		go func() {
			defer wg.Done()
			if ok, err := ws.AddGraphEdge("g", 1000+i, i); err != nil || !ok {
				t.Errorf("AddGraphEdge(%d): ok=%v err=%v", 1000+i, ok, err)
			}
		}()
		g.AddEdge(1000+i, i)
	}
	wg.Wait()
	if now, _ := ws.Version("g"); now != ver+writers {
		t.Fatalf("version %d -> %d, want +%d", ver, now, writers)
	}
	views := make([]*graph.View, readers)
	wg.Add(readers)
	for r := range views {
		go func() {
			defer wg.Done()
			var err error
			if views[r], err = ws.DirectedView("g"); err != nil {
				t.Error(err)
			}
		}()
	}
	wg.Wait()
	for _, v := range views[1:] {
		if v != views[0] {
			t.Fatal("concurrent first readers got different views")
		}
	}
	sameViewT(t, "folded", views[0], graph.BuildView(g))
	if p, r := ws.PatchStats(); p != 1 || r != 0 {
		t.Fatalf("patches/rebuilds %d/%d, want one fold", p, r)
	}
	if now, _ := ws.Version("g"); now != ver+writers {
		t.Fatalf("the fold moved the version to %d, want %d", now, ver+writers)
	}
}
