package core

import (
	"fmt"
	"slices"
	"sync"
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

// TestFrozenBindingThawsOnlyOnChange: on a frozen binding (Object.View) a
// mutation that changes nothing keeps the binding frozen at its version,
// and one that changes the graph thaws it into the equal hash graph plus
// the mutation.
func TestFrozenBindingThawsOnlyOnChange(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 10; i++ {
		g.AddEdge(i, (i+1)%10)
	}
	for _, c := range []struct {
		name    string
		mutate  func(ws *Workspace) (bool, error)
		changed bool
	}{
		{"addedge of a present edge", func(ws *Workspace) (bool, error) { return ws.AddGraphEdge("g", 0, 1) }, false},
		{"deledge of an absent edge", func(ws *Workspace) (bool, error) { return ws.DelGraphEdge("g", 1, 0) }, false},
		{"deledge with an absent endpoint", func(ws *Workspace) (bool, error) { return ws.DelGraphEdge("g", 1, 99) }, false},
		{"addnode of a present node", func(ws *Workspace) (bool, error) { return ws.AddGraphNode("g", 3) }, false},
		{"addedge of a new edge", func(ws *Workspace) (bool, error) { return ws.AddGraphEdge("g", 1, 0) }, true},
		{"addedge to a new node", func(ws *Workspace) (bool, error) { return ws.AddGraphEdge("g", 1, 99) }, true},
		{"deledge of a present edge", func(ws *Workspace) (bool, error) { return ws.DelGraphEdge("g", 0, 1) }, true},
		{"addnode of a new node", func(ws *Workspace) (bool, error) { return ws.AddGraphNode("g", 42) }, true},
	} {
		ws := NewWorkspace()
		ws.Set("g", Object{View: graph.BuildView(g)})
		fp, _ := ws.Fingerprint("g")
		changed, err := c.mutate(ws)
		if err != nil || changed != c.changed {
			t.Fatalf("%s: changed=%v err=%v, want changed=%v", c.name, changed, err, c.changed)
		}
		o, _ := ws.Get("g")
		got, _ := ws.Fingerprint("g")
		if frozen := o.View != nil && o.Graph == nil; frozen == changed || (got == fp) == changed {
			t.Fatalf("%s: frozen %v, fingerprint %s -> %s", c.name, frozen, fp, got)
		}
		if !changed {
			continue
		}
		ref := NewWorkspace()
		ref.Set("g", Object{Graph: g.Clone()})
		c.mutate(ref)
		want, _ := ref.Graph("g")
		if err := validDirected(o.Graph); err != nil {
			t.Fatalf("%s: thawed graph: %v", c.name, err)
		}
		if !slices.Equal(o.Graph.Nodes(), want.Nodes()) || o.Graph.NumEdges() != want.NumEdges() {
			t.Fatalf("%s: thawed graph differs from the mutated hash graph", c.name)
		}
		for _, id := range want.Nodes() {
			if !slices.Equal(o.Graph.OutNeighbors(id), want.OutNeighbors(id)) {
				t.Fatalf("%s: out-neighbors of %d differ", c.name, id)
			}
		}
	}
}

// TestConcurrentFirstMutationsThawOnce: mutations racing to be a frozen
// binding's first each thaw outside the workspace lock, but exactly one
// thaw is bound, the frozen view is cached once as the patch base, and
// every mutation lands on the one hash graph.
func TestConcurrentFirstMutationsThawOnce(t *testing.T) {
	g := graph.NewDirected()
	for i := int64(0); i < 200; i++ {
		g.AddEdge(i, (i*7+1)%200)
	}
	ws := NewWorkspace()
	v := graph.BuildView(g)
	ws.Set("g", Object{View: v})
	ver, _ := ws.Version("g")
	const writers = 8
	var wg sync.WaitGroup
	wg.Add(writers)
	for i := int64(0); i < writers; i++ {
		go func() {
			defer wg.Done()
			if ok, err := ws.AddGraphEdge("g", 1000+i, i); err != nil || !ok {
				t.Errorf("AddGraphEdge(%d): ok=%v err=%v", 1000+i, ok, err)
			}
		}()
	}
	wg.Wait()
	o, _ := ws.Get("g")
	if o.Graph == nil || o.View != nil {
		t.Fatal("binding not thawed")
	}
	if o.Graph.NumEdges() != g.NumEdges()+writers {
		t.Fatalf("edges = %d, want %d", o.Graph.NumEdges(), g.NumEdges()+writers)
	}
	if now, _ := ws.Version("g"); now != ver+writers {
		t.Fatalf("version %d -> %d, want +%d", ver, now, writers)
	}
	if base, ok := ws.views.Peek(viewKey{name: "g", ver: ver}); !ok || base.dir != v {
		t.Fatal("the frozen view is not cached at the pre-mutation version")
	}
	if _, _, entries, _ := ws.ViewCacheStats(); entries != 1 {
		t.Fatalf("view cache holds %d entries, want the one base", entries)
	}
}

// validDirected holds g's adjacency vectors to the graph its own edge list
// builds: BuildView translates the out- and in-vectors as stored, while
// BuildViewCols sorts, deduplicates and transposes the out-edges, so the
// two views agree only when every vector is sorted and duplicate-free, the
// in-vectors mirror the out-vectors and the edge count is right.
func validDirected(g *graph.Directed) error {
	var srcs, dsts []int64
	g.ForEdges(func(s, d int64) {
		srcs, dsts = append(srcs, s), append(dsts, d)
	})
	want, err := graph.BuildViewCols(srcs, dsts, g.Nodes())
	if err != nil {
		return err
	}
	ids, outOff, inOff, out, in := graph.BuildView(g).ViewParts()
	wids, wOutOff, wInOff, wOut, wIn := want.ViewParts()
	if !slices.Equal(ids, wids) || !slices.Equal(outOff, wOutOff) || !slices.Equal(inOff, wInOff) ||
		!slices.Equal(out, wOut) || !slices.Equal(in, wIn) || g.NumEdges() != int64(len(srcs)) {
		return fmt.Errorf("graph of %d nodes, %d edges differs from the graph its edges build", g.NumNodes(), g.NumEdges())
	}
	return nil
}
