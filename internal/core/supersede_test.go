package core

import (
	"math/rand"
	"testing"

	"ringo/internal/graph"
)

// residentViews lists the view cache's keys without touching recency or
// counters.
func residentViews(ws *Workspace) []viewKey {
	var keys []viewKey
	ws.views.DeleteFunc(func(k viewKey) bool {
		keys = append(keys, k)
		return false
	})
	return keys
}

// supersedeSequence drives one graph binding through a seeded mix of
// delta-logged mutation batches, wholesale touches and directed or
// undirected queries, checking after every undirected fill that no view at
// a lower version is resident — so the binding never holds more than one
// cached view. It returns the patch and rebuild counts.
func supersedeSequence(t *testing.T, seed int64, ratio float64) (patches, rebuilds uint64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ws := NewWorkspace()
	ws.patchRatio = ratio
	ws.Set("g", Object{View: graph.BuildView(testGraph(60, 240, seed))})
	query := func(undir bool) {
		var err error
		if undir {
			_, err = ws.UndirectedView("g")
		} else {
			_, err = ws.DirectedView("g")
		}
		if err != nil {
			t.Fatal(err)
		}
		ver, _ := ws.Version("g")
		for _, k := range residentViews(ws) {
			if undir && k.ver < ver {
				t.Fatalf("seed %d: view %+v resident after a fill at version %d", seed, k, ver)
			}
		}
	}
	for step := 0; step < 80; step++ {
		if rng.Intn(20) == 0 {
			ws.Touch("g")
		}
		for i := 0; i < 1+rng.Intn(12); i++ {
			s, d := rng.Int63n(70), rng.Int63n(70)
			switch rng.Intn(5) {
			case 0:
				ws.AddGraphNode("g", s)
			case 1:
				ws.DelGraphEdge("g", s, d)
			default:
				ws.AddGraphEdge("g", s, d)
			}
		}
		switch rng.Intn(4) {
		case 0:
			query(false)
		case 1:
			query(true)
		case 2:
			query(false)
			query(true)
		}
		if n := len(residentViews(ws)); n > 1 {
			t.Fatalf("seed %d step %d: %d views resident for one binding", seed, step, n)
		}
	}
	return ws.PatchStats()
}

// TestFillSupersedesOlderViews holds the supersede rule to its two
// promises on single-binding sequences: no superseded view stays resident,
// and no patch is lost — the patch and rebuild counts are the ones a view
// cache that keeps every superseded view until eviction reaches on the
// same sequences.
func TestFillSupersedesOlderViews(t *testing.T) {
	for _, tc := range []struct {
		seed              int64
		ratio             float64
		patches, rebuilds uint64
	}{
		{1, DefaultPatchRatio, 96, 5},
		{2, DefaultPatchRatio, 103, 4},
		{3, 0.02, 78, 13},
		{4, 0.02, 83, 10},
		{5, 0.05, 101, 4},
	} {
		p, r := supersedeSequence(t, tc.seed, tc.ratio)
		if p != tc.patches || r != tc.rebuilds {
			t.Errorf("seed %d ratio %v: patches/rebuilds %d/%d, want %d/%d", tc.seed, tc.ratio, p, r, tc.patches, tc.rebuilds)
		}
	}
}

// TestFillKeepsSiblingViews: a fill supersedes only its own binding —
// another binding's views, including one whose name extends the filled
// one's, stay; and a directed query, which folds, fills nothing, so the
// binding's older undirected view stays resident as a patch base.
func TestFillKeepsSiblingViews(t *testing.T) {
	ws := NewWorkspace()
	ws.Set("g", Object{View: graph.BuildView(testGraph(40, 150, 9))})
	ws.Set("g#1", Object{View: graph.BuildView(testGraph(40, 150, 10))})
	for _, name := range []string{"g", "g#1"} {
		if _, err := ws.UndirectedView(name); err != nil {
			t.Fatal(err)
		}
	}
	old, _ := ws.Version("g")
	if ok, err := ws.AddGraphEdge("g", 100, 101); err != nil || !ok {
		t.Fatalf("AddGraphEdge: ok=%v err=%v", ok, err)
	}
	if _, err := ws.DirectedView("g"); err != nil {
		t.Fatal(err)
	}
	sib, _ := ws.Version("g#1")
	expect := func(want map[viewKey]bool) {
		t.Helper()
		keys := residentViews(ws)
		if len(keys) != len(want) {
			t.Fatalf("resident views %+v, want %v", keys, want)
		}
		for _, k := range keys {
			if !want[k] {
				t.Fatalf("unexpected resident view %+v (want %v)", k, want)
			}
		}
	}
	expect(map[viewKey]bool{{"g", old}: true, {"g#1", sib}: true})
	if _, err := ws.UndirectedView("g"); err != nil {
		t.Fatal(err)
	}
	ver, _ := ws.Version("g")
	expect(map[viewKey]bool{{"g", ver}: true, {"g#1", sib}: true})
}
