package core

import (
	"fmt"
	"slices"

	"ringo/internal/graph"
)

// DefaultPatchRatio is the patch-vs-rebuild threshold: a pending delta
// batch is patched onto a cached base view when it holds at most
// ratio × (V+E) deltas (sized against the base), and triggers the full
// rebuild otherwise. Patching wins clearly at small deltas
// (BenchmarkViewPatch in internal/graph times one against a rebuild, and
// the update-query benchmark workload patches every cycle); past a fifth
// of the graph the merge bookkeeping stops paying for itself and the
// incremental algorithms lose their locality advantage anyway.
const DefaultPatchRatio = 0.2

// maxDeltaLog caps a binding's pending delta log. When a mutation would
// grow the log past the cap, the log resets to the current version:
// older cached views stop being patchable (the next query rebuilds), in
// exchange for bounded memory under unbounded mutation streams.
const maxDeltaLog = 1 << 14

// verDelta is one logged mutation stamped with the binding version it
// produced, so any cached view — at the log's base version or at any
// intermediate version — can locate the exact delta suffix separating it
// from the current state.
type verDelta struct {
	ver uint64
	d   graph.Delta
}

// deltaLog is the pending mutation history of one graph binding, from the
// version the oldest patchable view carries (baseVer) to the current one.
// Mutating verbs append; Set/Delete/Rename/Touch/Restore discard the log
// along with the binding's cached views.
type deltaLog struct {
	baseVer uint64
	deltas  []verDelta
}

// PatchStats reports how many view materializations were served by
// patching a cached base versus running a full build.
func (w *Workspace) PatchStats() (patches, rebuilds uint64) {
	return w.patches.Load(), w.rebuilds.Load()
}

// DeltaEdges reports the number of deltas retained across every
// binding's log. A log is kept even after the newest view absorbs it —
// a cached view of the other orientation at an older version still
// patches forward across it —
// and drops only when the binding is invalidated wholesale or the log
// overflows maxDeltaLog. This is the ringo_delta_edges gauge.
func (w *Workspace) DeltaEdges() int {
	w.mu.RLock()
	defer w.mu.RUnlock()
	total := 0
	for _, dl := range w.deltas {
		total += len(dl.deltas)
	}
	return total
}

// PendingDeltas returns the binding's logged mutations since the oldest
// patchable view state, oldest first — the batch callers hand to the
// incremental algorithms (WCCIncr, TrianglesIncr) together with the
// previous result.
func (w *Workspace) PendingDeltas(name string) []graph.Delta {
	w.mu.RLock()
	defer w.mu.RUnlock()
	dl := w.deltas[name]
	if dl == nil || len(dl.deltas) == 0 {
		return nil
	}
	out := make([]graph.Delta, len(dl.deltas))
	for i, vd := range dl.deltas {
		out[i] = vd.d
	}
	return out
}

// AddGraphNode adds an isolated node to the graph bound to name,
// reporting whether the node was new. The mutation bumps the binding's
// version and appends to its delta log without purging cached views —
// they stay resident as patch bases.
func (w *Workspace) AddGraphNode(name string, id int64) (bool, error) {
	return w.mutateGraph(name, graph.Delta{Op: graph.DeltaAddNode, Src: id})
}

// AddGraphEdge adds an edge to the graph bound to name (creating missing
// endpoints), reporting whether the edge was new. See AddGraphNode for
// the versioning contract.
func (w *Workspace) AddGraphEdge(name string, src, dst int64) (bool, error) {
	return w.mutateGraph(name, graph.Delta{Op: graph.DeltaAddEdge, Src: src, Dst: dst})
}

// DelGraphEdge removes an edge from the graph bound to name, reporting
// whether it existed. See AddGraphNode for the versioning contract.
func (w *Workspace) DelGraphEdge(name string, src, dst int64) (bool, error) {
	return w.mutateGraph(name, graph.Delta{Op: graph.DeltaDelEdge, Src: src, Dst: dst})
}

// mutateGraph applies one delta to a graph binding. Like Touch and the
// in-place table sort, graph mutations require the host to serialize them
// against running queries (the server's per-session lock does); the
// workspace lock only protects its own registry state.
//
// It is the only door from a frozen binding (Object.View) to its hash
// graph: the first mutation that changes the graph thaws the view
// (graph.FromView, O(V+E), run outside the lock) and rebinds the name as
// Object{Graph}, and the frozen view enters the view cache at the
// pre-mutation version, where it is the patch base the next query
// patches from. A mutation that changes nothing leaves the binding frozen.
func (w *Workspace) mutateGraph(name string, d graph.Delta) (bool, error) {
	if d.Src == graph.ReservedNodeID || (d.Op != graph.DeltaAddNode && d.Dst == graph.ReservedNodeID) {
		return false, fmt.Errorf("node id %d is reserved", graph.ReservedNodeID)
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	for {
		o, ok := w.objs[name]
		if !ok || o.View == nil {
			break
		}
		if !changes(o.View, d) {
			return false, nil
		}
		ver := w.ver[name]
		w.mu.Unlock()
		g := graph.FromView(o.View)
		w.mu.Lock()
		if w.objs[name].View == o.View && w.ver[name] == ver {
			w.objs[name] = Object{Graph: g}
			w.views.Put(viewKey{name: name, ver: ver}, cachedView{dir: o.View}, o.View.Bytes())
		}
	}
	o, ok := w.objs[name]
	if !ok {
		return false, fmt.Errorf("no object named %q", name)
	}
	var changed bool
	switch {
	case o.Graph != nil:
		switch d.Op {
		case graph.DeltaAddNode:
			changed = o.Graph.AddNode(d.Src)
		case graph.DeltaAddEdge:
			changed = o.Graph.AddEdge(d.Src, d.Dst)
		case graph.DeltaDelEdge:
			changed = o.Graph.DelEdge(d.Src, d.Dst)
		}
	case o.UGraph != nil:
		switch d.Op {
		case graph.DeltaAddNode:
			changed = o.UGraph.AddNode(d.Src)
		case graph.DeltaAddEdge:
			changed = o.UGraph.AddEdge(d.Src, d.Dst)
		case graph.DeltaDelEdge:
			changed = o.UGraph.DelEdge(d.Src, d.Dst)
		}
	case o.Mapped != nil:
		return false, fmt.Errorf("%q is a mapped graph (read-only)", name)
	default:
		return false, fmt.Errorf("%q is a %s, not a graph", name, o.Kind())
	}
	if !changed {
		return false, nil
	}
	oldVer := w.ver[name]
	w.clock++
	w.ver[name] = w.clock
	dl := w.deltas[name]
	if dl == nil {
		dl = &deltaLog{baseVer: oldVer}
		w.deltas[name] = dl
	}
	if len(dl.deltas) >= maxDeltaLog {
		*dl = deltaLog{baseVer: w.clock}
	} else {
		dl.deltas = append(dl.deltas, verDelta{ver: w.clock, d: d})
	}
	return true, nil
}

// changes reports whether applying d would change the graph v snapshots.
func changes(v *graph.View, d graph.Delta) bool {
	u, ok := v.Index(d.Src)
	if d.Op == graph.DeltaAddNode {
		return !ok
	}
	has := false
	if x, found := v.Index(d.Dst); ok && found {
		_, has = slices.BinarySearch(v.Out(u), x)
	}
	return has == (d.Op == graph.DeltaDelEdge)
}

// patchPlan is an immutable snapshot of a binding's delta log plus the
// patch threshold, taken under the workspace lock and consumed inside the
// view cache's build closure — where no workspace lock is held.
type patchPlan struct {
	ratio   float64
	baseVer uint64
	deltas  []verDelta
}

// patchPlanLocked snapshots name's pending deltas; callers hold w.mu.
// The slice is capped so concurrent appends cannot write into it.
func (w *Workspace) patchPlanLocked(name string) patchPlan {
	p := patchPlan{ratio: w.patchRatio}
	if dl := w.deltas[name]; dl != nil && len(dl.deltas) > 0 {
		p.baseVer = dl.baseVer
		p.deltas = dl.deltas[:len(dl.deltas):len(dl.deltas)]
	}
	return p
}

// candidateVer returns the binding version a cached view would carry if
// it reflects the log state before deltas[i:] — the log's base for i = 0,
// the version stamped on delta i-1 otherwise.
func (p patchPlan) candidateVer(i int) uint64 {
	if i == 0 {
		return p.baseVer
	}
	return p.deltas[i-1].ver
}

// pending extracts the delta suffix from index i on.
func (p patchPlan) pending(i int) []graph.Delta {
	out := make([]graph.Delta, len(p.deltas)-i)
	for j := i; j < len(p.deltas); j++ {
		out[j-i] = p.deltas[j].d
	}
	return out
}

// withinCutoff applies the patch-vs-rebuild threshold: the pending batch
// must be no larger than ratio × (V+E) of the base view. A batch exactly
// at the cutoff patches; one past it rebuilds.
func (p patchPlan) withinCutoff(pending int, base cachedView) bool {
	nodes, edges := base.size()
	return pending <= int(p.ratio*float64(int64(nodes)+edges))
}

// base finds the freshest resident view of key's binding and orientation
// that the pending deltas can patch from, returning it with the delta
// suffix to apply; ok is false when no base is resident or the batch
// exceeds the cutoff. Peek, not Get: a patch base is not a query, so it
// costs the cache no miss.
func (p patchPlan) base(views *viewCache, key viewKey) (base cachedView, pending []graph.Delta, ok bool) {
	if p.ratio <= 0 {
		return base, nil, false
	}
	for i := len(p.deltas) - 1; i >= 0; i-- {
		key.ver = p.candidateVer(i)
		if base, ok = views.Peek(key); ok {
			if !p.withinCutoff(len(p.deltas)-i, base) {
				return base, nil, false
			}
			return base, p.pending(i), true
		}
	}
	return base, nil, false
}
