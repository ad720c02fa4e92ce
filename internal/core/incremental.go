package core

import (
	"fmt"
	"slices"

	"ringo/internal/graph"
)

// DefaultPatchRatio is the patch-vs-project threshold for the undirected
// view of a directed binding: a pending delta batch is patched onto a
// cached undirected base when it holds at most ratio × (V+E) deltas
// (sized against the base), and the view is projected afresh from the
// binding's directed view otherwise. Patching wins clearly at small
// deltas (BenchmarkViewPatch in internal/graph times one against a
// rebuild); past a fifth of the graph the merge bookkeeping stops paying
// for itself and the incremental algorithms lose their locality advantage
// anyway. A binding's own view is always patched (folded), whatever the
// batch: nothing else holds its graph to build from.
const DefaultPatchRatio = 0.2

// maxDeltaLog caps a binding's delta log. A mutation that finds the log
// full first folds the pending deltas into the binding's view, then
// restarts the log at the view's version: undirected views cached at older
// versions stop being patchable (the next one is projected afresh), in
// exchange for bounded memory under unbounded mutation streams.
const maxDeltaLog = 1 << 14

// verDelta is one logged mutation stamped with the binding version it
// produced, so any view — the binding's own, or a cached undirected one at
// the log's base version or any later one — can locate the exact delta
// suffix separating it from the current state.
type verDelta struct {
	ver uint64
	d   graph.Delta
}

// deltaLog is the mutation history of one graph binding: the deltas from
// baseVer, the version of the oldest patchable undirected view, to the
// binding's current version. The binding's own view reflects viewVer; the
// deltas past it are pending, and ov sums them up. Mutating verbs append;
// Set/Delete/Rename/Touch/Restore discard the log along with the binding's
// cached views.
type deltaLog struct {
	baseVer uint64
	viewVer uint64
	deltas  []verDelta
	ov      overlay
}

// pending returns the deltas the binding's view does not reflect yet,
// capped so concurrent appends cannot write into them; nil for a nil log.
func (dl *deltaLog) pending() []verDelta {
	if dl == nil {
		return nil
	}
	i := len(dl.deltas)
	for i > 0 && dl.deltas[i-1].ver > dl.viewVer {
		i--
	}
	return dl.deltas[i:len(dl.deltas):len(dl.deltas)]
}

// csr is a binding's view, directed or undirected, as membership tests.
type csr interface {
	HasNode(id int64) bool
	HasEdge(a, b int64) bool
}

// overlay is what a run of deltas did, by pair and by node: the state each
// touched pair is in after them (keyed (min, max) in an undirected graph)
// and the nodes they touched. Over the view the run starts from it answers
// membership in the graph the run ends at: a pair or node it holds is
// decided by it, anything else by the view. Only mutations that change the
// graph are logged and no delta deletes a node, so the last delta on a
// pair is that pair's state and a touched node is present.
type overlay struct {
	undirected bool
	edges      map[[2]int64]bool
	nodes      map[int64]bool
}

func (ov *overlay) apply(d graph.Delta) {
	if ov.nodes == nil {
		ov.edges, ov.nodes = make(map[[2]int64]bool), make(map[int64]bool)
	}
	ov.nodes[d.Src] = true
	if d.Op == graph.DeltaAddNode {
		return
	}
	ov.nodes[d.Dst] = true
	ov.edges[ov.key(d.Src, d.Dst)] = d.Op == graph.DeltaAddEdge
}

func (ov *overlay) key(a, b int64) [2]int64 {
	if ov.undirected && b < a {
		a, b = b, a
	}
	return [2]int64{a, b}
}

func (ov *overlay) hasNode(v csr, id int64) bool { return ov.nodes[id] || v.HasNode(id) }

func (ov *overlay) hasEdge(v csr, a, b int64) bool {
	if has, ok := ov.edges[ov.key(a, b)]; ok {
		return has
	}
	return v.HasEdge(a, b)
}

// changes reports whether applying d would change the graph v plus the
// overlay describes.
func (ov *overlay) changes(v csr, d graph.Delta) bool {
	if d.Op == graph.DeltaAddNode {
		return !ov.hasNode(v, d.Src)
	}
	return ov.hasEdge(v, d.Src, d.Dst) == (d.Op == graph.DeltaDelEdge)
}

// fold returns the graph binding o with the pending deltas patched into
// its view (graph.PatchView or PatchUView), membership answered by an
// overlay of those deltas over the view. The overlay is rebuilt from the
// deltas rather than shared with the log, so a fold reads nothing a
// mutation writes.
func fold(o Object, pending []verDelta) Object {
	ds := make([]graph.Delta, len(pending))
	ov := overlay{undirected: o.UView != nil}
	for i, vd := range pending {
		ds[i] = vd.d
		ov.apply(vd.d)
	}
	if u := o.UView; u != nil {
		has := func(a, b int64) bool { return ov.hasEdge(u, a, b) }
		return Object{UView: graph.PatchUView(u, func(id int64) bool { return ov.hasNode(u, id) }, has, ds)}
	}
	v := o.View
	has := func(a, b int64) bool { return ov.hasEdge(v, a, b) }
	return Object{View: graph.PatchView(v, func(id int64) bool { return ov.hasNode(v, id) }, has, ds)}
}

// binding reads name's object, version and pending deltas under the read
// lock.
func (w *Workspace) binding(name string) (o Object, ver uint64, pending []verDelta, ok bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok = w.objs[name]
	return o, w.ver[name], w.deltas[name].pending(), ok
}

// settled reports whether a binding's object is the view its version
// names: no hash graph waits for its view to be built and no delta waits
// to be folded.
func settled(o Object, dl *deltaLog) bool { return o.Graph == nil && folded(o, dl) }

// folded reports whether no delta waits to be folded into the binding's
// view, for a change that drops its delta log (Rename, Touch).
func folded(_ Object, dl *deltaLog) bool { return len(dl.pending()) == 0 }

// current returns the object bound to name and its version, settled: the
// first caller after Set of a hash graph builds its view (graph.BuildView,
// one rebuild in PatchStats), and the first after mutations folds the
// pending deltas into the view (one patch). Either way the result is
// rebound at the same version, so fingerprints and result-cache keys do
// not move; the work is single-flight (foldMu), so concurrent callers wait
// for it and share its view. The O(V+E) build or patch runs outside w.mu.
func (w *Workspace) current(name string) (Object, uint64, bool) {
	o, ver, pending, ok := w.binding(name)
	if o.Graph == nil && len(pending) == 0 {
		return o, ver, ok
	}
	w.foldMu.Lock()
	defer w.foldMu.Unlock()
	if o, ver, pending, ok = w.binding(name); o.Graph == nil && len(pending) == 0 {
		return o, ver, ok
	}
	if o.Graph != nil {
		o = Object{View: graph.BuildView(o.Graph)}
		w.rebuilds.Add(1)
	} else {
		o = fold(o, pending)
		w.patches.Add(1)
	}
	w.mu.Lock()
	if w.ver[name] == ver {
		w.objs[name] = o
		if dl := w.deltas[name]; dl != nil {
			dl.viewVer, dl.ov = ver, overlay{undirected: dl.ov.undirected}
		}
	}
	w.mu.Unlock()
	return o, ver, true
}

// lockSettled takes w.mu for writing once done holds of name's binding,
// settling it with current until then.
func (w *Workspace) lockSettled(name string, done func(Object, *deltaLog) bool) {
	for {
		w.mu.Lock()
		if done(w.objs[name], w.deltas[name]) {
			return
		}
		w.mu.Unlock()
		w.current(name)
	}
}

// rlockSettled takes w.mu for reading once every binding is settled.
func (w *Workspace) rlockSettled() {
	for {
		w.mu.RLock()
		name, ok := "", true
		for n, o := range w.objs {
			if !settled(o, w.deltas[n]) {
				name, ok = n, false
				break
			}
		}
		if ok {
			return
		}
		w.mu.RUnlock()
		w.current(name)
	}
}

// PatchStats reports how many views were patched — a binding's view by a
// fold, or an undirected projection from a cached base — versus built
// afresh: a hash graph's view on its first query, or a projection.
func (w *Workspace) PatchStats() (patches, rebuilds uint64) {
	return w.patches.Load(), w.rebuilds.Load()
}

// DeltaEdges reports the number of deltas retained across every
// binding's log. A log is kept after a fold absorbs it — a cached
// undirected view at an older version still patches forward across it —
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

// PendingDeltas returns the binding's logged mutations its view does not
// reflect yet, oldest first: the next query folds them.
func (w *Workspace) PendingDeltas(name string) []graph.Delta {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var out []graph.Delta
	for _, vd := range w.deltas[name].pending() {
		out = append(out, vd.d)
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

// mutateGraph applies one delta to a graph binding: it checks d against
// the binding's view plus the overlay of its pending deltas, and when d
// changes the graph it logs d and bumps the version. The view itself is
// untouched until the next query folds the pending deltas into it. Like
// Touch and the in-place table sort, graph mutations require the host to
// serialize them against running queries (the server's per-session lock
// does); the workspace lock only protects its own registry state.
func (w *Workspace) mutateGraph(name string, d graph.Delta) (bool, error) {
	if d.Src == graph.ReservedNodeID || (d.Op != graph.DeltaAddNode && d.Dst == graph.ReservedNodeID) {
		return false, fmt.Errorf("node id %d is reserved", graph.ReservedNodeID)
	}
	w.lockSettled(name, func(o Object, dl *deltaLog) bool {
		return o.Graph == nil && (dl == nil || len(dl.deltas) < maxDeltaLog || len(dl.pending()) == 0)
	})
	defer w.mu.Unlock()
	o, ok := w.objs[name]
	var v csr
	switch {
	case !ok:
		return false, fmt.Errorf("no object named %q", name)
	case o.View != nil:
		v = o.View
	case o.UView != nil:
		v = o.UView
	case o.Mapped != nil:
		return false, fmt.Errorf("%q is a mapped graph (read-only)", name)
	default:
		return false, fmt.Errorf("%q is a %s, not a graph", name, o.Kind())
	}
	dl := w.deltas[name]
	if dl == nil {
		ver := w.ver[name]
		dl = &deltaLog{baseVer: ver, viewVer: ver, ov: overlay{undirected: o.UView != nil}}
	}
	if !dl.ov.changes(v, d) {
		return false, nil
	}
	w.deltas[name] = dl
	if len(dl.deltas) >= maxDeltaLog {
		dl.baseVer, dl.deltas = dl.viewVer, slices.Clone(dl.pending())
	}
	w.clock++
	w.ver[name] = w.clock
	dl.deltas = append(dl.deltas, verDelta{ver: w.clock, d: d})
	dl.ov.apply(d)
	return true, nil
}

// patchPlan is an immutable snapshot of a binding's delta log up to one
// version plus the patch threshold, taken under the workspace lock and
// consumed inside the view cache's build closure — where no workspace
// lock is held.
type patchPlan struct {
	ratio   float64
	baseVer uint64
	deltas  []verDelta
}

// patchPlanLocked snapshots name's logged deltas up to version ver;
// callers hold w.mu. The slice is capped so concurrent appends cannot
// write into it.
func (w *Workspace) patchPlanLocked(name string, ver uint64) patchPlan {
	p := patchPlan{ratio: w.patchRatio}
	if dl := w.deltas[name]; dl != nil {
		i := len(dl.deltas)
		for i > 0 && dl.deltas[i-1].ver > ver {
			i--
		}
		p.baseVer, p.deltas = dl.baseVer, dl.deltas[:i:i]
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

// base finds the freshest resident undirected view of key's binding that
// the logged deltas can patch from, returning it with the delta suffix to
// apply; ok is false when no base is resident or the batch holds more
// than ratio × (V+E) of the base. Peek, not Get: a patch base is not a
// query, so it costs the cache no miss.
func (p patchPlan) base(views *viewCache, key viewKey) (base *graph.UView, pending []graph.Delta, ok bool) {
	if p.ratio <= 0 {
		return nil, nil, false
	}
	for i := len(p.deltas) - 1; i >= 0; i-- {
		key.ver = p.candidateVer(i)
		if base, ok = views.Peek(key); ok {
			n := len(p.deltas) - i
			if n > int(p.ratio*float64(int64(base.NumNodes())+base.NumEdges())) {
				return nil, nil, false
			}
			return base, p.pending(i), true
		}
	}
	return nil, nil, false
}
