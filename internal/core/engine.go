// Package core is the Ringo engine's session layer: the Workspace holding a
// session's tables, graphs and score vectors, the caches beneath it, the
// score-to-table conversions that close the paper's loop (TableFromMap is
// its TableFromHashMap) and the harness behind every evaluation table.
// Conversions and kernels live in internal/conv and internal/algo;
// internal/repl drives this package and the root ringo package curates it.
//
// The package's two stateful pieces implement the paper's session model:
// Workspace is the named-object registry standing in for the Python
// session (provenance-tracked bindings, versioned fingerprints, binary
// snapshot/restore), and the view cache every workspace carries keeps the
// flat CSR snapshots (graph.View/UView) that algorithms run over, keyed by
// object fingerprint so a graph is converted to its optimized
// representation once per state, not once per query.
package core

import (
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

	"ringo/internal/algo"
	"ringo/internal/extmem"
	"ringo/internal/graph"
	"ringo/internal/lru"
	"ringo/internal/table"
)

// TableFromMap builds a two-column table (key, score) from an algorithm's
// score vector, sorted by descending score — the paper's TableFromHashMap,
// closing the loop from graph analytics back to tables.
func TableFromMap(sc algo.Scores, keyCol, valCol string) (*table.Table, error) {
	ranked := slices.Clone(sc)
	slices.SortFunc(ranked, algo.ByRank)
	keys := make([]int64, len(ranked))
	vals := make([]float64, len(ranked))
	for i, e := range ranked {
		keys[i] = e.ID
		vals[i] = e.Score
	}
	t, err := table.FromIntColumns([]string{keyCol}, [][]int64{keys})
	if err != nil {
		return nil, err
	}
	if err := t.AddFloatColumn(valCol, vals); err != nil {
		return nil, err
	}
	return t, nil
}

// TableFromIntMap is TableFromMap for integer-valued results (component
// labels, core numbers, hop distances).
func TableFromIntMap(m map[int64]int, keyCol, valCol string) (*table.Table, error) {
	keys := make([]int64, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i] < keys[j] })
	vals := make([]int64, len(keys))
	for i, k := range keys {
		vals[i] = int64(m[k])
	}
	return table.FromIntColumns([]string{keyCol, valCol}, [][]int64{keys, vals})
}

// Object is a value held in a Workspace: a table, a graph (in-heap,
// frozen as its CSR view, or mapped from an RNGM image), or a score
// vector.
type Object struct {
	Table  *table.Table
	Graph  *graph.Directed
	UGraph *graph.Undirected
	Scores algo.Scores
	// View is a directed graph frozen in its CSR form, as tograph,
	// loadgraph and Restore bind it: DirectedView serves it in place, with
	// no fill and no cache traffic, and the first mutation thaws it into a
	// Graph (see mutateGraph). It is the same graph a Graph binding holds,
	// so every verb answers it alike.
	View *graph.View
	// Mapped is a read-only graph served in place from an RNGM file (the
	// beyond-RAM tier): its views come straight from the mapping, never
	// from the view cache, and mutating verbs reject it.
	Mapped *extmem.Graph
}

// Kind describes what an Object holds.
func (o Object) Kind() string {
	switch {
	case o.Table != nil:
		return "table"
	case o.Graph != nil, o.View != nil:
		return "graph"
	case o.UGraph != nil:
		return "ugraph"
	case o.Scores != nil:
		return "scores"
	case o.Mapped != nil:
		return "mgraph"
	default:
		return "empty"
	}
}

// Summary is a one-line description of the object for the shell.
func (o Object) Summary() string {
	switch {
	case o.Table != nil:
		return fmt.Sprintf("table  %d rows × %d cols  (%s)", o.Table.NumRows(), o.Table.NumCols(), schemaString(o.Table))
	case o.Graph != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (directed)", o.Graph.NumNodes(), o.Graph.NumEdges())
	case o.View != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (directed)", o.View.NumNodes(), o.View.NumEdges())
	case o.UGraph != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (undirected)", o.UGraph.NumNodes(), o.UGraph.NumEdges())
	case o.Scores != nil:
		return fmt.Sprintf("scores %d nodes", len(o.Scores))
	case o.Mapped != nil:
		via := "mmap"
		if !o.Mapped.Mapped() {
			via = "copied"
		}
		return fmt.Sprintf("mgraph %d nodes, %d edges (%s, %s %s)",
			o.Mapped.NumNodes(), o.Mapped.NumEdges(), o.Mapped.Kind(), via, o.Mapped.Path())
	default:
		return "empty"
	}
}

func schemaString(t *table.Table) string {
	s := ""
	for i, c := range t.Schema() {
		if i > 0 {
			s += ", "
		}
		s += c.Name + ":" + c.Type.String()
	}
	return s
}

// Workspace is a named-object registry backing the interactive shell and
// the analytics server — the stand-in for the Python session in which Ringo
// objects live. Each binding records its provenance (the operation that
// created it), extending Ringo's fine-grained data tracking from rows to
// whole objects: ls shows how every object in the session came to be.
//
// Every binding also carries a version drawn from a workspace-wide clock.
// Rebinding or touching a name bumps its version, so (name, version) pairs —
// surfaced as Fingerprint — identify an object's exact state and make safe
// cache keys: any mutation invalidates all fingerprints taken before it.
//
// Graph bindings are queried through DirectedView/UndirectedView, which
// serve the flat CSR snapshot algorithms run over from a fingerprint-keyed
// view cache: the first query on a graph pays the O(V+E) conversion, every
// later query on the unchanged graph goes straight to flat-array compute.
// Rebinding operations (Set, Delete, Rename, Touch, Restore) purge the
// affected views — the new object shares nothing with the cached state.
//
// Fine-grained graph mutations (AddGraphEdge, DelGraphEdge, AddGraphNode)
// are different: they bump the version but keep the binding's cached views
// resident and append to its delta log, so the next query patches the
// pending deltas onto a cached base view (graph.PatchView) instead of
// rebuilding — as long as the batch stays under the DefaultPatchRatio
// threshold. That query's view then supersedes its base: the fill drops
// the binding's lower-version views of its orientation. See incremental.go
// for the delta-log machinery.
//
// A Workspace is safe for concurrent use by multiple goroutines.
type Workspace struct {
	mu      sync.RWMutex
	objs    map[string]Object
	prov    map[string]string
	ver     map[string]uint64
	clock   uint64
	order   []string
	views   *viewCache // nil when disabled, like indexes
	indexes *indexCache
	// deltas holds each graph binding's pending mutation log; patchRatio
	// is the patch-vs-rebuild threshold (DefaultPatchRatio; tests set
	// their own, and <= 0 rebuilds on every miss); patches/rebuilds count
	// how view materializations were served (they are touched inside
	// cache build closures, outside mu — hence atomics).
	deltas     map[string]*deltaLog
	patchRatio float64
	patches    atomic.Uint64
	rebuilds   atomic.Uint64
}

// NewWorkspace returns an empty workspace with a view cache of
// DefaultViewCacheEntries and an equality-index cache of
// DefaultIndexCacheEntries; resize or disable the view cache with
// ConfigureViewCache.
func NewWorkspace() *Workspace {
	return &Workspace{
		objs:       make(map[string]Object),
		prov:       make(map[string]string),
		ver:        make(map[string]uint64),
		views:      lru.New[viewKey, cachedView](DefaultViewCacheEntries),
		indexes:    lru.New[indexKey, cachedIndex](DefaultIndexCacheEntries),
		deltas:     make(map[string]*deltaLog),
		patchRatio: DefaultPatchRatio,
	}
}

// ConfigureViewCache resizes the workspace's CSR view cache; maxEntries < 1
// disables caching (every query rebuilds its view). The previous cache's
// contents are discarded.
func (w *Workspace) ConfigureViewCache(maxEntries int) {
	w.mu.Lock()
	defer w.mu.Unlock()
	w.views = lru.New[viewKey, cachedView](maxEntries)
}

// ViewCacheStats reports the view cache's cumulative hits and misses, the
// current entry count and resident bytes (zeros when disabled).
func (w *Workspace) ViewCacheStats() (hits, misses uint64, entries int, bytes int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.views.Stats()
}

// IndexCacheStats reports the equality-index cache's cumulative hits and
// misses, the current entry count and resident bytes (zeros when disabled).
func (w *Workspace) IndexCacheStats() (hits, misses uint64, entries int, bytes int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.indexes.Stats()
}

// ErrIndexDeferred answers the first request for an index, which
// TableEqIndex records but does not build.
var ErrIndexDeferred = errors.New("core: equality index deferred until the column is filtered again")

// TableEqIndex returns the equality bitmap index over col of the table
// bound to name. The first request for a (table state, column) leaves a
// zero-byte marker in the index cache and returns ErrIndexDeferred, so a
// one-shot filter scans instead of building an index nobody reuses; the
// second builds it (single-flight), and later calls against the unchanged
// table hit the fingerprint-keyed cache with no allocation — the
// relational analogue of DirectedView's build-once-query-many contract.
// Build failures (missing column, float column, cardinality over the cap)
// are returned — and cached — as errors; callers treat any error as
// "filter by scanning". With the cache disabled every call builds.
func (w *Workspace) TableEqIndex(name, col string) (*table.EqIndex, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	idxc := w.indexes
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Table == nil {
		return nil, fmt.Errorf("%q is a %s, not a table", name, o.Kind())
	}
	key := indexKey{name: name, ver: ver, col: col}
	if ci, hit := idxc.Get(key); hit {
		return ci.idx, ci.err
	}
	ci := cachedIndex{err: ErrIndexDeferred}
	if idxc.Admit(key) {
		ci = idxc.Build(key, func() (cachedIndex, int64) {
			idx, err := table.BuildEqIndex(o.Table, col, 0)
			if err != nil {
				return cachedIndex{err: err}, 0
			}
			return cachedIndex{idx: idx}, idx.Bytes()
		})
	}
	if w.stale(name, ver) {
		idxc.DeleteFunc(func(k indexKey) bool { return k.name == name && k.ver == ver })
	}
	return ci.idx, ci.err
}

// DirectedView returns the CSR view of the directed graph bound to name,
// served from the view cache when possible: on a hit no O(V+E) conversion
// runs, the paper's build-once-query-many model. A frozen binding
// (Object.View) and a mapped one are their views, served in place.
func (w *Workspace) DirectedView(name string) (*graph.View, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	views := w.views
	plan := w.patchPlanLocked(name)
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.View != nil {
		return o.View, nil
	}
	if o.Mapped != nil {
		// A mapped graph IS its view: no conversion to cache, no heap
		// bytes for the cache to account. Serve it straight from the
		// mapping.
		if mv := o.Mapped.View(); mv != nil {
			return mv, nil
		}
		return nil, fmt.Errorf("%q is an undirected mapped graph, not a directed one", name)
	}
	if o.Graph == nil {
		return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
	}
	key := viewKey{name: name, ver: ver}
	if cv, hit := views.Get(key); hit {
		return cv.dir, nil
	}
	cv := views.Build(key, func() (cachedView, int64) {
		var v *graph.View
		if base, pending, ok := plan.base(views, key); ok {
			w.patches.Add(1)
			v = graph.PatchView(base.dir, o.Graph.HasNode, o.Graph.HasEdge, pending)
		} else {
			w.rebuilds.Add(1)
			v = graph.BuildView(o.Graph)
		}
		return cachedView{dir: v}, v.Bytes()
	})
	supersedeViews(views, key)
	if w.stale(name, ver) {
		views.DeleteFunc(func(k viewKey) bool { return k.name == name && k.ver == ver })
	}
	return cv.dir, nil
}

// UndirectedView returns the undirected CSR view of the graph bound to
// name — for a directed graph, graph.ProjectUView of its directed view
// (edge directions dropped, duplicates merged), which is what triangle
// counting, bridges, k-core and the other orientation-blind algorithms
// consume. Cached like DirectedView; building it adds no directed view to
// the cache.
func (w *Workspace) UndirectedView(name string) (*graph.UView, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	ver := w.ver[name]
	views := w.views
	plan := w.patchPlanLocked(name)
	w.mu.RUnlock()
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	switch {
	case o.Mapped != nil && o.Mapped.UView() != nil:
		// An undirected mapped image is served in place, like DirectedView.
		return o.Mapped.UView(), nil
	case o.UGraph == nil && o.Graph == nil && o.View == nil && o.Mapped == nil:
		return nil, fmt.Errorf("%q is a %s, not a graph", name, o.Kind())
	}
	key := viewKey{name: name, ver: ver, undir: true}
	if cv, hit := views.Get(key); hit {
		return cv.un, nil
	}
	cv := views.Build(key, func() (cachedView, int64) {
		v := w.buildUView(o, plan, views, key)
		return cachedView{un: v}, v.Bytes()
	})
	supersedeViews(views, key)
	if w.stale(name, ver) {
		views.DeleteFunc(func(k viewKey) bool { return k.name == name && k.ver == ver })
	}
	return cv.un, nil
}

// buildUView materializes the undirected view of o for a cache miss:
// patched from a resident base when the plan allows, built otherwise. A
// directed binding's build is the projection of its directed view.
func (w *Workspace) buildUView(o Object, plan patchPlan, views *viewCache, key viewKey) *graph.UView {
	base, pending, patch := plan.base(views, key)
	if patch {
		w.patches.Add(1)
	} else {
		w.rebuilds.Add(1)
	}
	switch g, u := o.Graph, o.UGraph; {
	case patch && u != nil:
		return graph.PatchUView(base.un, u.HasNode, u.HasEdge, pending)
	case patch:
		// An undirected edge of the projection exists when either
		// orientation does.
		sym := func(a, b int64) bool { return g.HasEdge(a, b) || g.HasEdge(b, a) }
		return graph.PatchUView(base.un, g.HasNode, sym, pending)
	case u != nil:
		return graph.BuildUView(u)
	default:
		// Project a directed view: the frozen or mapped one, else the
		// one resident at this version (Peek: a projection is not a
		// query), else a transient build that the cache never holds.
		dv := o.View
		key.undir = false
		if o.Mapped != nil {
			dv = o.Mapped.View()
		}
		if dv == nil {
			if cv, ok := views.Peek(key); ok {
				dv = cv.dir
			} else {
				dv = graph.BuildView(g)
			}
		}
		return graph.ProjectUView(dv)
	}
}

// Set binds name to an object, replacing any previous binding.
func (w *Workspace) Set(name string, o Object) {
	w.SetWithProvenance(name, o, "")
}

// SetWithProvenance binds name to an object and records the operation that
// produced it.
func (w *Workspace) SetWithProvenance(name string, o Object, prov string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, exists := w.objs[name]; !exists {
		w.order = append(w.order, name)
	}
	w.objs[name] = o
	w.prov[name] = prov
	w.clock++
	w.ver[name] = w.clock
	w.invalidateLocked(name)
}

// Delete removes a binding, reporting whether it existed.
func (w *Workspace) Delete(name string) bool {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.objs[name]; !ok {
		return false
	}
	delete(w.objs, name)
	delete(w.prov, name)
	delete(w.ver, name)
	for i, n := range w.order {
		if n == name {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	w.invalidateLocked(name)
	return true
}

// Rename rebinds oldName as newName, carrying provenance along. The renamed
// binding gets a fresh version (its identity changed), and any existing
// binding at newName is replaced.
func (w *Workspace) Rename(oldName, newName string) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	o, ok := w.objs[oldName]
	if !ok {
		return fmt.Errorf("no object named %q", oldName)
	}
	if oldName == newName {
		return nil
	}
	prov := w.prov[oldName]
	delete(w.objs, oldName)
	delete(w.prov, oldName)
	delete(w.ver, oldName)
	for i, n := range w.order {
		if n == newName {
			w.order = append(w.order[:i], w.order[i+1:]...)
			break
		}
	}
	for i, n := range w.order {
		if n == oldName {
			w.order[i] = newName
			break
		}
	}
	w.objs[newName] = o
	w.prov[newName] = prov
	w.clock++
	w.ver[newName] = w.clock
	w.invalidateLocked(oldName)
	w.invalidateLocked(newName)
	return nil
}

// Touch bumps the version of a binding whose object was mutated in place
// (e.g. an in-place sort), invalidating fingerprints taken before the
// mutation. It is a no-op for unknown names.
func (w *Workspace) Touch(name string) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if _, ok := w.objs[name]; ok {
		w.clock++
		w.ver[name] = w.clock
		w.invalidateLocked(name)
	}
}

// Version returns the binding's version (0, false if unbound).
func (w *Workspace) Version(name string) (uint64, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	v, ok := w.ver[name]
	return v, ok
}

// Fingerprint identifies the exact state of a binding as "name#version".
// It changes whenever the name is rebound, renamed or touched, so it is a
// safe component of result-cache keys.
func (w *Workspace) Fingerprint(name string) (string, bool) {
	v, ok := w.Version(name)
	if !ok {
		return "", false
	}
	return fmt.Sprintf("%s#%d", name, v), true
}

// Provenance returns the recorded origin of a binding ("" if untracked).
func (w *Workspace) Provenance(name string) string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return w.prov[name]
}

// Get returns the object bound to name.
func (w *Workspace) Get(name string) (Object, bool) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	return o, ok
}

// Table returns the table bound to name or an error.
func (w *Workspace) Table(name string) (*table.Table, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Table == nil {
		return nil, fmt.Errorf("%q is a %s, not a table", name, o.Kind())
	}
	return o.Table, nil
}

// Graph returns the directed graph bound to name or an error. A frozen
// binding answers with a transient thaw of its view (graph.FromView): the
// same graph, which the binding does not keep.
func (w *Workspace) Graph(name string) (*graph.Directed, error) {
	w.mu.RLock()
	o, ok := w.objs[name]
	w.mu.RUnlock()
	switch {
	case !ok:
		return nil, fmt.Errorf("no object named %q", name)
	case o.View != nil:
		return graph.FromView(o.View), nil
	case o.Graph == nil:
		return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
	}
	return o.Graph, nil
}

// Scores returns the score vector bound to name or an error. The vector is
// shared with the result cache: read it, never modify it.
func (w *Workspace) Scores(name string) (algo.Scores, error) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	o, ok := w.objs[name]
	if !ok {
		return nil, fmt.Errorf("no object named %q", name)
	}
	if o.Scores == nil {
		return nil, fmt.Errorf("%q is a %s, not a score vector", name, o.Kind())
	}
	return o.Scores, nil
}

// Names lists bound names in binding order.
func (w *Workspace) Names() []string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	return append([]string(nil), w.order...)
}

// MappedBytes reports the total size of RNGM images bound in the
// workspace. These bytes are file-backed (page cache, not Go heap), which
// is why they are accounted separately from the view cache's resident
// bytes in stats and metrics.
func (w *Workspace) MappedBytes() int64 {
	w.mu.RLock()
	defer w.mu.RUnlock()
	var total int64
	for _, o := range w.objs {
		if o.Mapped != nil {
			total += o.Mapped.Bytes()
		}
	}
	return total
}
