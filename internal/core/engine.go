// Package core is the Ringo engine's session layer: the Workspace holding a
// session's tables, graphs and score vectors, the index cache beneath it,
// the score-to-table conversions that close the paper's loop (TableFromMap is
// its TableFromHashMap) and the harness behind every evaluation table.
// Conversions and kernels live in internal/conv and internal/algo;
// internal/repl drives this package and the root ringo package curates it.
//
// Workspace implements the paper's session model: it is the named-object
// registry standing in for the Python session (provenance-tracked
// bindings, versioned fingerprints, binary snapshot/restore), and its
// graph bindings are the flat CSR views (graph.View/UView) that algorithms
// run over, so a graph is converted to its optimized representation once
// per state, not once per query.
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

// Object is a value held in a Workspace: a table, a graph (as its CSR
// view, or mapped from an RNGM image), or a score vector.
type Object struct {
	Table *table.Table
	// Graph is an input form only: the first query of a binding set from
	// it builds its CSR view (graph.BuildView) and rebinds that, so no
	// binding a reader sees holds a hash graph.
	Graph *graph.Directed
	// View and UView are a directed and an undirected graph in their CSR
	// form, as tograph, loadgraph and Restore bind them. Every query runs
	// over the binding's view; mutations log deltas the next query folds
	// into it (see incremental.go).
	View   *graph.View
	UView  *graph.UView
	Scores algo.Scores
	// Mapped is a read-only graph served in place from an RNGM file by
	// mapgraph or a warm start (the beyond-RAM tier): its views come
	// straight from the mapping, and mutating verbs reject it.
	Mapped *extmem.Graph

	// proj is a directed binding's undirected projection as of version
	// projVer, held for the next undirected query (see UndirectedView).
	// Binding an object drops it (invalidateLocked), so a projection
	// copied out with Get never outlives the binding it was made for.
	proj    *graph.UView
	projVer uint64
}

// Kind describes what an Object holds.
func (o Object) Kind() string {
	switch {
	case o.Table != nil:
		return "table"
	case o.Graph != nil, o.View != nil:
		return "graph"
	case o.UView != nil:
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
	case o.View != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (directed)", o.View.NumNodes(), o.View.NumEdges())
	case o.UView != nil:
		return fmt.Sprintf("graph  %d nodes, %d edges (undirected)", o.UView.NumNodes(), o.UView.NumEdges())
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
// A graph binding is its CSR view (graph.View or graph.UView), served in
// place by DirectedView/UndirectedView: the paper's build-once-query-many
// model, with the conversion paid when the graph is bound (for a hash
// graph handed to Set, by its first query). The undirected projection of
// a directed graph is built on its first query and held by the binding,
// stamped with the version it reflects. Set, Delete, Touch and Restore
// drop it; Rename carries a current one to the new name.
//
// Fine-grained graph mutations (AddGraphEdge, DelGraphEdge, AddGraphNode)
// are different: they bump the version and append to the binding's delta
// log, checked against the view plus an overlay of the deltas it does not
// reflect yet. The next query folds those deltas into the view
// (graph.PatchView) and rebinds the result at the same version; the next
// undirected query patches the held projection forward the same way, as
// long as the deltas since it stay under the DefaultPatchRatio threshold.
// See incremental.go for the delta-log machinery.
//
// A Workspace is safe for concurrent use by multiple goroutines.
type Workspace struct {
	mu      sync.RWMutex
	objs    map[string]Object
	prov    map[string]string
	ver     map[string]uint64
	clock   uint64
	order   []string
	indexes *indexCache
	// deltas holds each graph binding's mutation log; foldMu makes
	// folding it into the binding's view, and projecting, single-flight;
	// patchRatio is the patch-vs-project threshold for undirected
	// projections (DefaultPatchRatio; tests set their own, and <= 0
	// projects afresh whenever the held projection is behind);
	// patches/rebuilds count how views were served and projHits/projMisses
	// how undirected queries of directed bindings were (they are touched
	// outside mu — hence atomics).
	deltas     map[string]*deltaLog
	foldMu     sync.Mutex
	patchRatio float64
	patches    atomic.Uint64
	rebuilds   atomic.Uint64
	projHits   atomic.Uint64
	projMisses atomic.Uint64
}

// NewWorkspace returns an empty workspace with an equality-index cache of
// DefaultIndexCacheEntries.
func NewWorkspace() *Workspace {
	return &Workspace{
		objs:       make(map[string]Object),
		prov:       make(map[string]string),
		ver:        make(map[string]uint64),
		indexes:    lru.New[indexKey, cachedIndex](DefaultIndexCacheEntries),
		deltas:     make(map[string]*deltaLog),
		patchRatio: DefaultPatchRatio,
	}
}

// ViewCacheStats reports the undirected projections of directed bindings:
// cumulative hits (a held projection served) and misses (one patched or
// built), and the projections held now with their resident bytes.
func (w *Workspace) ViewCacheStats() (hits, misses uint64, entries int, bytes int64) {
	w.mu.RLock()
	defer w.mu.RUnlock()
	for _, o := range w.objs {
		if o.proj != nil {
			entries++
			bytes += o.proj.Bytes()
		}
	}
	return w.projHits.Load(), w.projMisses.Load(), entries, bytes
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

// DirectedView returns the CSR view of the directed graph bound to name:
// the binding's own view, served in place (a mapped graph's straight from
// the mapping), with any pending deltas folded in first (see current).
func (w *Workspace) DirectedView(name string) (*graph.View, error) {
	o, _, ok := w.current(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("no object named %q", name)
	case o.View != nil:
		return o.View, nil
	case o.Mapped != nil && o.Mapped.View() != nil:
		return o.Mapped.View(), nil
	case o.Mapped != nil:
		return nil, fmt.Errorf("%q is an undirected mapped graph, not a directed one", name)
	}
	return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
}

// UndirectedView returns the undirected CSR view of the graph bound to
// name — an undirected binding's own view, or for a directed graph
// graph.ProjectUView of its directed view (edge directions dropped,
// duplicates merged), which is what triangle counting, bridges, k-core and
// the other orientation-blind algorithms consume. The binding holds its
// projection: a query at the version it reflects is served it, and a
// later one patches it forward or projects afresh (see project).
func (w *Workspace) UndirectedView(name string) (*graph.UView, error) {
	o, ver, ok := w.current(name)
	dv := o.View
	switch {
	case !ok:
		return nil, fmt.Errorf("no object named %q", name)
	case o.UView != nil:
		return o.UView, nil
	case o.Mapped != nil && o.Mapped.UView() != nil:
		return o.Mapped.UView(), nil
	case o.Mapped != nil:
		dv = o.Mapped.View()
	case dv == nil:
		return nil, fmt.Errorf("%q is a %s, not a graph", name, o.Kind())
	}
	if o.proj != nil && o.projVer == ver {
		w.projHits.Add(1)
		return o.proj, nil
	}
	return w.project(name, ver, dv), nil
}

// Set binds name to an object, replacing any previous binding.
func (w *Workspace) Set(name string, o Object) {
	w.SetWithProvenance(name, o, "")
}

// SetWithProvenance binds name to an object and records the operation that
// produced it. A hash graph (Object.Graph) waits for its first query,
// which builds its CSR view (see current).
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
// binding at newName is replaced. A projection of the renamed graph's
// current state stays with it.
func (w *Workspace) Rename(oldName, newName string) error {
	w.lockSettled(oldName, folded)
	defer w.mu.Unlock()
	o, ok := w.objs[oldName]
	if !ok {
		return fmt.Errorf("no object named %q", oldName)
	}
	if oldName == newName {
		return nil
	}
	prov, oldVer := w.prov[oldName], w.ver[oldName]
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
	w.prov[newName] = prov
	w.clock++
	w.ver[newName] = w.clock
	w.invalidateLocked(oldName)
	w.invalidateLocked(newName)
	if o.proj != nil && o.projVer == oldVer {
		o.projVer = w.clock
	} else {
		o.proj = nil
	}
	w.objs[newName] = o
	return nil
}

// Touch bumps the version of a binding whose object was mutated in place
// (e.g. an in-place sort), invalidating fingerprints taken before the
// mutation. It is a no-op for unknown names.
func (w *Workspace) Touch(name string) {
	w.lockSettled(name, folded)
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

// Get returns the object bound to name, a graph binding's view built or
// its pending deltas folded first (see current).
func (w *Workspace) Get(name string) (Object, bool) {
	o, _, ok := w.current(name)
	return o, ok
}

// Kind reports what the binding holds (Object.Kind), "" when name is
// unbound. Unlike Get it folds nothing, so a mutation verb can name the
// kind it mutated without paying for a fold.
func (w *Workspace) Kind(name string) string {
	w.mu.RLock()
	defer w.mu.RUnlock()
	if o, ok := w.objs[name]; ok {
		return o.Kind()
	}
	return ""
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

// Graph returns the directed graph bound to name or an error: a transient
// thaw (graph.FromView) of its view, which the binding does not keep. A
// mapped graph has no heap graph to hand out.
func (w *Workspace) Graph(name string) (*graph.Directed, error) {
	o, _, ok := w.current(name)
	switch {
	case !ok:
		return nil, fmt.Errorf("no object named %q", name)
	case o.View == nil:
		return nil, fmt.Errorf("%q is a %s, not a directed graph", name, o.Kind())
	}
	return graph.FromView(o.View), nil
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
// is why they are accounted separately from the held projections'
// resident bytes in stats and metrics.
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
