package core

import (
	"ringo/internal/graph"
	"ringo/internal/lru"
	"ringo/internal/table"
)

// A workspace carries two instances of lru.Cache, both keyed by the exact
// state of a binding — its fingerprint, carried as the (name, version)
// pair rather than the formatted "name#version" string, so keying is exact
// for any binding name. Exact invalidation comes for free: any mutation of
// a binding changes its version, so a stale entry can never be served. The
// workspace additionally purges a binding's entries eagerly when it is
// rebound (invalidateLocked), and a view fill drops the views it supersedes
// (supersedeViews), so dead ones stop holding memory.

// DefaultViewCacheEntries bounds a workspace's view cache. Views are
// O(V+E) objects, so the bound is deliberately small: an interactive
// session works on a handful of graphs at a time, and anything colder is
// cheaper to rebuild than to keep resident.
const DefaultViewCacheEntries = 8

// DefaultIndexCacheEntries bounds a workspace's equality-index cache.
// Indexes are per-(table, column) and each costs roughly
// cardinality × NumRows/8 bytes, much smaller than CSR views, so the bound
// is looser than the view cache's.
const DefaultIndexCacheEntries = 32

// viewKey identifies one cached CSR snapshot: a binding state plus the
// orientation. A directed graph has both a directed view (pagerank, scc,
// bfs, ...) and an undirected one (triangles, bridges, ...); they cache
// independently.
type viewKey struct {
	name  string
	ver   uint64
	undir bool
}

// cachedView is the view cache's value: dir or un is set, by key.undir.
// The cache is the heart of Ringo's interactivity model (§2.2 of Perez et
// al.): the optimized flat-array representation of a graph is built once,
// on the first query, and every later query over the unchanged graph runs
// straight over it.
type cachedView struct {
	dir *graph.View
	un  *graph.UView
}

// size returns the view's node and edge counts, which the patch planner
// measures a delta batch against.
func (cv cachedView) size() (nodes int, edges int64) {
	if cv.un != nil {
		return cv.un.NumNodes(), cv.un.NumEdges()
	}
	return cv.dir.NumNodes(), cv.dir.NumEdges()
}

type viewCache = lru.Cache[viewKey, cachedView]

// indexKey identifies one cached equality index: a table binding state
// plus the indexed column.
type indexKey struct {
	name string
	ver  uint64
	col  string
}

// cachedIndex is the index cache's value — the relational sibling of
// cachedView: a low-cardinality column's bitmap index is built on the
// second equality filter (the first leaves an lru.Cache.Admit marker) and
// serves every later filter over the unchanged table. Build failures
// (missing column, high cardinality) are cached too: they are
// fingerprint-exact facts, and caching them keeps repeat filters on an
// unindexable column from re-scanning to rediscover the failure.
type cachedIndex struct {
	idx *table.EqIndex
	err error
}

type indexCache = lru.Cache[indexKey, cachedIndex]

// invalidateLocked drops everything derived from the binding name, whatever
// its version: cached views and indexes (its fingerprint has moved on, so
// they can never hit again) and the pending delta log (its base versions
// point at a replaced object). Callers hold w.mu for writing.
func (w *Workspace) invalidateLocked(name string) {
	w.views.DeleteFunc(func(k viewKey) bool { return k.name == name })
	w.indexes.DeleteFunc(func(k indexKey) bool { return k.name == name })
	delete(w.deltas, name)
}

// supersedeViews drops key's binding's views of key's orientation at
// versions below key's, once a fill at key's version has landed. A
// delta-logged mutation keeps the pre-mutation view resident as the patch
// base; the fill is that base's successor — a fresher base for every later
// version — and versions only grow, so nothing below it can be asked for
// or patched from again.
func supersedeViews(views *viewCache, key viewKey) {
	views.DeleteFunc(func(k viewKey) bool {
		return k.name == key.name && k.undir == key.undir && k.ver < key.ver
	})
}

// stale reports whether the binding state (name, ver) was mutated away
// while a view or index of it was being built: in that interleaving the
// mutator's purge ran before the cache insertion landed, and unless the
// builder drops what it just inserted the dead entry stays resident until
// LRU pressure reaches it. (If the mutation happens after this check
// instead, its purge runs after the insertion and removes the entry itself
// — either order is covered.)
//
// Views superseded by *delta-logged* mutations are deliberately not stale:
// they are exactly the base states the next query patches from, so a view
// is only stale when no live delta log covers its version (the binding was
// rebound, renamed, touched or deleted).
func (w *Workspace) stale(name string, ver uint64) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	cur, ok := w.ver[name]
	if !ok {
		return true
	}
	if dl := w.deltas[name]; dl != nil && ver >= dl.baseVer && ver <= cur {
		return false
	}
	return cur != ver
}
