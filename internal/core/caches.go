package core

import (
	"ringo/internal/lru"
	"ringo/internal/table"
)

// A workspace's equality indexes sit in an lru.Cache keyed by the exact
// state of a table binding — its fingerprint, carried as the (name,
// version) pair rather than the formatted "name#version" string, so keying
// is exact for any binding name. Exact invalidation comes for free: any
// mutation of a binding changes its version, so a stale entry can never be
// served. The workspace additionally purges a binding's entries eagerly
// when it is rebound (invalidateLocked), so dead ones stop holding memory.
// Graph bindings need no cache: each is its CSR view, and a directed one
// holds its own undirected projection (see Workspace.UndirectedView).

// DefaultIndexCacheEntries bounds a workspace's equality-index cache.
// Indexes are per-(table, column) and each costs roughly
// cardinality × NumRows/8 bytes, so an interactive session's handful of
// filtered columns fits well within the bound.
const DefaultIndexCacheEntries = 32

// indexKey identifies one cached equality index: a table binding state
// plus the indexed column.
type indexKey struct {
	name string
	ver  uint64
	col  string
}

// cachedIndex is the index cache's value: a low-cardinality column's
// bitmap index is built on the second equality filter (the first leaves an
// lru.Cache.Admit marker) and serves every later filter over the unchanged
// table. Build failures
// (missing column, high cardinality) are cached too: they are
// fingerprint-exact facts, and caching them keeps repeat filters on an
// unindexable column from re-scanning to rediscover the failure.
type cachedIndex struct {
	idx *table.EqIndex
	err error
}

type indexCache = lru.Cache[indexKey, cachedIndex]

// invalidateLocked drops everything derived from the binding name, whatever
// its version: its cached indexes (its fingerprint has moved on, so they
// can never hit again), the pending delta log (its versions point at a
// replaced object) and the undirected projection it holds. Callers hold
// w.mu for writing.
func (w *Workspace) invalidateLocked(name string) {
	w.indexes.DeleteFunc(func(k indexKey) bool { return k.name == name })
	delete(w.deltas, name)
	if o, ok := w.objs[name]; ok && o.proj != nil {
		o.proj = nil
		w.objs[name] = o
	}
}

// stale reports whether the binding state (name, ver) was mutated away
// while an index of it was being built: in that interleaving the mutator's
// purge ran before the cache insertion landed, and unless the builder
// drops what it just inserted the dead entry stays resident until LRU
// pressure reaches it. (If the mutation happens after this check instead,
// its purge runs after the insertion and removes the entry itself — either
// order is covered.)
func (w *Workspace) stale(name string, ver uint64) bool {
	w.mu.RLock()
	defer w.mu.RUnlock()
	cur, ok := w.ver[name]
	return !ok || cur != ver
}
