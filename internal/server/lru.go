package server

import (
	"strings"

	"ringo/internal/lru"
	"ringo/internal/repl"
)

// LRU is the server's result cache: the one lru.Cache instance whose keys
// are strings — (object fingerprint, command) keys built by the repl
// engine, prefixed per session by sessionCache, so one cache budget is
// shared across every session on the server while entries never collide.
// Results are not sized, so only the entry count is reported. Like
// lru.Cache, a nil *LRU — the server's disabled cache — stores nothing and
// every method is safe on it.
type LRU lru.Cache[string, repl.CachedResult]

// NewLRU returns a cache holding at most max entries (max < 1 is treated
// as 1).
func NewLRU(max int) *LRU {
	if max < 1 {
		max = 1
	}
	return (*LRU)(lru.New[string, repl.CachedResult](max))
}

func (c *LRU) cache() *lru.Cache[string, repl.CachedResult] {
	return (*lru.Cache[string, repl.CachedResult])(c)
}

// Get returns the cached value for key, marking it most recently used.
func (c *LRU) Get(key string) (repl.CachedResult, bool) { return c.cache().Get(key) }

// Put inserts or refreshes key, evicting the least recently used entry when
// the cache is full.
func (c *LRU) Put(key string, v repl.CachedResult) { c.cache().Put(key, v, 0) }

// DeletePrefix drops every entry whose key starts with prefix — used to
// purge a dropped session's entries so they stop consuming shared budget.
func (c *LRU) DeletePrefix(prefix string) {
	c.cache().DeleteFunc(func(key string) bool { return strings.HasPrefix(key, prefix) })
}

// Stats returns cumulative hits, misses and the current entry count.
func (c *LRU) Stats() (hits, misses uint64, size int) {
	hits, misses, size, _ = c.cache().Stats()
	return hits, misses, size
}

// sessionCache namespaces a shared LRU per session instance so
// fingerprints from different workspaces cannot collide. Puts are dropped
// once the session is, so an in-flight evaluation racing DropSession's
// purge cannot park a dead entry in the shared budget.
type sessionCache struct {
	sess *session
	lru  *LRU
}

func (s sessionCache) Get(key string) (repl.CachedResult, bool) {
	return s.lru.Get(s.sess.cachePrefix + key)
}

func (s sessionCache) Put(key string, v repl.CachedResult) {
	if s.sess.dropped.Load() {
		return
	}
	s.lru.Put(s.sess.cachePrefix+key, v)
}
