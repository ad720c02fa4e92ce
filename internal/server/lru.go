package server

import (
	"strings"

	"ringo/internal/lru"
	"ringo/internal/repl"
)

// LRU is the server's result cache: the one lru.Cache instance whose keys
// are strings — (command, object fingerprint) keys built by the repl
// engine, prefixed per session by sessionCache, so one cache budget is
// shared across every session on the server while entries never collide.
// Each entry books 16 bytes per score plus its message, so Stats reports
// resident size. Like lru.Cache, a nil *LRU — the server's disabled cache —
// stores nothing and every method is safe on it.
//
// A fill supersedes. A key ends in a binding's fingerprint, "name#version",
// and everything up to and including its last '#' is the key's slot: one
// command over one binding of one session instance. Put drops every other
// key of the slot, because a binding's versions only move forward — each
// comes from its workspace's monotonic clock, a restore shifts versions
// above that clock and purges the session's prefix, and a new session
// instance gets a new prefix — and mutations hold the session lock
// exclusively, so every Put happens at its binding's current version. An
// entry at any other version can never be asked for again.
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

// Put inserts or refreshes key, first dropping the other versions of its
// slot, and evicts the least recently used entry when the cache is full.
func (c *LRU) Put(key string, v repl.CachedResult) {
	if i := strings.LastIndexByte(key, '#'); i >= 0 && isVersion(key[i+1:]) {
		slot := key[:i+1]
		c.cache().DeleteFunc(func(k string) bool {
			return strings.HasPrefix(k, slot) && isVersion(k[len(slot):])
		})
	}
	c.cache().Put(key, v, 16*int64(len(v.Scores))+int64(len(v.Message)))
}

// isVersion reports whether s is a fingerprint's version: one or more
// decimal digits. Since no version holds a '#', a key whose text after its
// slot is a version has that slot, which keeps the split exact for binding
// names holding '#' or '|'.
func isVersion(s string) bool {
	if s == "" {
		return false
	}
	for i := 0; i < len(s); i++ {
		if s[i] < '0' || s[i] > '9' {
			return false
		}
	}
	return true
}

// DeletePrefix drops every entry whose key starts with prefix — used to
// purge a dropped session's entries so they stop consuming shared budget.
func (c *LRU) DeletePrefix(prefix string) {
	c.cache().DeleteFunc(func(key string) bool { return strings.HasPrefix(key, prefix) })
}

// Stats returns cumulative hits and misses, the current entry count and
// the booked bytes of the resident entries.
func (c *LRU) Stats() (hits, misses uint64, entries int, bytes int64) {
	return c.cache().Stats()
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
