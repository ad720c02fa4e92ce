// Package lru is Ringo's one cache: a count-bounded, concurrency-safe,
// least-recently-used map with single-flight fills. The server's result
// cache and each workspace's equality-index cache are its two instances;
// what differs between them is the key type, the bound and who purges
// what.
package lru

import (
	"container/list"
	"sync"
)

// Cache holds at most max entries, evicting the least recently used.
// Besides the entry count it books a caller-supplied byte estimate per
// entry, so Stats can report resident size.
//
// A nil *Cache stores nothing: Get misses without counting, Build
// runs its function on every call, the rest are no-ops and Stats is all
// zeros. That is how a disabled cache is spelled — callers never branch.
type Cache[K comparable, V any] struct {
	mu     sync.Mutex
	max    int
	ll     *list.List // of *entry[K, V], most recently used first
	items  map[K]*list.Element
	hits   uint64
	misses uint64
	bytes  int64
}

// entry is one slot. A Put entry is born ready; a Build or Admit entry
// becomes ready — under the cache lock — when its once has run, which is
// what lets Get serve val without joining the once.
type entry[K comparable, V any] struct {
	key   K
	once  sync.Once
	val   V
	bytes int64
	ready bool
}

// New returns a cache bounded to max entries, or nil — the cache that
// stores nothing — when max < 1.
func New[K comparable, V any](max int) *Cache[K, V] {
	if max < 1 {
		return nil
	}
	return &Cache[K, V]{max: max, ll: list.New(), items: make(map[K]*list.Element)}
}

// Get returns the finished entry for k, marking it most recently used and
// counting a hit; an absent or still-building entry counts a miss. Get
// never waits on a build.
func (c *Cache[K, V]) Get(k K) (v V, ok bool) {
	if c == nil {
		return v, false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, found := c.items[k]; found {
		if ent := el.Value.(*entry[K, V]); ent.ready {
			c.ll.MoveToFront(el)
			v, ok = ent.val, true
		}
	}
	if ok {
		c.hits++
	} else {
		c.misses++
	}
	return v, ok
}

// Put inserts or replaces k as a finished entry of the given size. A build
// of k still in flight keeps running for its own callers, but its result
// will not displace this one.
func (c *Cache[K, V]) Put(k K, v V, bytes int64) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.remove(el)
	}
	c.insert(&entry[K, V]{key: k, val: v, bytes: bytes, ready: true})
}

// Build returns the entry for k, filling it with build — which also
// reports the value's size — when k is absent. Concurrent callers of one
// absent key share a single build: the first runs it, the rest wait and
// get the same value. The size is booked only if the entry is still
// resident when the build ends; an entry evicted or deleted meanwhile
// lives just as long as the callers holding it. Build counts neither hit
// nor miss: it fills the miss a Get just reported.
func (c *Cache[K, V]) Build(k K, build func() (V, int64)) V {
	if c == nil {
		v, _ := build()
		return v
	}
	c.mu.Lock()
	el, ok := c.items[k]
	if ok {
		c.ll.MoveToFront(el)
	} else {
		el = c.insert(&entry[K, V]{key: k})
	}
	ent := el.Value.(*entry[K, V])
	ready, val := ent.ready, ent.val
	c.mu.Unlock()
	if ready {
		return val
	}
	ent.once.Do(func() {
		v, bytes := build()
		c.mu.Lock()
		defer c.mu.Unlock()
		ent.val, ent.ready = v, true
		if c.items[k] == el {
			ent.bytes = bytes
			c.bytes += bytes
		}
	})
	return ent.val
}

// Admit reports whether k already has an entry — finished, building, or
// admitted by an earlier call. If not, it inserts an empty entry that
// books no bytes and reports false: the caller skips the build this time,
// and the next Build of k fills that entry. Get misses on it until
// then. Admit counts neither hit nor miss. A nil cache remembers nothing
// and admits every key.
func (c *Cache[K, V]) Admit(k K) bool {
	if c == nil {
		return true
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[k]; ok {
		c.ll.MoveToFront(el)
		return true
	}
	c.insert(&entry[K, V]{key: k})
	return false
}

// DeleteFunc removes every entry whose key satisfies del. del runs under
// the cache lock and must not call back into the cache.
func (c *Cache[K, V]) DeleteFunc(del func(K) bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for k, el := range c.items {
		if del(k) {
			c.remove(el)
		}
	}
}

// Clear empties the cache; the hit and miss counters are cumulative and
// stay.
func (c *Cache[K, V]) Clear() { c.DeleteFunc(func(K) bool { return true }) }

// Stats returns cumulative hits and misses, the current entry count and
// the booked bytes of the resident entries.
func (c *Cache[K, V]) Stats() (hits, misses uint64, entries int, bytes int64) {
	if c == nil {
		return 0, 0, 0, 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.ll.Len(), c.bytes
}

// insert adds ent at the front, books its bytes and evicts past the
// bound. Caller holds mu.
func (c *Cache[K, V]) insert(ent *entry[K, V]) *list.Element {
	el := c.ll.PushFront(ent)
	c.items[ent.key] = el
	c.bytes += ent.bytes
	for c.ll.Len() > c.max {
		c.remove(c.ll.Back())
	}
	return el
}

// remove unlinks el and releases its booked bytes. Caller holds mu.
func (c *Cache[K, V]) remove(el *list.Element) {
	ent := c.ll.Remove(el).(*entry[K, V])
	delete(c.items, ent.key)
	c.bytes -= ent.bytes
}
