package lru

import (
	"math/rand"
	"slices"
	"sync"
	"sync/atomic"
	"testing"
)

// model is the oracle: the same cache as a slice kept in recency order
// (most recent first), every operation a linear scan. Sequential use never
// observes an unfinished build; the one unready entry it can see is an
// Admit marker awaiting its Build.
type model struct {
	max          int
	ents         []modelEntry
	hits, misses uint64
}

type modelEntry struct {
	key, val int
	bytes    int64
	marker   bool
}

func (m *model) get(k int) (int, bool) {
	i := slices.IndexFunc(m.ents, func(e modelEntry) bool { return e.key == k })
	if i < 0 || m.ents[i].marker {
		m.misses++
		return 0, false
	}
	e := m.ents[i]
	m.front(i)
	m.hits++
	return e.val, true
}

// front moves entry i to the front of the recency order.
func (m *model) front(i int) {
	e := m.ents[i]
	m.ents = slices.Insert(slices.Delete(m.ents, i, i+1), 0, e)
}

func (m *model) put(k, v int, bytes int64) {
	m.deleteFunc(func(key int) bool { return key == k })
	m.ents = slices.Insert(m.ents, 0, modelEntry{k, v, bytes, false})
	if len(m.ents) > m.max {
		m.ents = m.ents[:m.max]
	}
}

func (m *model) build(k, v int, bytes int64) int {
	i := slices.IndexFunc(m.ents, func(e modelEntry) bool { return e.key == k })
	if i < 0 {
		m.put(k, v, bytes)
		return v
	}
	m.front(i)
	if m.ents[0].marker { // an Admit marker: filled in place
		m.ents[0] = modelEntry{k, v, bytes, false}
	}
	return m.ents[0].val
}

func (m *model) admit(k int) bool {
	if i := slices.IndexFunc(m.ents, func(e modelEntry) bool { return e.key == k }); i >= 0 {
		m.front(i)
		return true
	}
	m.put(k, 0, 0)
	m.ents[0].marker = true
	return false
}

func (m *model) deleteFunc(del func(int) bool) {
	m.ents = slices.DeleteFunc(m.ents, func(e modelEntry) bool { return del(e.key) })
}

func (m *model) bytes() (n int64) {
	for _, e := range m.ents {
		n += e.bytes
	}
	return n
}

// keys lists the cache's resident keys in recency order.
func (c *Cache[K, V]) keys() []K {
	c.mu.Lock()
	defer c.mu.Unlock()
	var ks []K
	for el := c.ll.Front(); el != nil; el = el.Next() {
		ks = append(ks, el.Value.(*entry[K, V]).key)
	}
	return ks
}

func TestRandomOpsMatchModel(t *testing.T) {
	for _, max := range []int{1, 2, 8} {
		rng := rand.New(rand.NewSource(int64(max)))
		c := New[int, int](max)
		m := &model{max: max}
		for step := 0; step < 4000; step++ {
			k, v, b := rng.Intn(12), rng.Int(), int64(rng.Intn(100))
			var got, want int
			var gotOK, wantOK bool
			op := rng.Intn(22)
			switch {
			case op < 8:
				got, gotOK = c.Get(k)
				want, wantOK = m.get(k)
			case op < 12:
				c.Put(k, v, b)
				m.put(k, v, b)
			case op < 17:
				got = c.Build(k, func() (int, int64) { return v, b })
				want = m.build(k, v, b)
			case op < 19:
				gotOK, wantOK = c.Admit(k), m.admit(k)
			case op < 21:
				r := rng.Intn(3)
				del := func(key int) bool { return key%3 == r }
				c.DeleteFunc(del)
				m.deleteFunc(del)
			default:
				c.Clear()
				m.ents = nil
			}
			if got != want || gotOK != wantOK {
				t.Fatalf("max %d step %d op %d key %d: got (%d, %v), model (%d, %v)", max, step, op, k, got, gotOK, want, wantOK)
			}
			var order []int
			for _, e := range m.ents {
				order = append(order, e.key)
			}
			if keys := c.keys(); !slices.Equal(keys, order) {
				t.Fatalf("max %d step %d op %d: recency order %v, model %v", max, step, op, keys, order)
			}
			hits, misses, entries, bytes := c.Stats()
			if hits != m.hits || misses != m.misses || entries != len(m.ents) || bytes != m.bytes() {
				t.Fatalf("max %d step %d op %d: stats %d/%d/%d/%d, model %d/%d/%d/%d", max, step, op,
					hits, misses, entries, bytes, m.hits, m.misses, len(m.ents), m.bytes())
			}
		}
	}
}

func TestBuildSingleFlight(t *testing.T) {
	c := New[string, *int](4)
	var builds atomic.Int32
	release := make(chan struct{})
	got := make([]*int, 32)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func() {
			defer wg.Done()
			got[i] = c.Build("k", func() (*int, int64) {
				builds.Add(1)
				<-release // hold the build open so the others pile up behind it
				return new(int), 8
			})
		}()
	}
	close(release)
	wg.Wait()
	if n := builds.Load(); n != 1 {
		t.Fatalf("build ran %d times, want 1", n)
	}
	for i, p := range got {
		if p == nil || p != got[0] {
			t.Fatalf("caller %d got %p, caller 0 got %p", i, p, got[0])
		}
	}
	if _, _, entries, bytes := c.Stats(); entries != 1 || bytes != 8 {
		t.Fatalf("entries %d bytes %d, want 1 and 8", entries, bytes)
	}
}

// TestRemovedWhileBuilding covers the three ways an entry can leave the
// cache under a running build — LRU eviction, DeleteFunc, replacement by
// Put. Each time the late result goes to the build's callers only and its
// bytes are never booked.
func TestRemovedWhileBuilding(t *testing.T) {
	for _, tc := range []struct {
		name      string
		remove    func(c *Cache[int, string])
		wantBytes int64
	}{
		{"evicted", func(c *Cache[int, string]) { c.Put(2, "other", 5) }, 5},
		{"deleted", func(c *Cache[int, string]) { c.DeleteFunc(func(k int) bool { return k == 1 }) }, 0},
		{"replaced", func(c *Cache[int, string]) { c.Put(1, "put", 7) }, 7},
	} {
		t.Run(tc.name, func(t *testing.T) {
			c := New[int, string](1)
			started, release := make(chan struct{}), make(chan struct{})
			done := make(chan string)
			go func() {
				done <- c.Build(1, func() (string, int64) {
					close(started)
					<-release
					return "built", 1000
				})
			}()
			<-started
			if _, ok := c.Get(1); ok {
				t.Fatal("Get served an entry whose build is still running")
			}
			tc.remove(c)
			close(release)
			if v := <-done; v != "built" {
				t.Fatalf("builder got %q, want its own result", v)
			}
			if _, _, _, bytes := c.Stats(); bytes != tc.wantBytes {
				t.Fatalf("bytes %d after the late build, want %d", bytes, tc.wantBytes)
			}
			if v, ok := c.Get(1); ok && v != "put" {
				t.Fatalf("late build result %q became resident", v)
			}
			c.Clear()
			if _, _, entries, bytes := c.Stats(); entries != 0 || bytes != 0 {
				t.Fatalf("after Clear: entries %d bytes %d", entries, bytes)
			}
		})
	}
}

func TestNilCacheStoresNothing(t *testing.T) {
	var c *Cache[string, int]
	if New[string, int](0) != nil {
		t.Fatal("New(0) should be the nil cache")
	}
	c.Put("k", 1, 10)
	if !c.Admit("k") {
		t.Fatal("a nil cache deferred a build")
	}
	if _, ok := c.Get("k"); ok {
		t.Fatal("Get hit on a nil cache")
	}
	builds := 0
	for i := 0; i < 3; i++ {
		if v := c.Build("k", func() (int, int64) { builds++; return 40 + builds, 10 }); v != 40+builds {
			t.Fatalf("Build returned %d, want %d", v, 40+builds)
		}
	}
	if builds != 3 {
		t.Fatalf("build ran %d times in 3 calls", builds)
	}
	c.DeleteFunc(func(string) bool { return true })
	c.Clear()
	if h, m, e, b := c.Stats(); h != 0 || m != 0 || e != 0 || b != 0 {
		t.Fatalf("nil cache stats %d/%d/%d/%d", h, m, e, b)
	}
}

func TestGetHitDoesNotAllocate(t *testing.T) {
	c := New[string, int](4)
	c.Put("k", 1, 0)
	if n := testing.AllocsPerRun(100, func() { c.Get("k") }); n != 0 {
		t.Fatalf("Get hit allocates %v times", n)
	}
}

var sink int

func BenchmarkCacheGetHit(b *testing.B) {
	c := New[int, int](64)
	for k := 0; k < 64; k++ {
		c.Put(k, k, 8)
	}
	b.ReportAllocs()
	k := 0
	for b.Loop() {
		sink, _ = c.Get(k & 63)
		k++
	}
}

func BenchmarkCachePutEvict(b *testing.B) {
	c := New[int, int](64)
	b.ReportAllocs()
	k := 0
	for b.Loop() {
		c.Put(k, k, 8) // every key is new: one insert, one eviction once full
		k++
	}
}

func BenchmarkCacheBuildWarm(b *testing.B) {
	c := New[int, int](64)
	build := func() (int, int64) { return 1, 8 }
	c.Build(0, build)
	b.ReportAllocs()
	for b.Loop() {
		sink = c.Build(0, build)
	}
}
