package server

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"ringo/internal/core"
	"ringo/internal/lru"
	"ringo/internal/repl"
)

// keepCache is the reference result cache: the same bound and LRU order as
// the server's, but a fill supersedes nothing — every entry stays until
// eviction reaches it. prefix namespaces one engine's keys in the shared
// cache, as sessionCache does.
type keepCache struct {
	prefix string
	c      *lru.Cache[string, repl.CachedResult]
}

func (k keepCache) Get(key string) (repl.CachedResult, bool) { return k.c.Get(k.prefix + key) }
func (k keepCache) Put(key string, v repl.CachedResult)      { k.c.Put(k.prefix+key, v, 0) }

// supersedeOp draws one command: a mutation — a delta-logged edit, a
// rebinding tograph, mv or rm — or a cached query, over a binding set that
// includes "G#1" beside "G".
func supersedeOp(rng *rand.Rand) string {
	graphs := []string{"G", "G", "G#1", "H"}
	g := graphs[rng.Intn(len(graphs))]
	switch rng.Intn(12) {
	case 0, 1:
		return fmt.Sprintf("addedge %s %d %d", g, rng.Intn(70), rng.Intn(70))
	case 2:
		return fmt.Sprintf("deledge %s %d %d", g, rng.Intn(70), rng.Intn(70))
	case 3:
		return fmt.Sprintf("addnode %s %d", g, rng.Intn(90))
	case 4:
		return fmt.Sprintf("tograph %s %s src dst", g, []string{"E", "F"}[rng.Intn(2)])
	case 5:
		return fmt.Sprintf("mv %s %s", g, graphs[rng.Intn(len(graphs))])
	case 6:
		if rng.Intn(3) == 0 {
			return "rm " + g
		}
		return "top PR 3"
	case 7, 8, 9:
		return "pagerank PR " + g
	case 10:
		return "algo " + g + " wcc"
	default:
		return "algo " + g + " triangles"
	}
}

// TestSupersedeMatchesKeepingCache replays seeded interleavings over two
// sessions against a server and against bare engines sharing a keepCache
// of the same size. Replies must be identical, every reference hit must be
// a hit on the server — so no superseded entry would ever have hit — and
// the server must never hold two versions of one slot, nor book other than
// 16 bytes per score plus the message.
func TestSupersedeMatchesKeepingCache(t *testing.T) {
	for _, size := range []int{4, 256} {
		for seed := int64(1); seed <= 3; seed++ {
			t.Run(fmt.Sprintf("size%d/seed%d", size, seed), func(t *testing.T) {
				checkSupersede(t, size, seed)
			})
		}
	}
}

func checkSupersede(t *testing.T, size int, seed int64) {
	srv := New(Config{CacheSize: size})
	defer srv.Close()
	ref := lru.New[string, repl.CachedResult](size)
	// booked is what each server key put so far must book: 16 bytes per
	// score for pagerank, the message for algo.
	booked := map[string]int64{}
	eval := func(id, cmd string) (*repl.Result, error) {
		res, err := srv.Eval(id, cmd)
		if err != nil {
			return res, err
		}
		sess, _ := srv.session(id)
		ws := sess.eng.Workspace()
		switch f := strings.Fields(cmd); f[0] {
		case "pagerank":
			fp, _ := ws.Fingerprint(f[2])
			sc, _ := ws.Scores(f[1])
			booked[sess.cachePrefix+"pagerank|"+fp] = 16 * int64(len(sc))
		case "algo":
			fp, _ := ws.Fingerprint(f[1])
			booked[sess.cachePrefix+"algo "+f[2]+"|"+fp] = int64(len(res.Message))
		}
		return res, nil
	}
	ids := []string{"a", "b"}
	engines := map[string]*repl.Engine{}
	for i, id := range ids {
		if _, err := srv.CreateSession(id); err != nil {
			t.Fatal(err)
		}
		engines[id] = repl.New(core.NewWorkspace())
		engines[id].SetCache(keepCache{id + "|", ref})
		for _, cmd := range []string{
			fmt.Sprintf("gen rmat E 6 220 %d", seed*10+int64(i)),
			fmt.Sprintf("gen rmat F 6 160 %d", seed*10+int64(i)+5),
			"tograph G E src dst",
			"tograph G#1 F src dst",
			"pagerank PR G",
		} {
			if _, err := eval(id, cmd); err != nil {
				t.Fatal(err)
			}
			if _, err := engines[id].Eval(cmd); err != nil {
				t.Fatal(err)
			}
		}
	}
	rng := rand.New(rand.NewSource(seed))
	refHits, hits := 0, 0
	for step := 0; step < 400; step++ {
		id := ids[rng.Intn(len(ids))]
		cmd := supersedeOp(rng)
		got, err := eval(id, cmd)
		want, wantErr := engines[id].Eval(cmd)
		ctx := fmt.Sprintf("step %d session %s %q", step, id, cmd)
		if fmt.Sprint(err) != fmt.Sprint(wantErr) {
			t.Fatalf("%s: error %v, reference %v", ctx, err, wantErr)
		}
		if err != nil {
			continue
		}
		if want.Cached {
			refHits++
			if !got.Cached {
				t.Fatalf("%s: the reference hit, the server missed", ctx)
			}
		}
		if got.Cached {
			hits++
		}
		g, w := *got, *want
		g.ElapsedNS, g.Cached, w.ElapsedNS, w.Cached = 0, false, 0, false
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("%s: reply %+v, reference %+v", ctx, g, w)
		}
		checkSlots(t, ctx, srv.cache, booked)
	}
	if refHits == 0 {
		t.Fatal("the reference never hit: the sequence exercises nothing")
	}
	t.Logf("hits: server %d, reference %d", hits, refHits)
}

// checkSlots requires at most one resident key per slot and the booked
// bytes to be the sum of the resident keys' sizes.
func checkSlots(t *testing.T, ctx string, c *LRU, booked map[string]int64) {
	t.Helper()
	var keys []string
	c.cache().DeleteFunc(func(k string) bool {
		keys = append(keys, k)
		return false
	})
	slots := map[string]string{}
	var sum int64
	for _, k := range keys {
		i := strings.LastIndexByte(k, '#')
		if other, dup := slots[k[:i+1]]; dup {
			t.Fatalf("%s: %q and %q share a slot", ctx, k, other)
		}
		slots[k[:i+1]] = k
		sum += booked[k]
	}
	if _, _, n, b := c.Stats(); n != len(keys) || b != sum {
		t.Fatalf("%s: %d entries booked at %d bytes, want %d at %d", ctx, n, b, len(keys), sum)
	}
}

// TestPutSupersedesOnlyItsSlot pins the key split: a fill replaces the
// other versions of its own command, binding and session instance, and
// nothing that merely shares a prefix — a binding named "G#1" beside "G",
// another command over G, another session, or a key with no version.
func TestPutSupersedesOnlyItsSlot(t *testing.T) {
	c := NewLRU(16)
	keep := []string{
		"s@1|pagerank|G#1#3",
		"s@1|algo wcc|G#4",
		"s@2|pagerank|G#4",
		"s@1|pagerank|G#",
		"s@1|pagerank|G",
		"plain",
	}
	for _, k := range keep {
		c.Put(k, repl.CachedResult{Message: k})
	}
	c.Put("s@1|pagerank|G#4", repl.CachedResult{Message: "old"})
	c.Put("s@1|pagerank|G#15", repl.CachedResult{Message: "new"})
	if _, ok := c.Get("s@1|pagerank|G#4"); ok {
		t.Fatal("the superseded version is still resident")
	}
	for _, k := range append(keep, "s@1|pagerank|G#15") {
		if _, ok := c.Get(k); !ok {
			t.Fatalf("%q was dropped by a fill of another slot", k)
		}
	}
	c.DeletePrefix("s@1|")
	c.DeletePrefix("s@2|")
	c.DeletePrefix("plain")
	if _, _, n, b := c.Stats(); n != 0 || b != 0 {
		t.Fatalf("after purging every prefix: %d entries, %d bytes", n, b)
	}
}
