package algo

import (
	"slices"
	"testing"
	"testing/quick"

	"ringo/internal/graph"
)

// coreNumbers is coreNumbersFlat keyed by node id.
func coreNumbers(v *graph.UView) map[int64]int {
	core := coreNumbersFlat(v)
	out := make(map[int64]int, len(core))
	for u, id := range v.IDs() {
		out[id] = int(core[u])
	}
	return out
}

func TestCoreNumbersKnown(t *testing.T) {
	// K4 plus a tail 3-4-5: clique nodes have core 3 (node 3 included),
	// tail nodes 4,5 have core 1.
	cores := coreNumbers(undirected(append(clique(4), [2]int64{3, 4}, [2]int64{4, 5})))
	for _, id := range []int64{0, 1, 2, 3} {
		if cores[id] != 3 {
			t.Fatalf("core[%d] = %d, want 3", id, cores[id])
		}
	}
	if cores[4] != 1 || cores[5] != 1 {
		t.Fatalf("tail cores = %d,%d", cores[4], cores[5])
	}
}

func TestCoreNumbersStar(t *testing.T) {
	cores := coreNumbers(undirected([][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}}))
	for id, c := range cores {
		if c != 1 {
			t.Fatalf("star core[%d] = %d, want 1", id, c)
		}
	}
}

func TestKCoreSubgraph(t *testing.T) {
	edges := append(clique(4), [2]int64{3, 4}, [2]int64{4, 5})
	v := undirected(edges)
	core3 := KCore(v, 3)
	if core3.NumNodes() != 4 {
		t.Fatalf("3-core nodes = %d, want 4", core3.NumNodes())
	}
	if core3.NumEdges() != 6 {
		t.Fatalf("3-core edges = %d, want 6", core3.NumEdges())
	}
	if core3.HasNode(4) || core3.HasNode(5) {
		t.Fatal("tail nodes leaked into 3-core")
	}
	// Min-degree property: every node in the k-core has degree >= k there.
	for u, id := range core3.IDs() {
		if core3.Deg(int32(u)) < 3 {
			t.Fatalf("node %d has degree %d in 3-core", id, core3.Deg(int32(u)))
		}
	}
	// 5-core of K4 is empty.
	if KCore(v, 5).NumNodes() != 0 {
		t.Fatal("5-core of K4+tail should be empty")
	}
	// Input view unmodified.
	if !sameSubgraph(v, undirected(edges)) {
		t.Fatal("KCore mutated input")
	}
}

// TestKCoreDirected: the k-core of a directed graph is KCore of its
// undirected projection, matching SNAP's KCore on directed edge lists.
func TestKCoreDirected(t *testing.T) {
	// Directed K4 (one direction per pair) has undirected 3-core = all.
	d := directed(append(clique(4), [2]int64{3, 9}))
	core := KCore(graph.ProjectUView(d), 3)
	if core.NumNodes() != 4 || core.HasNode(9) {
		t.Fatalf("directed 3-core nodes = %d", core.NumNodes())
	}
}

// kcoreRef is KCore as the view of the edges and nodes it keeps, the
// reference the filtered arrays are held to.
func kcoreRef(edges [][2]int64, nodes []int64, k int) *graph.UView {
	cores := coreNumbers(undirected(edges, nodes...))
	var kept [][2]int64
	for _, e := range edges {
		if cores[e[0]] >= k && cores[e[1]] >= k {
			kept = append(kept, e)
		}
	}
	var keptNodes []int64
	for id, c := range cores {
		if c >= k {
			keptNodes = append(keptNodes, id)
		}
	}
	return undirected(kept, keptNodes...)
}

// sameSubgraph reports whether the views a and b hold the same ids,
// offsets and neighbor arena.
func sameSubgraph(a, b *graph.UView) bool {
	ids, off, arena := a.UViewParts()
	wids, woff, warena := b.UViewParts()
	return slices.Equal(ids, wids) && slices.Equal(off, woff) && slices.Equal(arena, warena)
}

// Property: the k-core is the maximal subgraph with min degree >= k; its
// nodes are exactly those with core number >= k; and it equals the view of
// the edges it keeps, self-loops, isolated nodes and k = 0 included.
func TestKCoreMatchesPeelingProperty(t *testing.T) {
	f := func(edges [][2]int8, isolated []uint8, kk uint8) bool {
		k := int(kk % 5)
		var nodes []int64
		for _, id := range isolated {
			nodes = append(nodes, int64(id%30))
		}
		var plain [][2]int64
		for _, e := range edges {
			if a, b := int64(e[0]%20), int64(e[1]%20); a != b {
				plain = append(plain, [2]int64{a, b})
			}
		}
		looped := slices.Clone(plain)
		for _, e := range edges {
			if e[0]%7 == 0 {
				looped = append(looped, [2]int64{int64(e[1] % 20), int64(e[1] % 20)})
			}
		}
		if !sameSubgraph(KCore(undirected(looped, nodes...), k), kcoreRef(looped, nodes, k)) {
			return false
		}
		g := undirected(plain, nodes...)
		cores := coreNumbers(g)
		sub := KCore(g, k)
		if !sameSubgraph(sub, kcoreRef(plain, nodes, k)) {
			return false
		}
		// Every kept node has core >= k and degree >= k in the subgraph.
		for u, id := range sub.IDs() {
			if cores[id] < k || sub.Deg(int32(u)) < k {
				return false
			}
		}
		// Every node with core >= k is kept.
		for id, c := range cores {
			if c >= k && !sub.HasNode(id) {
				return false
			}
		}
		// Reference peeling: repeatedly remove nodes with degree < k.
		nbrs := map[int64]map[int64]bool{}
		for _, id := range nodes {
			nbrs[id] = map[int64]bool{}
		}
		for _, e := range plain {
			for _, ab := range [][2]int64{e, {e[1], e[0]}} {
				if nbrs[ab[0]] == nil {
					nbrs[ab[0]] = map[int64]bool{}
				}
				nbrs[ab[0]][ab[1]] = true
			}
		}
		for removed := true; removed; {
			removed = false
			for id, adj := range nbrs {
				if len(adj) < k {
					for x := range adj {
						delete(nbrs[x], id)
					}
					delete(nbrs, id)
					removed = true
				}
			}
		}
		var refEdges int64
		for _, adj := range nbrs {
			refEdges += int64(len(adj))
		}
		return len(nbrs) == sub.NumNodes() && refEdges/2 == sub.NumEdges()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkKCore is the 3-core subgraph of the facade's GetKCore at the
// update-query workload's graph size: R-MAT 2^15 with 200 000 edges,
// projected.
func BenchmarkKCore(b *testing.B) {
	u := graph.ProjectUView(rmatGraph(15, 200000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if sub := KCore(u, 3); sub.NumNodes() == 0 {
			b.Fatal("empty 3-core")
		}
	}
}
