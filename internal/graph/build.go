package graph

import (
	"fmt"
	"math"
	"math/bits"
	"slices"
	"sync/atomic"

	"ringo/internal/par"
)

// Bulk graph construction: the paper's "sort-first" algorithm (§2.4)
// applied to raw edge columns. Every id is relabelled to a dense index in
// ascending id order, two stable counting passes over the dense indices
// sort the edges by (src, dst), each source's run is deduplicated straight
// into the out-CSR, and a counting transpose of that yields the in-CSR,
// already sorted. The result is a View — the flat form every algorithm
// runs over — built with no per-node allocation and no hashing, and, for
// the compact id spans tables and generators produce, no sort but the
// counting passes; the hash-of-nodes Directed is derived from it
// (FromView) only for the benchmark module's binding. This is the one
// construction path of a directed graph: behind the table-to-graph
// conversions in internal/conv and the parallel text-ingest pipeline
// (ParseEdgeList).

// relabelSpan bounds the relabel's bitmap arm: ids whose span max-min is
// under relabelSpan × (edges + declared nodes + 64) are ranked through a
// presence bitmap over [min, max] (R-MAT and string-pool ids), wider spans
// through a sort of the distinct ids and a binary search per endpoint.
// Relabelling 25 000 edges on one core, the bitmap arm takes 0.4 ms against
// the sort arm's 6.5 ms at spans up to 30 ids per edge, and the two meet
// only near 4 000; but the bitmap and its rank grow with the span, and 8
// caps them at 1.5 bytes per edge, under a fortieth of what the sort arm
// allocates.
const relabelSpan = 8

// BuildViewCols builds the CSR view of the directed graph whose edges are
// given as two parallel columns, and whose nodes are their endpoints plus
// every id in nodes: the isolated nodes a "# node <id>" line declares (an
// id may repeat, or be an endpoint too). Duplicate pairs collapse to a
// single edge; self-loops are kept. The view equals BuildView of the graph
// that feeding every pair through AddEdge and every id of nodes through
// AddNode produces, array for array.
func BuildViewCols(srcs, dsts, nodes []int64) (*View, error) {
	if len(srcs) != len(dsts) {
		return nil, fmt.Errorf("graph: bulk build column length mismatch: %d srcs, %d dsts", len(srcs), len(dsts))
	}
	ids, s, d, err := relabel(srcs, dsts, nodes)
	if err != nil {
		return nil, err
	}
	n := len(ids)

	// Pass one: stable by destination. Only the sources move; a source's
	// bucket is its destination. ends[x] turns from the start of bucket x
	// into its end.
	ends := bucketStarts(d, n)
	byDst := make([]int32, len(s))
	for i, x := range d {
		byDst[ends[x]] = s[i]
		ends[x]++
	}
	// Pass two: stable by source, emitting destinations (into d, dead
	// since pass one), so each source's run is in ascending destination
	// order; outOff[u] likewise turns into the end of u's run.
	outOff, bySrc := bucketStarts(s, n), d
	lo := int64(0)
	for x := 0; x < n; x++ {
		for _, u := range byDst[lo:ends[x]] {
			bySrc[outOff[u]] = int32(x)
			outOff[u]++
		}
		lo = ends[x]
	}
	// Deduplicate each run in place, shifting outOff to the CSR offsets.
	e, lo := int64(0), 0
	for u := 0; u < n; u++ {
		hi := outOff[u]
		outOff[u] = e
		prev := int32(-1)
		for _, x := range bySrc[lo:hi] {
			if x != prev {
				bySrc[e] = x
				e++
				prev = x
			}
		}
		lo = hi
	}
	outOff[n] = e

	arena := make([]int32, 2*e)
	v := &View{ids: ids, outOff: outOff, out: arena[:e:e], in: arena[e:]}
	copy(v.out, bySrc[:e])
	// The in-CSR by counting transpose: sources are visited in ascending
	// order, so every in-run comes out sorted.
	v.inOff = bucketStarts(v.out, n)
	next := ends[:n]
	copy(next, v.inOff)
	for u := 0; u < n; u++ {
		for _, x := range v.Out(int32(u)) {
			v.in[next[x]] = int32(u)
			next[x]++
		}
	}
	return v, nil
}

// bucketStarts counts keys into n buckets and returns where each bucket
// starts in a counting sort of them, with the total at [n].
func bucketStarts(keys []int32, n int) []int64 {
	starts := make([]int64, n+1)
	for _, k := range keys {
		starts[k+1]++
	}
	for x := 0; x < n; x++ {
		starts[x+1] += starts[x]
	}
	return starts
}

// relabel maps every endpoint of the edge columns to its dense index:
// ids holds the distinct ids of the columns and of nodes in ascending
// order, and s[i], d[i] are the indices of srcs[i], dsts[i] in it.
func relabel(srcs, dsts, nodes []int64) (ids []int64, s, d []int32, err error) {
	m := len(srcs)
	s, d = make([]int32, m), make([]int32, m)
	if m == 0 && len(nodes) == 0 {
		return []int64{}, s, d, nil
	}
	type span struct{ lo, hi int64 }
	r := par.Reduce(m, span{math.MaxInt64, math.MinInt64}, func(lo, hi int) span {
		r := span{math.MaxInt64, math.MinInt64}
		for i := lo; i < hi; i++ {
			r.lo = min(r.lo, srcs[i], dsts[i])
			r.hi = max(r.hi, srcs[i], dsts[i])
		}
		return r
	}, func(a, b span) span { return span{min(a.lo, b.lo), max(a.hi, b.hi)} })
	for _, id := range nodes {
		r.lo, r.hi = min(r.lo, id), max(r.hi, id)
	}
	if r.lo == tombstone {
		return nil, nil, nil, fmt.Errorf("graph: node id %d reserved", int64(tombstone))
	}
	if width := uint64(r.hi) - uint64(r.lo); width < relabelSpan*uint64(m+len(nodes)+64) {
		ids = relabelDense(srcs, dsts, nodes, s, d, r.lo, width)
		return ids, s, d, nil
	}
	all := slices.Concat(srcs, dsts, nodes)
	par.SortInt64s(all)
	distinct := slices.Compact(all)
	ids = make([]int64, len(distinct)) // exact, so all can go
	copy(ids, distinct)
	par.For(m, func(lo, hi int) {
		for i := lo; i < hi; i++ {
			x, _ := slices.BinarySearch(ids, srcs[i])
			y, _ := slices.BinarySearch(ids, dsts[i])
			s[i], d[i] = int32(x), int32(y)
		}
	})
	return ids, s, d, nil
}

// relabelDense is relabel's bitmap arm for ids within [base, base+width]:
// one presence bit per candidate id, a running popcount per word as the
// rank, and a dense index is its word's rank plus the set bits below it.
func relabelDense(srcs, dsts, nodes []int64, s, d []int32, base int64, width uint64) []int64 {
	words := make([]uint64, width/64+1)
	mark := func(col []int64) {
		for _, id := range col {
			k := uint64(id) - uint64(base)
			w, bit := &words[k/64], uint64(1)<<(k%64)
			if atomic.LoadUint64(w)&bit == 0 {
				atomic.OrUint64(w, bit)
			}
		}
	}
	par.For(len(srcs), func(lo, hi int) {
		mark(srcs[lo:hi])
		mark(dsts[lo:hi])
	})
	par.For(len(nodes), func(lo, hi int) { mark(nodes[lo:hi]) })
	rank := make([]int32, len(words))
	n := int32(0)
	for w, word := range words {
		rank[w] = n
		n += int32(bits.OnesCount64(word))
	}
	ids := make([]int64, n)
	par.For(len(words), func(lo, hi int) {
		for w := lo; w < hi; w++ {
			at := rank[w]
			for b := words[w]; b != 0; b &= b - 1 {
				ids[at] = base + int64(uint64(w)*64+uint64(bits.TrailingZeros64(b)))
				at++
			}
		}
	})
	par.For(len(srcs), func(lo, hi int) {
		for i := lo; i < hi; i++ {
			s[i] = denseRank(words, rank, uint64(srcs[i])-uint64(base))
			d[i] = denseRank(words, rank, uint64(dsts[i])-uint64(base))
		}
	})
	return ids
}

// denseRank is the dense index of the id at offset k of a presence bitmap.
func denseRank(words []uint64, rank []int32, k uint64) int32 {
	return rank[k/64] + int32(bits.OnesCount64(words[k/64]&(1<<(k%64)-1)))
}

// FromView thaws a view into the hash-of-nodes Directed it snapshots: node
// slots in ascending id order, every adjacency vector carved from one
// arena and capped, so a later AddEdge on one node reallocates that vector
// instead of clobbering its arena neighbors. Empty vectors stay nil.
func FromView(v *View) *Directed {
	n, e := v.NumNodes(), v.NumEdges()
	g := NewDirectedCap(n)
	g.ids = append(g.ids, v.ids...)
	g.outAdj = g.outAdj[:n]
	g.inAdj = g.inAdj[:n]
	g.nEdges = e
	arena := make([]int64, 2*e)
	carve := func(at int64, dense []int32) []int64 {
		if len(dense) == 0 {
			return nil
		}
		vec := arena[at : at+int64(len(dense)) : at+int64(len(dense))]
		for j, x := range dense {
			vec[j] = v.ids[x]
		}
		return vec
	}
	par.For(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			g.outAdj[u] = carve(v.outOff[u], v.Out(int32(u)))
			g.inAdj[u] = carve(e+v.inOff[u], v.In(int32(u)))
		}
	})
	for s, id := range g.ids {
		g.idx[id] = int32(s)
	}
	return g
}

// BuildDirectedCols constructs a directed graph from an edge list given as
// two parallel columns: the thaw (FromView) of BuildViewCols. The result
// is indistinguishable from feeding every pair through AddEdge — same node
// set, same sorted duplicate-free adjacency vectors — at O(V+E) instead of
// O(E · deg) sorted inserts.
func BuildDirectedCols(srcs, dsts []int64) (*Directed, error) {
	v, err := BuildViewCols(srcs, dsts, nil)
	if err != nil {
		return nil, err
	}
	return FromView(v), nil
}
