package graph

import (
	"fmt"
	"slices"
	"sync"

	"ringo/internal/par"
)

// This file is the boundary between CSR views and their stored images
// (internal/extmem's mmap-backed RNGM files, internal/snapshot's graph
// records): constructors that assemble a
// View/UView directly over caller-owned arrays without copying or hashing,
// accessors that expose a view's backing arrays for zero-copy
// serialization, and the undirected projection that lets orientation-blind
// algorithms run over a mapped directed graph that has no in-heap Directed
// behind it.

// ViewParts returns the view's backing arrays: the ascending id vector,
// both offset vectors, and the out/in neighbor arrays. The slices are the
// view's own storage — callers must treat them as read-only. This is what
// a zero-copy serializer (extmem.SaveMapped, a snapshot's graph record)
// writes section by section.
func (v *View) ViewParts() (ids []int64, outOff, inOff []int64, out, in []int32) {
	return v.ids, v.outOff, v.inOff, v.out, v.in
}

// UViewParts is ViewParts for the undirected view: ids, the offset vector,
// and the neighbor arena.
func (v *UView) UViewParts() (ids []int64, off []int64, arena []int32) {
	return v.ids, v.off, v.arena
}

// ViewFromArrays assembles a directed CSR view directly over caller-owned
// arrays — a snapshot record's or a file mapping's: the arrays may alias a
// mapping, in which case retain must pin whatever owns it so it cannot be
// unmapped while the view is reachable. Index binary-searches ids, as on
// every view, so nothing is decoded.
//
// The arrays are fully validated before the view is returned, in O(V+E):
// strictly ascending ids without the reserved one, monotone offset vectors
// that agree with the array lengths, every neighbor index in range, each
// vector strictly ascending, and in the exact transpose of out. These are
// the arrays BuildViewCols makes of out's edges, so a corrupt or malicious
// file yields a named error here, never a wrong answer or an
// out-of-bounds panic in an algorithm later.
func ViewFromArrays(ids []int64, outOff, inOff []int64, out, in []int32, retain any) (*View, error) {
	n := len(ids)
	if err := checkIDs(ids); err != nil {
		return nil, err
	}
	if err := checkOffsets("out", outOff, n, len(out)); err != nil {
		return nil, err
	}
	if err := checkOffsets("in", inOff, n, len(in)); err != nil {
		return nil, err
	}
	if len(out) != len(in) {
		return nil, fmt.Errorf("graph: view arrays hold %d out-edges but %d in-edges", len(out), len(in))
	}
	if err := checkNeighbors("out", outOff, out, n); err != nil {
		return nil, err
	}
	if err := checkNeighbors("in", inOff, in, n); err != nil {
		return nil, err
	}
	if err := checkTranspose(ids, outOff, out, inOff, in); err != nil {
		return nil, fmt.Errorf("graph: in-vectors are not the transpose of the out-vectors: %w", err)
	}
	return &View{ids: ids, outOff: outOff, inOff: inOff, out: out, in: in, retain: retain}, nil
}

// UViewFromArrays is ViewFromArrays for the undirected view: one offset
// vector and one neighbor arena, validated the same way, the arena being
// its own transpose — every non-loop edge in both endpoints' vectors, a
// self-loop once.
func UViewFromArrays(ids []int64, off []int64, arena []int32, retain any) (*UView, error) {
	n := len(ids)
	if err := checkIDs(ids); err != nil {
		return nil, err
	}
	if err := checkOffsets("adjacency", off, n, len(arena)); err != nil {
		return nil, err
	}
	if err := checkNeighbors("adjacency", off, arena, n); err != nil {
		return nil, err
	}
	if err := checkTranspose(ids, off, arena, off, arena); err != nil {
		return nil, fmt.Errorf("graph: adjacency is not symmetric: %w", err)
	}
	return &UView{ids: ids, off: off, arena: arena, retain: retain}, nil
}

func checkIDs(ids []int64) error {
	if len(ids) > 0 && ids[0] == tombstone {
		return fmt.Errorf("graph: view id vector holds the reserved id %d", int64(tombstone))
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			return fmt.Errorf("graph: view id vector not strictly ascending at index %d (%d after %d)", i, ids[i], ids[i-1])
		}
	}
	return nil
}

func checkOffsets(name string, off []int64, n, arenaLen int) error {
	if len(off) != n+1 {
		return fmt.Errorf("graph: %s offset vector has %d entries, want %d for %d nodes", name, len(off), n+1, n)
	}
	if off[0] != 0 {
		return fmt.Errorf("graph: %s offset vector starts at %d, want 0", name, off[0])
	}
	for i := 1; i <= n; i++ {
		if off[i] < off[i-1] {
			return fmt.Errorf("graph: %s offset vector decreases at index %d (%d after %d)", name, i, off[i], off[i-1])
		}
	}
	if off[n] != int64(arenaLen) {
		return fmt.Errorf("graph: %s offsets claim %d edges, arena holds %d", name, off[n], arenaLen)
	}
	return nil
}

// checkNeighbors validates every neighbor index is in [0, n) and each
// node's vector is strictly ascending — the invariants algorithms index and
// binary-search by. The scan is O(E) over flat int32s, parallelized; it is
// the price of trusting a file's arenas without decoding them.
func checkNeighbors(name string, off []int64, arena []int32, n int) error {
	var mu sync.Mutex
	var bad error
	report := func(err error) {
		mu.Lock()
		if bad == nil {
			bad = err
		}
		mu.Unlock()
	}
	par.For(n, func(lo, hi int) {
		for u := lo; u < hi; u++ {
			prev := int32(-1)
			for _, w := range arena[off[u]:off[u+1]] {
				if w < 0 || int(w) >= n {
					report(fmt.Errorf("graph: %s vector of dense node %d names index %d, outside [0,%d)", name, u, w, n))
					return
				}
				if w <= prev {
					report(fmt.Errorf("graph: %s vector of dense node %d is not sorted strictly ascending", name, u))
					return
				}
				prev = w
			}
		}
	})
	return bad
}

// checkTranspose checks, with one cursor per node, that in is the
// transpose of out: walking the sources u in ascending order, each edge
// u->w must be the next unread entry of w's in-vector. checkNeighbors and
// checkOffsets have run, so the vectors are in range and equally long in
// total, and no cursor running past its vector's end means every cursor
// ends exactly there: each in-vector then lists its node's sources in
// ascending order, as a counting transpose builds it.
func checkTranspose(ids []int64, outOff []int64, out []int32, inOff []int64, in []int32) error {
	next := slices.Clone(inOff[:len(ids)])
	for u := range ids {
		for _, w := range out[outOff[u]:outOff[u+1]] {
			at := next[w]
			if at == inOff[w+1] || in[at] != int32(u) {
				return fmt.Errorf("edge %d->%d has no matching reverse entry", ids[u], ids[w])
			}
			next[w] = at + 1
		}
	}
	return nil
}

// ProjectUView builds the undirected projection of a directed view: each
// node's neighbor vector is the merged, deduplicated union of its out- and
// in-vectors (both already sorted), self-loops kept. It is the one way a
// directed binding, heap or mapped, reaches the undirected view that
// orientation-blind algorithms (triangles, bridges, k-core) run over: the
// projection reads the directed arenas once and materializes a heap UView
// that caches like any other. The direction-ignoring kernels that take a
// directed view (betweenness, the motif census) project through it too.
func ProjectUView(v *View) *UView {
	n := v.NumNodes()
	u := &UView{
		ids: v.ids,
		off: make([]int64, n+1),
	}
	// Pass 1: merged degree per node (count only, no writes).
	par.ForEach(n, func(i int) {
		u.off[i+1] = int64(mergedLen(v.Out(int32(i)), v.In(int32(i))))
	})
	for i := 0; i < n; i++ {
		u.off[i+1] += u.off[i]
	}
	u.arena = make([]int32, u.off[n])
	// Pass 2: merge into disjoint arena ranges.
	par.ForEach(n, func(i int) {
		mergeInto(u.arena[u.off[i]:u.off[i+1]], v.Out(int32(i)), v.In(int32(i)))
	})
	// The projection shares the source view's ids (possibly mapped), so it
	// must pin whatever the source pins and answer Index by binary search.
	u.retain = v.retain
	return u
}

// mergedLen counts the union size of two sorted vectors of dense indices
// (a view's) or node ids (a graph's).
func mergedLen[T int32 | int64](a, b []T) int {
	n, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			i++
			j++
		}
		n++
	}
	return n + (len(a) - i) + (len(b) - j)
}

// mergeInto writes the sorted union of a and b into dst (sized by
// mergedLen).
func mergeInto[T int32 | int64](dst, a, b []T) {
	k, i, j := 0, 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			dst[k] = a[i]
			i++
		case a[i] > b[j]:
			dst[k] = b[j]
			j++
		default:
			dst[k] = a[i]
			i++
			j++
		}
		k++
	}
	k += copy(dst[k:], a[i:])
	copy(dst[k:], b[j:])
}
