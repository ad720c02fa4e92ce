package algo

import (
	"sync/atomic"

	"ringo/internal/graph"
	"ringo/internal/par"
)

// Semi-external algorithm variants, the compute half of the beyond-RAM
// tier (see internal/extmem for the storage half): vertex state — ranks,
// labels, distances, frontiers — stays in memory, sized O(V), while edge
// arrays are streamed in vertex-range blocks from the view, which is
// typically an mmap-backed RNGM image whose pages the kernel faults in on
// demand. Blocks whose vertex range has no active vertices are skipped
// without touching their arena pages (GraphMP-style selective scheduling,
// PAPERS.md arXiv 1707.02557), so a BFS over a mostly-converged frontier
// reads a fraction of the file.
//
// Each variant shares a results-equality contract with its in-heap
// counterpart: identical inputs produce byte-identical outputs (exact
// float equality for PageRank), enforced by the equivalence tests. That
// holds because blocking only re-chunks loops whose per-vertex work is
// independent, and the one order-sensitive reduction (PageRank's dangling
// mass) uses the same deterministic par.Reduce as the in-heap path.

// extBlockSize is the vertex-range block width edge arrays are streamed
// in: 1<<15 vertices keeps a block's offset slice inside a few pages while
// giving the scheduler enough granularity to skip cold regions. A var so
// tests can shrink it to force multi-block schedules on small graphs.
var extBlockSize = 1 << 15

var (
	extBlocksScanned atomic.Int64
	extBlocksSkipped atomic.Int64
)

// ExtBlockStats reports the cumulative number of edge blocks scanned and
// skipped by semi-external runs since process start — the selective-
// scheduling effectiveness counters exported at /metrics.
func ExtBlockStats() (scanned, skipped int64) {
	return extBlocksScanned.Load(), extBlocksSkipped.Load()
}

func extNumBlocks(n int) int {
	return (n + extBlockSize - 1) / extBlockSize
}

// PageRankExt is PageRank over a (typically mapped) view in semi-external
// style: both rank vectors live in memory and each power iteration streams
// the in-edge blocks. Every vertex is active in every power iteration, so
// no blocks are skipped — the win over PageRankView is that the edge
// arrays never occupy heap, only page cache. Scores are byte-identical to
// PageRankView on the same view.
func PageRankExt(v *graph.View, damping float64, iters int) Scores {
	defer report(timed("pagerank_ext"))
	return newScores(v.IDs(), pageRankExtFlat(v, damping, iters))
}

func pageRankExtFlat(v *graph.View, damping float64, iters int) []float64 {
	n := v.NumNodes()
	if n == 0 {
		return nil
	}
	pr := make([]float64, n)
	next := make([]float64, n)
	contrib := make([]float64, n)
	parFill(pr, 1.0/float64(n))

	nb := extNumBlocks(n)
	for it := 0; it < iters; it++ {
		// The dangling-mass reduction is the one float sum whose order
		// affects the result; spread folds it exactly as pageRankFlat
		// does, so base is bit-equal.
		dangling := spread(v, contrib, pr, true)
		base := (1-damping)/float64(n) + damping*dangling/float64(n)
		par.ForEach(nb, func(b int) {
			lo := b * extBlockSize
			hi := min(lo+extBlockSize, n)
			extBlocksScanned.Add(1)
			for i := lo; i < hi; i++ {
				next[i] = base + damping*gather(v, contrib, i)
			}
		})
		pr, next = next, pr
	}
	return pr
}

// WCCExt is WCCView in semi-external style: the union-find parent array is
// the in-memory vertex state and the out-edge arena is streamed block by
// block in one ascending pass. Blocks whose vertex range holds no
// out-edges are skipped from the offset vector alone. Unions happen in the
// same (u ascending, Out(u) order) sequence as WCCView, so the component
// labeling is identical.
func WCCExt(v *graph.View) Components {
	defer report(timed("wcc_ext"))
	n := v.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	var find func(x int32) int32
	find = func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]]
			x = parent[x]
		}
		return x
	}
	nb := extNumBlocks(n)
	for b := 0; b < nb; b++ {
		lo := int32(b * extBlockSize)
		hi := int32(min(int(lo)+extBlockSize, n))
		if v.OutEdgesIn(lo, hi) == 0 {
			extBlocksSkipped.Add(1)
			continue
		}
		extBlocksScanned.Add(1)
		for u := lo; u < hi; u++ {
			for _, w := range v.Out(u) {
				ra, rb := find(u), find(w)
				if ra != rb {
					parent[ra] = rb
				}
			}
		}
	}
	return labelComponents(v.IDs(), func(i int32) int32 { return find(i) })
}

// BFSExt is BFSView in semi-external style: a level-synchronous sweep
// whose frontier, distances and per-block active counts live in memory.
// Each level scans only the blocks holding frontier vertices — on graphs
// with small or shrinking frontiers most blocks are skipped each level,
// which is where selective scheduling actually pays. Hop distances are
// identical to BFSView (both compute true BFS levels).
func BFSExt(v *graph.View, src int64, dir EdgeDir) map[int64]int {
	defer report(timed("bfs_ext"))
	s, ok := v.Index(src)
	if !ok {
		return nil
	}
	n := v.NumNodes()
	dist := make([]int32, n)
	for i := range dist {
		dist[i] = -1
	}
	dist[s] = 0

	nb := extNumBlocks(n)
	cur := make([]bool, n)
	nxt := make([]bool, n)
	active := make([]int32, nb)
	nextActive := make([]int32, nb)
	cur[s] = true
	active[int(s)/extBlockSize] = 1
	remaining := 1

	for level := int32(0); remaining > 0; level++ {
		remaining = 0
		for b := 0; b < nb; b++ {
			if active[b] == 0 {
				extBlocksSkipped.Add(1)
				continue
			}
			extBlocksScanned.Add(1)
			lo := b * extBlockSize
			hi := min(lo+extBlockSize, n)
			for i := lo; i < hi; i++ {
				if !cur[i] {
					continue
				}
				expand := func(nbrs []int32) {
					for _, w := range nbrs {
						if dist[w] < 0 {
							dist[w] = level + 1
							nxt[w] = true
							nextActive[int(w)/extBlockSize]++
							remaining++
						}
					}
				}
				if dir == Out || dir == Both {
					expand(v.Out(int32(i)))
				}
				if dir == In || dir == Both {
					expand(v.In(int32(i)))
				}
			}
		}
		cur, nxt = nxt, cur
		active, nextActive = nextActive, active
		clear(nxt)
		clear(nextActive)
	}

	out := make(map[int64]int)
	for i, dv := range dist {
		if dv >= 0 {
			out[v.ID(int32(i))] = int(dv)
		}
	}
	return out
}
