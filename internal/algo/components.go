package algo

import (
	"ringo/internal/graph"
)

// Components is the result of a component decomposition: a component per
// node of the view it was computed on (Comp[i] is the component of IDs[i],
// numbered densely from 0 by first appearance in ascending id order), the
// number of components, and the size of the largest one.
type Components struct {
	IDs     []int64 // the view's ascending id vector, shared: read-only
	Comp    []int32
	Count   int
	MaxSize int
}

// Label returns each node's component keyed by node id, for callers that
// look components up by id (the facade's TableFromIntMap).
func (c Components) Label() map[int64]int {
	label := make(map[int64]int, len(c.IDs))
	for i, id := range c.IDs {
		label[id] = int(c.Comp[i])
	}
	return label
}

// WCCView computes weakly connected components of a directed graph (edge
// direction ignored) with a union-find over the dense node space. Each
// union links the larger root under the smaller, so every root is its
// tree's lowest index, and the scan keeps u's root at hand across u's
// out-edges instead of finding it again per edge.
func WCCView(v *graph.View) Components {
	defer report(timed("wcc"))
	n := v.NumNodes()
	parent := make([]int32, n)
	for i := range parent {
		parent[i] = int32(i)
	}
	find := func(x int32) int32 {
		for parent[x] != x {
			parent[x] = parent[parent[x]] // path halving
			x = parent[x]
		}
		return x
	}
	for u := range int32(n) {
		ru := find(u)
		for _, w := range v.Out(u) {
			if rw := find(w); rw < ru {
				parent[ru], ru = rw, rw
			} else if ru < rw {
				parent[rw] = ru
			}
		}
	}
	return labelComponents(v.IDs(), n, find)
}

// SCCView computes strongly connected components with an iterative Tarjan
// algorithm (explicit stack, so million-node graphs do not overflow the
// goroutine stack). This is the sequential SCC benchmarked in Table 6.
func SCCView(v *graph.View) Components {
	defer report(timed("scc"))
	n := v.NumNodes()
	const unvisited = -1
	index := make([]int32, n)
	low := make([]int32, n)
	onStack := make([]bool, n)
	comp := make([]int32, n)
	for i := range index {
		index[i] = unvisited
		comp[i] = unvisited
	}
	var next int32
	var nComp int32
	stack := make([]int32, 0, 256)

	// Explicit DFS frames: node and position within its out list.
	type frame struct {
		node int32
		pos  int
	}
	frames := make([]frame, 0, 256)

	for root := 0; root < n; root++ {
		if index[root] != unvisited {
			continue
		}
		frames = append(frames, frame{int32(root), 0})
		index[root] = next
		low[root] = next
		next++
		stack = append(stack, int32(root))
		onStack[root] = true

		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			u := f.node
			out := v.Out(u)
			if f.pos < len(out) {
				w := out[f.pos]
				f.pos++
				if index[w] == unvisited {
					index[w] = next
					low[w] = next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{w, 0})
				} else if onStack[w] && index[w] < low[u] {
					low[u] = index[w]
				}
				continue
			}
			// u finished: pop frame, close component if root.
			frames = frames[:len(frames)-1]
			if low[u] == index[u] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = nComp
					if w == u {
						break
					}
				}
				nComp++
			}
			if len(frames) > 0 {
				p := frames[len(frames)-1].node
				if low[u] < low[p] {
					low[p] = low[u]
				}
			}
		}
	}
	return labelComponents(v.IDs(), n, func(i int32) int32 { return comp[i] })
}

// labelComponents converts per-dense-index raw labels, each below span,
// into dense component ids, numbered by the first dense index carrying
// them, with count and max-size statistics.
func labelComponents(ids []int64, span int, rawLabel func(i int32) int32) Components {
	remap := make([]int32, span) // raw label -> component id + 1
	comp := make([]int32, len(ids))
	sizes := []int{}
	for i := range ids {
		raw := rawLabel(int32(i))
		c := remap[raw] - 1
		if c < 0 {
			c = int32(len(sizes))
			remap[raw] = c + 1
			sizes = append(sizes, 0)
		}
		comp[i] = c
		sizes[c]++
	}
	maxSize := 0
	for _, s := range sizes {
		if s > maxSize {
			maxSize = s
		}
	}
	return Components{IDs: ids, Comp: comp, Count: len(sizes), MaxSize: maxSize}
}
