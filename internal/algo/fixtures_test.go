package algo

import (
	"maps"
	"slices"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// directed is the CSR view of the directed graph with the given edges plus
// isolated nodes.
func directed(edges [][2]int64, nodes ...int64) *graph.View {
	srcs, dsts := make([]int64, len(edges)), make([]int64, len(edges))
	for i, e := range edges {
		srcs[i], dsts[i] = e[0], e[1]
	}
	v, err := graph.BuildViewCols(srcs, dsts, nodes)
	if err != nil {
		panic(err)
	}
	return v
}

// edgesOf lists the edges of a directed view in (src, dst) order.
func edgesOf(v *graph.View) [][2]int64 {
	var edges [][2]int64
	for u := int32(0); int(u) < v.NumNodes(); u++ {
		for _, x := range v.Out(u) {
			edges = append(edges, [2]int64{v.ID(u), v.ID(x)})
		}
	}
	return edges
}

// undirected is the CSR view of the undirected graph with the given edges
// plus isolated nodes: the directed view of one arc per edge, projected.
func undirected(edges [][2]int64, nodes ...int64) *graph.UView {
	return graph.ProjectUView(directed(edges, nodes...))
}

// clique is the edge list of the complete graph on ids 0..n-1.
func clique(n int) [][2]int64 {
	var edges [][2]int64
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			edges = append(edges, [2]int64{int64(i), int64(j)})
		}
	}
	return edges
}

// pathGraph is the directed path 0->1->...->n-1 plus the extra edges.
func pathGraph(n int, extra ...[2]int64) *graph.View {
	for i := 0; i < n-1; i++ {
		extra = append(extra, [2]int64{int64(i), int64(i + 1)})
	}
	return directed(extra)
}

// rmatGraph is the directed view of an R-MAT edge list with the
// benchmark's parameters.
func rmatGraph(scale int, edges, seed int64) *graph.View {
	src, dst := gen.RMATEdges(scale, edges, 0.57, 0.19, 0.19, seed)
	v, err := graph.BuildViewCols(src, dst, nil)
	if err != nil {
		panic(err)
	}
	return v
}

// edgeSet is a per-edge model graph that grows and shrinks one edge at a
// time: its nodes, and its edges keyed (src, dst), or (min, max) when
// undirected. A node stays when its last edge goes.
type edgeSet struct {
	undirected bool
	nodes      map[int64]bool
	edges      map[[2]int64]bool
}

func newEdgeSet(undirected bool) edgeSet {
	return edgeSet{undirected, map[int64]bool{}, map[[2]int64]bool{}}
}

// addNode adds id, reporting whether it was new.
func (m edgeSet) addNode(id int64) bool {
	if m.nodes[id] {
		return false
	}
	m.nodes[id] = true
	return true
}

// set adds or deletes the edge from a to b, reporting whether that changed
// the graph.
func (m edgeSet) set(add bool, a, b int64) bool {
	k := [2]int64{a, b}
	if m.undirected {
		k = [2]int64{min(a, b), max(a, b)}
	}
	if m.edges[k] == add {
		return false
	}
	if add {
		m.edges[k], m.nodes[a], m.nodes[b] = true, true, true
	} else {
		delete(m.edges, k)
	}
	return true
}

func (m edgeSet) view() *graph.View {
	return directed(slices.Collect(maps.Keys(m.edges)), slices.Collect(maps.Keys(m.nodes))...)
}

func (m edgeSet) uview() *graph.UView { return graph.ProjectUView(m.view()) }
