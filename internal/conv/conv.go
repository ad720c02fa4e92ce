// Package conv implements Ringo's fast conversions between tables and
// graphs (§2.4 of Perez et al., SIGMOD 2015).
//
// Table to graph uses the paper's "sort-first" algorithm, here a dense
// relabel plus a counting sort straight into the CSR form algorithms run
// over (graph.BuildViewCols): every node id is mapped to a dense index in
// ascending id order, two stable counting passes over those indices sort
// the edges by (source, destination), each source's run is deduplicated
// into the out-arrays and a counting transpose yields the in-arrays. Exact
// degrees fall out of the counts, so nothing is guessed or resized, and no
// hash table sits on the path. The undirected form of a table is the
// projection of that view (graph.ProjectUView). ToDirected, which thaws
// the view into a hash-of-nodes graph (graph.FromView), is kept for the
// benchmark module's workspace binding only.
//
// Graph to table walks the CSR view: its offsets are the output row
// ranges, so workers fill disjoint slices of the pre-allocated columns.
package conv

import (
	"fmt"

	"ringo/internal/graph"
	"ringo/internal/par"
	"ringo/internal/table"
)

// ToView converts an edge table to the CSR view of its directed graph,
// the form tograph binds. srcCol and dstCol name the edge source and
// destination columns; they must be Int or String columns (string cells
// become nodes identified by their pool ids). Duplicate rows collapse to a
// single edge.
func ToView(t *table.Table, srcCol, dstCol string) (*graph.View, error) {
	srcs, dsts, err := edgeColumns(t, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	return graph.BuildViewCols(srcs, dsts, nil)
}

// ToDirected converts an edge table to a dynamic directed graph: the
// sort-first build of ToView, thawed into a hash of nodes (graph.FromView)
// in O(V+E) by graph.BuildDirectedCols. Columns and duplicates are treated
// as by ToView.
func ToDirected(t *table.Table, srcCol, dstCol string) (*graph.Directed, error) {
	srcs, dsts, err := edgeColumns(t, srcCol, dstCol)
	if err != nil {
		return nil, err
	}
	return graph.BuildDirectedCols(srcs, dsts)
}

// ToEdgeTable converts the CSR view of a directed graph to an edge table
// with the given column names. The view's offsets are the output row
// ranges, so workers receive disjoint node partitions and write disjoint
// pre-allocated output ranges in parallel without synchronization. Edges
// are emitted in (source, destination) sorted order.
func ToEdgeTable(v *graph.View, srcName, dstName string) (*table.Table, error) {
	ids, off, _, out, _ := v.ViewParts()
	srcCol := make([]int64, len(out))
	dstCol := make([]int64, len(out))
	par.For(len(ids), func(lo, hi int) {
		for u := lo; u < hi; u++ {
			for j := off[u]; j < off[u+1]; j++ {
				srcCol[j], dstCol[j] = ids[u], ids[out[j]]
			}
		}
	})
	return table.FromIntColumns([]string{srcName, dstName}, [][]int64{srcCol, dstCol})
}

// edgeColumns fetches the two node-id columns backing an edge table.
func edgeColumns(t *table.Table, srcCol, dstCol string) (srcs, dsts []int64, err error) {
	srcs, err = t.IntCol(srcCol)
	if err != nil {
		return nil, nil, fmt.Errorf("conv: source column: %w", err)
	}
	dsts, err = t.IntCol(dstCol)
	if err != nil {
		return nil, nil, fmt.Errorf("conv: destination column: %w", err)
	}
	return srcs, dsts, nil
}
