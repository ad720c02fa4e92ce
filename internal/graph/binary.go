package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"ringo/internal/frame"
)

// Binary graph serialization: a compact format that loads an order of
// magnitude faster than re-parsing text edge lists, the same role SNAP's
// binary graph files play in interactive sessions (load once from the
// big-data side of Figure 1, then iterate in memory).
//
// Layout (little endian): magic "RNGO", format version u32, node count u64,
// edge count u64, then per node in strictly ascending id order: id i64,
// out-degree u32, strictly ascending out-neighbor ids i64... SaveBinary
// writes a View's records in its id order, and LoadBinary enforces both
// orders. In-vectors are reconstructed on load.

const (
	binaryMagic   = "RNGO"
	binaryVersion = 1

	// mappedMagic marks the mmap-friendly CSR image written by
	// internal/extmem. This package only sniffs it so stream loaders can
	// point callers at the mapped loader instead of failing on a parse.
	mappedMagic = "RNGM"
)

// SaveBinary writes v in the binary graph format: one record per node in
// the view's ascending id order, its out-vector translated back to ids.
func SaveBinary(w io.Writer, v *View) error {
	fw := frame.NewWriter(w)
	fw.Header(binaryMagic, binaryVersion)
	fw.U64(uint64(len(v.ids)))
	fw.U64(uint64(v.NumEdges()))
	var vec []int64
	for i, id := range v.ids {
		vec = vec[:0]
		for _, x := range v.Out(int32(i)) {
			vec = append(vec, v.ids[x])
		}
		fw.U64(uint64(id))
		fw.U32(uint32(len(vec)))
		fw.Int64s(vec)
	}
	return fw.Flush()
}

// SaveBinaryFile is SaveBinary writing to the named file, which is
// replaced only once the whole graph is written.
func SaveBinaryFile(path string, v *View) error {
	return frame.WriteFile(path, func(w io.Writer) error { return SaveBinary(w, v) })
}

// records is what loadRecords decodes, in flat columns: the node ids in
// record order, and one neighbor column holding record i's out-vector at
// nbrs[off[i]:off[i+1]].
type records struct {
	ids   []int64
	off   []int
	nbrs  []int64
	edges uint64 // the header's edge count
}

// vec returns record i's vector, capped so an append to it cannot reach
// the next record's.
func (a *records) vec(i int) []int64 { return a.nbrs[a.off[i]:a.off[i+1]:a.off[i+1]] }

// loadRecords reads the records SaveBinary writes. Every declared degree
// is checked against the edges the header left unclaimed before it is
// read: a corrupt degree costs reads until the stream runs dry, never an
// oversized allocation.
func loadRecords(r io.Reader) (*records, error) {
	fr := frame.NewReader(r)
	fr.Header(binaryMagic, binaryVersion)
	nNodes := fr.Count("node count")
	nEdges := fr.Count("edge count")
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	a := &records{
		ids:   make([]int64, 0, frame.Prealloc(nNodes)),
		off:   append(make([]int, 0, frame.Prealloc(nNodes)+1), 0),
		nbrs:  make([]int64, 0, frame.Prealloc(nEdges)),
		edges: nEdges,
	}
	for i := uint64(0); i < nNodes; i++ {
		id := int64(fr.U64("node id"))
		deg := uint64(fr.U32("degree"))
		if remaining := nEdges - uint64(len(a.nbrs)); fr.Err() == nil && deg > remaining {
			return nil, fmt.Errorf("graph: node %d declares degree %d with only %d of %d edges unclaimed", id, deg, remaining, nEdges)
		}
		a.nbrs = fr.AppendInt64s("neighbor ids", a.nbrs, deg)
		if err := fr.Err(); err != nil {
			return nil, fmt.Errorf("graph: node record %d: %w", i, err)
		}
		a.ids = append(a.ids, id)
		a.off = append(a.off, len(a.nbrs))
	}
	return a, nil
}

// LoadBinary reads a graph written by SaveBinary straight into its CSR
// view: the records stream into flat columns — the node ids, and one
// (src, dst) pair per out-vector entry — which BuildViewCols builds, no
// per-node vector or hash map on the way. Besides the framing checks of
// loadRecords it rejects an edge count the vectors do not hold, node ids
// out of strictly ascending order, an edge to an undeclared node and an
// out-vector that is not strictly ascending.
func LoadBinary(r io.Reader) (*View, error) {
	a, err := loadRecords(r)
	if err != nil {
		return nil, err
	}
	if held := uint64(len(a.nbrs)); held != a.edges {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", a.edges, held)
	}
	srcs, unsorted := make([]int64, len(a.nbrs)), -1
	for i, id := range a.ids {
		if i > 0 && id <= a.ids[i-1] {
			return nil, fmt.Errorf("graph: node %d follows node %d: ids not strictly ascending", id, a.ids[i-1])
		}
		out := a.vec(i)
		for j := range out {
			srcs[a.off[i]+j] = id
			if j > 0 && out[j] <= out[j-1] && unsorted < 0 {
				unsorted = i
			}
		}
	}
	// Only ids outlives the build, so the columns can go once it has
	// relabelled them.
	ids := a.ids
	v, err := BuildViewCols(srcs, a.nbrs, ids)
	if err != nil {
		return nil, err
	}
	if v.NumNodes() != len(ids) {
		// Every id is a node and every source an id, so the view's extra
		// nodes are targets no record declares: name the smallest, and
		// the edge into it from the smallest source.
		for x, id := range v.ids {
			if x == len(ids) || ids[x] != id {
				return nil, fmt.Errorf("graph: edge %d->%d targets unknown node", v.ids[v.In(int32(x))[0]], id)
			}
		}
	}
	// Reported after an unknown target, which may break its vector's order
	// too.
	if unsorted >= 0 {
		return nil, fmt.Errorf("graph: node %d out-vector not strictly sorted", ids[unsorted])
	}
	return v, nil
}

// LoadFileAuto loads the CSR view of a directed graph from path in
// whichever of the two on-disk formats it is in, sniffing the leading
// magic bytes: files written by SaveBinary load through the fast binary
// path, anything else is parsed as a SNAP-style text edge list by the
// parallel ingest pipeline. This lets
// the shell's loadgraph verb (and the server sessions built on it) read back
// binary files its save verb writes without a format flag, while text edge
// lists load at full-machine speed.
func LoadFileAuto(path string) (*View, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	head, err := br.Peek(len(binaryMagic))
	if err == nil && string(head) == binaryMagic {
		return LoadBinary(br)
	}
	if err == nil && string(head) == mappedMagic {
		// Mapped CSR images are not decoded at all; they are served in
		// place by the extmem loader.
		return nil, fmt.Errorf("graph: %s holds a mapped CSR graph image; decode-style loaders cannot read it (use extmem.OpenMapped)", path)
	}
	return LoadEdgeListParallel(br)
}
