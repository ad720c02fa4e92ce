package graph

import (
	"bufio"
	"fmt"
	"io"
	"os"
	"slices"

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

	// undirectedMagic marks the undirected variant: same framing, one
	// adjacency vector per node instead of an out-vector.
	undirectedMagic = "RNGU"

	// mappedMagic marks the mmap-friendly CSR image written by
	// internal/extmem. This package only sniffs it so stream loaders can
	// point callers at the mapped loader instead of failing on a parse.
	mappedMagic = "RNGM"
)

// SaveBinary writes v in the binary graph format: one record per node in
// the view's ascending id order, its out-vector translated back to ids.
func SaveBinary(w io.Writer, v *View) error {
	var vec []int64
	return saveAdjacency(w, binaryMagic, v.ids, v.NumEdges(), func(i int) []int64 {
		vec = vec[:0]
		for _, x := range v.Out(int32(i)) {
			vec = append(vec, v.ids[x])
		}
		return vec
	})
}

// SaveBinaryUndirected writes v in the binary graph format's undirected
// variant: magic "RNGU", version u32, node count u64, edge count u64, then
// per node (ascending id): id i64, degree u32, sorted neighbor ids i64...
// Each non-loop edge appears in both endpoints' vectors, a self-loop once,
// mirroring the view's adjacency.
func SaveBinaryUndirected(w io.Writer, v *UView) error {
	var vec []int64
	return saveAdjacency(w, undirectedMagic, v.ids, v.NumEdges(), func(i int) []int64 {
		vec = vec[:0]
		for _, x := range v.Adj(int32(i)) {
			vec = append(vec, v.ids[x])
		}
		return vec
	})
}

// SaveBinaryFile is SaveBinary writing to the named file, which is
// replaced only once the whole graph is written.
func SaveBinaryFile(path string, v *View) error {
	return frame.WriteFile(path, func(w io.Writer) error { return SaveBinary(w, v) })
}

// saveAdjacency writes the record layout RNGO and RNGU share: header, node
// and edge counts, then one record per node of nodes (ascending id): id,
// degree and the sorted vector adj returns for the node at that position.
func saveAdjacency(w io.Writer, magic string, nodes []int64, edges int64, adj func(i int) []int64) error {
	fw := frame.NewWriter(w)
	fw.Header(magic, binaryVersion)
	fw.U64(uint64(len(nodes)))
	fw.U64(uint64(edges))
	for i, id := range nodes {
		vec := adj(i)
		fw.U64(uint64(id))
		fw.U32(uint32(len(vec)))
		fw.Int64s(vec)
	}
	return fw.Flush()
}

// adjacency is what loadAdjacency decodes, in flat columns: the node ids
// in record order, and one neighbor column holding record i's vector at
// nbrs[off[i]:off[i+1]].
type adjacency struct {
	ids   []int64
	off   []int
	nbrs  []int64
	edges uint64 // the header's edge count
}

// vec returns record i's vector, capped so an append to it cannot reach
// the next record's.
func (a *adjacency) vec(i int) []int64 { return a.nbrs[a.off[i]:a.off[i+1]:a.off[i+1]] }

// loadAdjacency reads what saveAdjacency writes under magic. Each edge may
// fill up to perEdge vector entries (RNGO 1, RNGU 2 for its two
// endpoints), and every declared degree is checked against the entries the
// header left unclaimed before it is read: a corrupt degree costs reads
// until the stream runs dry, never an oversized allocation.
func loadAdjacency(r io.Reader, magic string, perEdge uint64) (*adjacency, error) {
	fr := frame.NewReader(r)
	fr.Header(magic, binaryVersion)
	nNodes := fr.Count("node count")
	nEdges := fr.Count("edge count")
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("graph: %w", err)
	}
	budget := perEdge * nEdges
	a := &adjacency{
		ids:   make([]int64, 0, frame.Prealloc(nNodes)),
		off:   append(make([]int, 0, frame.Prealloc(nNodes)+1), 0),
		nbrs:  make([]int64, 0, frame.Prealloc(budget)),
		edges: nEdges,
	}
	for i := uint64(0); i < nNodes; i++ {
		id := int64(fr.U64("node id"))
		deg := uint64(fr.U32("degree"))
		if remaining := budget - uint64(len(a.nbrs)); fr.Err() == nil && deg > remaining {
			return nil, fmt.Errorf("graph: node %d declares degree %d with only %d of %d entries unclaimed", id, deg, remaining, budget)
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
// loadAdjacency it rejects an edge count the vectors do not hold, node ids
// out of strictly ascending order, an edge to an undeclared node and an
// out-vector that is not strictly ascending.
func LoadBinary(r io.Reader) (*View, error) {
	a, err := loadAdjacency(r, binaryMagic, 1)
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

// LoadBinaryUndirected reads a graph written by SaveBinaryUndirected
// straight into its CSR view: the records' neighbor ids are translated to
// dense indices in place of a per-node vector. Besides the framing checks
// of loadAdjacency it rejects the reserved id, node ids out of strictly
// ascending order, a neighbor that is no node, a vector that is not
// strictly ascending, an edge missing from its other endpoint's vector and
// an edge count the vectors do not hold.
func LoadBinaryUndirected(r io.Reader) (*UView, error) {
	a, err := loadAdjacency(r, undirectedMagic, 2)
	if err != nil {
		return nil, err
	}
	n := len(a.ids)
	v := &UView{ids: a.ids, off: make([]int64, n+1), arena: make([]int32, len(a.nbrs))}
	for i, id := range a.ids {
		if id == tombstone {
			return nil, fmt.Errorf("graph: node id %d reserved", id)
		}
		if i > 0 && id <= a.ids[i-1] {
			return nil, fmt.Errorf("graph: node %d follows node %d: ids not strictly ascending", id, a.ids[i-1])
		}
		v.off[i+1] = int64(a.off[i+1])
	}
	var halves uint64
	for i, id := range a.ids {
		for j, nbr := range a.vec(i) {
			x, ok := v.Index(nbr)
			if !ok {
				return nil, fmt.Errorf("graph: edge {%d,%d} points at missing node", id, nbr)
			}
			if j > 0 && x <= v.arena[a.off[i]+j-1] {
				return nil, fmt.Errorf("graph: node %d vector not strictly sorted", id)
			}
			v.arena[a.off[i]+j] = x
			halves++
			if nbr == id {
				halves++ // a self-loop is stored once
			}
		}
	}
	for u := range int32(n) {
		for _, x := range v.Adj(u) {
			if _, found := slices.BinarySearch(v.Adj(x), u); !found {
				return nil, fmt.Errorf("graph: edge {%d,%d} not symmetric", v.ids[u], v.ids[x])
			}
		}
	}
	if halves/2 != a.edges {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", a.edges, halves/2)
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
	if err == nil && string(head) == undirectedMagic {
		// Feeding these bytes to the text parser would produce a baffling
		// integer-parse error; name the actual mismatch instead.
		return nil, fmt.Errorf("graph: %s holds an undirected binary graph; this loader builds directed graphs (use LoadBinaryUndirected)", path)
	}
	if err == nil && string(head) == mappedMagic {
		// Mapped CSR images are not decoded at all; they are served in
		// place by the extmem loader.
		return nil, fmt.Errorf("graph: %s holds a mapped CSR graph image; decode-style loaders cannot read it (use extmem.OpenMapped)", path)
	}
	return LoadEdgeListParallel(br)
}
