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
// edge count u64, then per node: id i64, out-degree u32, out-neighbor ids
// i64... In-vectors are reconstructed on load.

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

// SaveBinary writes g in the binary graph format.
func SaveBinary(w io.Writer, g *Directed) error {
	return saveAdjacency(w, binaryMagic, g.Nodes(), g.NumEdges(), g.OutNeighbors)
}

// SaveBinaryUndirected writes g in the binary graph format's undirected
// variant: magic "RNGU", version u32, node count u64, edge count u64, then
// per node (ascending id): id i64, degree u32, sorted neighbor ids i64...
// Each non-loop edge appears in both endpoints' vectors, a self-loop once,
// mirroring the in-memory representation.
func SaveBinaryUndirected(w io.Writer, g *Undirected) error {
	return saveAdjacency(w, undirectedMagic, g.Nodes(), g.NumEdges(), g.Neighbors)
}

// SaveBinaryFile is SaveBinary writing to the named file, which is
// replaced only once the whole graph is written.
func SaveBinaryFile(path string, g *Directed) error {
	return frame.WriteFile(path, func(w io.Writer) error { return SaveBinary(w, g) })
}

// saveAdjacency writes the record layout RNGO and RNGU share: header, node
// and edge counts, then one record per node of nodes (ascending id): id,
// degree and the sorted vector adj returns for it.
func saveAdjacency(w io.Writer, magic string, nodes []int64, edges int64, adj func(int64) []int64) error {
	fw := frame.NewWriter(w)
	fw.Header(magic, binaryVersion)
	fw.U64(uint64(len(nodes)))
	fw.U64(uint64(edges))
	for _, id := range nodes {
		vec := adj(id)
		fw.U64(uint64(id))
		fw.U32(uint32(len(vec)))
		fw.Int64s(vec)
	}
	return fw.Flush()
}

// loadAdjacency reads what saveAdjacency writes under magic, returning the
// node ids, their vectors and the header's edge count. Each edge may fill
// up to perEdge vector entries (RNGO 1, RNGU 2 for its two endpoints), and
// every declared degree is checked against the entries the header left
// unclaimed before it is read: a corrupt degree costs reads until the
// stream runs dry, never an oversized allocation.
func loadAdjacency(r io.Reader, magic string, perEdge uint64) (ids []int64, vecs [][]int64, nEdges uint64, err error) {
	fr := frame.NewReader(r)
	fr.Header(magic, binaryVersion)
	nNodes := fr.Count("node count")
	nEdges = fr.Count("edge count")
	if err := fr.Err(); err != nil {
		return nil, nil, 0, fmt.Errorf("graph: %w", err)
	}
	ids = make([]int64, 0, frame.Prealloc(nNodes))
	vecs = make([][]int64, 0, frame.Prealloc(nNodes))
	budget := perEdge * nEdges
	remaining := budget
	for i := uint64(0); i < nNodes; i++ {
		id := int64(fr.U64("node id"))
		deg := uint64(fr.U32("degree"))
		if fr.Err() == nil && deg > remaining {
			return nil, nil, 0, fmt.Errorf("graph: node %d declares degree %d with only %d of %d entries unclaimed", id, deg, remaining, budget)
		}
		remaining -= deg
		vec := fr.Int64s("neighbor ids", deg)
		if err := fr.Err(); err != nil {
			return nil, nil, 0, fmt.Errorf("graph: node record %d: %w", i, err)
		}
		ids = append(ids, id)
		vecs = append(vecs, vec)
	}
	return ids, vecs, nEdges, nil
}

// LoadBinary reads a graph written by SaveBinary.
func LoadBinary(r io.Reader) (*Directed, error) {
	ids, outs, nEdges, err := loadAdjacency(r, binaryMagic, 1)
	if err != nil {
		return nil, err
	}
	idx := make(map[int64]int, len(ids))
	for i, id := range ids {
		idx[id] = i
	}
	inDeg := make([]int, len(ids))
	held := uint64(0)
	for i, out := range outs {
		held += uint64(len(out))
		for _, dst := range out {
			j, ok := idx[dst]
			if !ok {
				return nil, fmt.Errorf("graph: edge %d->%d targets unknown node", ids[i], dst)
			}
			inDeg[j]++
		}
	}
	if held != nEdges {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", nEdges, held)
	}

	// Reconstruct sorted in-vectors with exact sizing, then bulk-build.
	ins := make([][]int64, len(ids))
	for j, d := range inDeg {
		if d > 0 {
			ins[j] = make([]int64, 0, d)
		}
	}
	for i, id := range ids {
		for _, dst := range outs[i] {
			j := idx[dst]
			ins[j] = append(ins[j], id)
		}
	}
	// ids are saved ascending, so appends above produced sorted in-vectors.
	g, err := BuildDirectedBulk(ids, ins, outs)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary file inconsistent: %w", err)
	}
	return g, nil
}

// LoadBinaryUndirected reads a graph written by SaveBinaryUndirected, with
// the same corruption guards as LoadBinary: truncation, absurd counts and
// over-long degrees error out before any oversized allocation.
func LoadBinaryUndirected(r io.Reader) (*Undirected, error) {
	ids, adjs, nEdges, err := loadAdjacency(r, undirectedMagic, 2)
	if err != nil {
		return nil, err
	}
	g, err := BuildUndirectedBulk(ids, adjs)
	if err != nil {
		return nil, err
	}
	if g.NumEdges() != int64(nEdges) {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", nEdges, g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: undirected binary file inconsistent: %w", err)
	}
	return g, nil
}

// LoadFileAuto loads a directed graph from path in whichever of the two
// on-disk formats it is in, sniffing the leading magic bytes: files written
// by SaveBinary load through the fast binary path, anything else is parsed
// as a SNAP-style text edge list by the parallel ingest pipeline. This lets
// the shell's loadgraph verb (and the server sessions built on it) read back
// binary files its save verb writes without a format flag, while text edge
// lists load at full-machine speed.
func LoadFileAuto(path string) (*Directed, error) {
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
		// Mapped CSR images are not decoded into a Directed at all; they
		// are served in place by the extmem loader.
		return nil, fmt.Errorf("graph: %s holds a mapped CSR graph image; decode-style loaders cannot read it (use extmem.OpenMapped)", path)
	}
	return LoadEdgeListParallel(br)
}
