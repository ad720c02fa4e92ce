package graph

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"os"
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

	// maxBinaryCount rejects node/edge counts no real dataset reaches
	// (2^44 ≈ 17 trillion): a header claiming more is corrupt, and
	// trusting it would mean absurd allocations before the stream runs
	// dry. maxBinaryPrealloc additionally bounds how far any decoded
	// count is trusted for pre-allocation; slices grow by append beyond
	// it, so even a plausible-looking lie costs reads, not memory.
	maxBinaryCount    = 1 << 44
	maxBinaryPrealloc = 1 << 20
)

// SaveBinary writes g in the binary graph format.
func SaveBinary(w io.Writer, g *Directed) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(binaryMagic); err != nil {
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := writeU32(binaryVersion); err != nil {
		return err
	}
	nodes := g.Nodes()
	if err := writeU64(uint64(len(nodes))); err != nil {
		return err
	}
	if err := writeU64(uint64(g.NumEdges())); err != nil {
		return err
	}
	for _, id := range nodes {
		if err := writeU64(uint64(id)); err != nil {
			return err
		}
		out := g.OutNeighbors(id)
		if err := writeU32(uint32(len(out))); err != nil {
			return err
		}
		for _, dst := range out {
			if err := writeU64(uint64(dst)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadBinary reads a graph written by SaveBinary.
func LoadBinary(r io.Reader) (*Directed, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != binaryMagic {
		return nil, fmt.Errorf("graph: not a Ringo binary graph (magic %q)", magic)
	}
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	version, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	nNodes, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	nEdges, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	if nNodes > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible node count %d", nNodes)
	}
	if nEdges > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible edge count %d", nEdges)
	}

	prealloc := clampPrealloc(nNodes)
	ids := make([]int64, 0, prealloc)
	outs := make([][]int64, 0, prealloc)
	inDeg := make(map[int64]int, prealloc)
	// Degrees are checked against the edge budget the header declared,
	// and adjacency vectors start at a capped capacity and grow by
	// append: a corrupt degree costs reads until the stream runs dry,
	// never an oversized up-front allocation.
	remaining := nEdges
	for i := uint64(0); i < nNodes; i++ {
		idU, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		id := int64(idU)
		deg, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading degree of node %d: %w", id, err)
		}
		if uint64(deg) > remaining {
			return nil, fmt.Errorf("graph: node %d declares degree %d with only %d of %d edges unclaimed", id, deg, remaining, nEdges)
		}
		remaining -= uint64(deg)
		out := make([]int64, 0, clampPrealloc(uint64(deg)))
		for j := uint32(0); j < deg; j++ {
			dstU, err := readU64()
			if err != nil {
				return nil, fmt.Errorf("graph: reading edges of node %d: %w", id, err)
			}
			out = append(out, int64(dstU))
			inDeg[int64(dstU)]++
		}
		ids = append(ids, id)
		outs = append(outs, out)
	}
	if remaining != 0 {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", nEdges, nEdges-remaining)
	}

	// Reconstruct sorted in-vectors with exact sizing, then bulk-build.
	idx := make(map[int64]int, len(ids))
	ins := make([][]int64, len(ids))
	for i, id := range ids {
		idx[id] = i
		if d := inDeg[id]; d > 0 {
			ins[i] = make([]int64, 0, d)
		}
	}
	for i, id := range ids {
		for _, dst := range outs[i] {
			j, ok := idx[dst]
			if !ok {
				return nil, fmt.Errorf("graph: edge %d->%d targets unknown node", id, dst)
			}
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

// SaveBinaryFile is SaveBinary writing to the named file.
func SaveBinaryFile(path string, g *Directed) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := SaveBinary(f, g); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func clampPrealloc(n uint64) int {
	if n > maxBinaryPrealloc {
		return maxBinaryPrealloc
	}
	return int(n)
}

// SaveBinaryUndirected writes g in the binary graph format's undirected
// variant: magic "RNGU", version u32, node count u64, edge count u64, then
// per node (ascending id): id i64, degree u32, sorted neighbor ids i64...
// Each non-loop edge appears in both endpoints' vectors, a self-loop once,
// mirroring the in-memory representation.
func SaveBinaryUndirected(w io.Writer, g *Undirected) error {
	bw := bufio.NewWriter(w)
	if _, err := bw.WriteString(undirectedMagic); err != nil {
		return err
	}
	var scratch [8]byte
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := bw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:], v)
		_, err := bw.Write(scratch[:])
		return err
	}
	if err := writeU32(binaryVersion); err != nil {
		return err
	}
	nodes := g.Nodes()
	if err := writeU64(uint64(len(nodes))); err != nil {
		return err
	}
	if err := writeU64(uint64(g.NumEdges())); err != nil {
		return err
	}
	for _, id := range nodes {
		if err := writeU64(uint64(id)); err != nil {
			return err
		}
		adj := g.Neighbors(id)
		if err := writeU32(uint32(len(adj))); err != nil {
			return err
		}
		for _, nbr := range adj {
			if err := writeU64(uint64(nbr)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadBinaryUndirected reads a graph written by SaveBinaryUndirected, with
// the same corruption guards as LoadBinary: truncation, absurd counts and
// over-long degrees error out before any oversized allocation.
func LoadBinaryUndirected(r io.Reader) (*Undirected, error) {
	br := bufio.NewReader(r)
	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return nil, fmt.Errorf("graph: reading magic: %w", err)
	}
	if string(magic) != undirectedMagic {
		return nil, fmt.Errorf("graph: not a Ringo undirected binary graph (magic %q)", magic)
	}
	var scratch [8]byte
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(br, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(br, scratch[:]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:]), nil
	}
	version, err := readU32()
	if err != nil {
		return nil, fmt.Errorf("graph: reading version: %w", err)
	}
	if version != binaryVersion {
		return nil, fmt.Errorf("graph: unsupported binary version %d", version)
	}
	nNodes, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading node count: %w", err)
	}
	nEdges, err := readU64()
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge count: %w", err)
	}
	if nNodes > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible node count %d", nNodes)
	}
	if nEdges > maxBinaryCount {
		return nil, fmt.Errorf("graph: implausible edge count %d", nEdges)
	}

	prealloc := clampPrealloc(nNodes)
	ids := make([]int64, 0, prealloc)
	adjs := make([][]int64, 0, prealloc)
	// Each edge contributes at most two vector entries (one for a loop).
	remaining := 2 * nEdges
	for i := uint64(0); i < nNodes; i++ {
		idU, err := readU64()
		if err != nil {
			return nil, fmt.Errorf("graph: reading node %d: %w", i, err)
		}
		id := int64(idU)
		deg, err := readU32()
		if err != nil {
			return nil, fmt.Errorf("graph: reading degree of node %d: %w", id, err)
		}
		if uint64(deg) > remaining {
			return nil, fmt.Errorf("graph: node %d declares degree %d beyond the %d-edge budget", id, deg, nEdges)
		}
		remaining -= uint64(deg)
		adj := make([]int64, 0, clampPrealloc(uint64(deg)))
		for j := uint32(0); j < deg; j++ {
			nbrU, err := readU64()
			if err != nil {
				return nil, fmt.Errorf("graph: reading edges of node %d: %w", id, err)
			}
			adj = append(adj, int64(nbrU))
		}
		ids = append(ids, id)
		adjs = append(adjs, adj)
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
