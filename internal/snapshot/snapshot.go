// Package snapshot serializes an entire Ringo workspace — tables, directed
// and undirected graphs, score vectors, and each binding's provenance and
// version — into a single versioned binary file, and restores it. This is
// the durability layer the paper's big-memory service model implies: a
// preprocessed session is saved once and reloaded in seconds on restart
// instead of being rebuilt from raw text inputs.
//
// # File format (little endian)
//
//	magic   "RNGS"
//	version u32 (currently 3)
//	clock   u64   workspace version clock at snapshot time
//	count   u32   number of object frames
//
// followed by one frame per object, in workspace binding order:
//
//	name      u32 length + bytes
//	prov      u32 length + bytes   provenance string ("" if untracked)
//	version   u64                  the binding's workspace version
//	kind      u8                   1 table, 2 graph, 3 ugraph, 4 scores
//	paylen    u64                  payload byte count
//	checksum  u64                  xhash.Checksum64 of the payload bytes, read as 8-byte words
//	payload   paylen bytes
//
// Tables embed the columnar format of table.EncodeBinary (shared string
// pool, then 8-aligned row-id and column blocks), and score vectors are
// (i64, f64) pairs in strictly ascending id order behind a u64 count. A
// graph record is its CSR view's own arrays, the sections of an RNGM image
// (internal/extmem): a u64 node count n and a u64 entry count e, then
//
//	graph:  ids i64[n], outOff i64[n+1], inOff i64[n+1], out i32[e], in i32[e]
//	ugraph: ids i64[n], off i64[n+1], arena i32[e]
//
// each zero-padded to a multiple of 8 bytes. A payload is read into one
// allocation, so its sections are aligned: Read aliases them as the view's
// arrays (frame.Section) and validates them (graph.ViewFromArrays,
// graph.UViewFromArrays) — no sort, no id lookup, no copy — and a table's
// row ids and columns the same way (table.DecodeBinary). Every frame is
// independently length-prefixed and checksummed, so corruption is detected
// per object — errors name the failing object — and frames can be encoded
// and decoded in parallel (internal/par), one worker per object.
package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ringo/internal/algo"
	"ringo/internal/frame"
	"ringo/internal/graph"
	"ringo/internal/par"
	"ringo/internal/table"
	"ringo/internal/xhash"
)

const (
	// Magic identifies a Ringo workspace snapshot file.
	Magic = "RNGS"
	// Version is the current snapshot format version. Version 1 embedded
	// graphs as per-node adjacency records; version 2 checksummed
	// payloads with a byte-serial FNV-1a and embedded RTBL version 1
	// tables. Files of either are refused.
	Version = 3

	kindTable  = 1
	kindGraph  = 2
	kindUGraph = 3
	kindScores = 4
)

// Object is one workspace binding in transit: its name, provenance string,
// version, and exactly one non-nil value field. It mirrors core.Object
// without importing core, so the dependency points outward (core wires
// snapshots into Workspace; this package stays reusable below it).
type Object struct {
	Name       string
	Provenance string
	Version    uint64

	Table  *table.Table
	View   *graph.View  // a directed graph, as its CSR view
	UView  *graph.UView // an undirected graph, as its CSR view
	Scores algo.Scores
}

func (o *Object) kind() (byte, error) {
	switch {
	case o.Table != nil:
		return kindTable, nil
	case o.View != nil:
		return kindGraph, nil
	case o.UView != nil:
		return kindUGraph, nil
	case o.Scores != nil:
		return kindScores, nil
	default:
		return 0, fmt.Errorf("snapshot: object %q holds no value", o.Name)
	}
}

// Write serializes objs (with the workspace clock) to w. Object payloads
// are encoded and checksummed concurrently, one goroutine per par worker,
// then frames are written out in binding order.
func Write(w io.Writer, clock uint64, objs []Object) error {
	payloads := make([][]byte, len(objs))
	sums := make([]uint64, len(objs))
	errs := make([]error, len(objs))
	par.ForEach(len(objs), func(i int) {
		payloads[i], errs[i] = encodePayload(&objs[i])
		sums[i] = xhash.Checksum64(payloads[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("snapshot: object %q: %w", objs[i].Name, err)
		}
	}

	fw := frame.NewWriter(w)
	fw.Header(Magic, Version)
	fw.U64(clock)
	fw.U32(uint32(len(objs)))
	for i := range objs {
		o := &objs[i]
		kind, err := o.kind()
		if err != nil {
			return err
		}
		fw.String(o.Name)
		fw.String(o.Provenance)
		fw.U64(o.Version)
		fw.U8(kind)
		fw.U64(uint64(len(payloads[i])))
		fw.U64(sums[i])
		fw.Bytes(payloads[i])
	}
	return fw.Flush()
}

func encodePayload(o *Object) ([]byte, error) {
	var buf bytes.Buffer
	switch {
	case o.Table != nil:
		if err := o.Table.EncodeBinary(&buf); err != nil {
			return nil, err
		}
	case o.View != nil:
		ids, outOff, inOff, out, in := o.View.ViewParts()
		return encodeCSR(len(ids), len(out), frame.Image(ids), frame.Image(outOff), frame.Image(inOff), frame.Image(out), frame.Image(in)), nil
	case o.UView != nil:
		ids, off, arena := o.UView.UViewParts()
		return encodeCSR(len(ids), len(arena), frame.Image(ids), frame.Image(off), frame.Image(arena)), nil
	case o.Scores != nil:
		return encodeScores(o.Scores), nil
	default:
		return nil, fmt.Errorf("holds no value")
	}
	return buf.Bytes(), nil
}

// encodeCSR lays out a graph record: the node count n and entry count e,
// then each section, zero-padded to a multiple of 8 bytes.
func encodeCSR(n, e int, sections ...[]byte) []byte {
	size := int64(16)
	for _, sec := range sections {
		size += pad8(int64(len(sec)))
	}
	out := make([]byte, size)
	binary.LittleEndian.PutUint64(out, uint64(n))
	binary.LittleEndian.PutUint64(out[8:], uint64(e))
	at := int64(16)
	for _, sec := range sections {
		copy(out[at:], sec)
		at += pad8(int64(len(sec)))
	}
	return out
}

func pad8(n int64) int64 { return (n + 7) &^ 7 }

// csrSections checks a graph record's length against the counts it opens
// with and returns its arrays over the payload's own memory, aliased where
// it is aligned for them: the ids, then vectors offset vectors and vectors
// neighbor arrays (2 of each for a directed view, 1 for an undirected one).
// The caller validates them.
func csrSections(p []byte, vectors int64) (ids []int64, offs [][]int64, arenas [][]int32, err error) {
	if len(p) < 16 {
		return nil, nil, nil, fmt.Errorf("graph record truncated at %d bytes", len(p))
	}
	n, e := binary.LittleEndian.Uint64(p), binary.LittleEndian.Uint64(p[8:])
	if n > frame.MaxCount || e > frame.MaxCount {
		return nil, nil, nil, fmt.Errorf("graph record claims %d nodes and %d entries", n, e)
	}
	idLen, offLen, arenaLen := 8*int64(n), 8*int64(n+1), 4*int64(e)
	if size := 16 + idLen + vectors*(offLen+pad8(arenaLen)); size != int64(len(p)) {
		return nil, nil, nil, fmt.Errorf("graph record of %d nodes and %d entries takes %d bytes, payload holds %d", n, e, size, len(p))
	}
	at := 16 + idLen
	ids = frame.Section[int64](p, 16, idLen)
	for range vectors {
		offs = append(offs, frame.Section[int64](p, at, offLen))
		at += offLen
	}
	for range vectors {
		arenas = append(arenas, frame.Section[int32](p, at, arenaLen))
		at += pad8(arenaLen)
	}
	return ids, offs, arenas, nil
}

// encodeScores writes a score vector as a u64 count followed by its
// (i64 id, f64 score) pairs, already in ascending id order, so equal
// vectors encode to equal bytes.
func encodeScores(scores algo.Scores) []byte {
	out := make([]byte, 8+16*len(scores))
	binary.LittleEndian.PutUint64(out, uint64(len(scores)))
	for i, e := range scores {
		binary.LittleEndian.PutUint64(out[8+16*i:], uint64(e.ID))
		binary.LittleEndian.PutUint64(out[16+16*i:], math.Float64bits(e.Score))
	}
	return out
}

func decodeScores(payload []byte) (algo.Scores, error) {
	if len(payload) < 8 {
		return nil, fmt.Errorf("score payload truncated at %d bytes", len(payload))
	}
	n := binary.LittleEndian.Uint64(payload[:8])
	// Divide, don't multiply: 16*n wraps for absurd counts and could slip
	// past an equality check into out-of-range indexing.
	if n > uint64(len(payload)-8)/16 || uint64(len(payload)-8) != 16*n {
		return nil, fmt.Errorf("score payload claims %d entries in %d bytes", n, len(payload))
	}
	scores := make(algo.Scores, n)
	for i := range scores {
		off := 8 + 16*i
		scores[i] = algo.Scored{
			ID:    int64(binary.LittleEndian.Uint64(payload[off:])),
			Score: math.Float64frombits(binary.LittleEndian.Uint64(payload[off+8:])),
		}
		// Ascending ids are what Scores.Get and the merge-joins rely on.
		if i > 0 && scores[i].ID <= scores[i-1].ID {
			return nil, fmt.Errorf("score payload ids not strictly ascending at entry %d (%d after %d)", i, scores[i].ID, scores[i-1].ID)
		}
	}
	return scores, nil
}

// record is one undecoded object frame: header fields plus raw payload.
type record struct {
	obj      Object // Name/Provenance/Version filled; value nil until decode
	kind     byte
	checksum uint64
	payload  []byte
}

// Read parses a snapshot stream, returning the saved workspace clock and
// the objects in binding order. Frames are read sequentially (the stream
// dictates that) but payloads are decoded and checksum-verified in
// parallel. Any failure names the object whose frame caused it.
func Read(r io.Reader) (clock uint64, objs []Object, err error) {
	fr := frame.NewReader(r)
	fr.Header(Magic, Version)
	clock = fr.U64("clock")
	count := fr.Count32("object count")
	if err := fr.Err(); err != nil {
		return 0, nil, fmt.Errorf("snapshot: %w", err)
	}

	var recs []record
	seen := make(map[string]bool)
	for i := uint32(0); i < count; i++ {
		var rec record
		if rec.obj.Name = fr.String("object name"); fr.Err() != nil {
			return 0, nil, fmt.Errorf("snapshot: frame %d: %w", i, fr.Err())
		}
		rec.obj.Provenance = fr.String("provenance")
		rec.obj.Version = fr.U64("version")
		rec.kind = fr.U8("kind")
		n := fr.U64("payload length")
		rec.checksum = fr.U64("checksum")
		rec.payload = fr.Bytes("payload", n)
		if err := fr.Err(); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: %w", rec.obj.Name, err)
		}
		if seen[rec.obj.Name] {
			return 0, nil, fmt.Errorf("snapshot: object %q appears twice", rec.obj.Name)
		}
		seen[rec.obj.Name] = true
		recs = append(recs, rec)
	}

	// A table or graph record's payload becomes its object's memory; a
	// score vector's is dropped once it decodes, so the collector can free
	// it while the other objects are still decoding.
	errs := make([]error, len(recs))
	par.ForEach(len(recs), func(i int) {
		errs[i] = recs[i].decode()
		recs[i].payload = nil
	})
	for i, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: %w", recs[i].obj.Name, err)
		}
	}
	objs = make([]Object, len(recs))
	for i := range recs {
		objs[i] = recs[i].obj
	}
	return clock, objs, nil
}

// decode verifies the record's checksum and decodes its payload into the
// record's Object value.
func (rec *record) decode() error {
	if got := xhash.Checksum64(rec.payload); got != rec.checksum {
		return fmt.Errorf("checksum mismatch (stored %016x, computed %016x)", rec.checksum, got)
	}
	var err error
	switch rec.kind {
	case kindTable:
		rec.obj.Table, err = table.DecodeBinary(rec.payload)
	case kindGraph:
		rec.obj.View, err = decodeView(rec.payload)
	case kindUGraph:
		rec.obj.UView, err = decodeUView(rec.payload)
	case kindScores:
		rec.obj.Scores, err = decodeScores(rec.payload)
	default:
		return fmt.Errorf("unknown object kind %d", rec.kind)
	}
	return err
}

func decodeView(p []byte) (*graph.View, error) {
	ids, offs, arenas, err := csrSections(p, 2)
	if err != nil {
		return nil, err
	}
	return graph.ViewFromArrays(ids, offs[0], offs[1], arenas[0], arenas[1], nil)
}

func decodeUView(p []byte) (*graph.UView, error) {
	ids, offs, arenas, err := csrSections(p, 1)
	if err != nil {
		return nil, err
	}
	return graph.UViewFromArrays(ids, offs[0], arenas[0], nil)
}
