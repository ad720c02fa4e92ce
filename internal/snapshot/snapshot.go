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
//	version u32 (currently 1)
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
//	checksum  u64                  xhash.Checksum64 of the payload bytes
//	payload   paylen bytes
//
// Payloads reuse the per-type binary codecs: tables embed the columnar
// format of table.EncodeBinary (shared string pool, bulk column blocks),
// graphs embed graph.SaveBinary / graph.SaveBinaryUndirected, and score
// vectors are (i64, f64) pairs in strictly ascending id order behind a u64
// count. Every frame is
// independently length-prefixed and checksummed, so corruption is detected
// per object — errors name the failing object — and frames can be encoded
// and decoded in parallel (internal/par), one worker per object.
package snapshot

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math"

	"ringo/internal/algo"
	"ringo/internal/graph"
	"ringo/internal/par"
	"ringo/internal/table"
	"ringo/internal/xhash"
)

const (
	// Magic identifies a Ringo workspace snapshot file.
	Magic = "RNGS"
	// Version is the current snapshot format version.
	Version = 1

	kindTable  = 1
	kindGraph  = 2
	kindUGraph = 3
	kindScores = 4

	// maxStrLen bounds decoded name/provenance strings; maxObjects bounds
	// the frame count; payloadChunk bounds how much a declared payload
	// length is trusted at a time, so a lying frame fails with a read
	// error instead of an absurd allocation.
	maxStrLen    = 1 << 24
	maxObjects   = 1 << 20
	payloadChunk = 1 << 20
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
	Graph  *graph.Directed
	UGraph *graph.Undirected
	Scores algo.Scores
}

func (o *Object) kind() (byte, error) {
	switch {
	case o.Table != nil:
		return kindTable, nil
	case o.Graph != nil:
		return kindGraph, nil
	case o.UGraph != nil:
		return kindUGraph, nil
	case o.Scores != nil:
		return kindScores, nil
	default:
		return 0, fmt.Errorf("snapshot: object %q holds no value", o.Name)
	}
}

// Write serializes objs (with the workspace clock) to w. Object payloads
// are encoded concurrently, one goroutine per par worker, then frames are
// written out in binding order.
func Write(w io.Writer, clock uint64, objs []Object) error {
	payloads := make([][]byte, len(objs))
	errs := make([]error, len(objs))
	par.ForEach(len(objs), func(i int) {
		payloads[i], errs[i] = encodePayload(&objs[i])
	})
	for i, err := range errs {
		if err != nil {
			return fmt.Errorf("snapshot: object %q: %w", objs[i].Name, err)
		}
	}

	bw := bufio.NewWriter(w)
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
	writeStr := func(s string) error {
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := bw.WriteString(s)
		return err
	}
	if _, err := bw.WriteString(Magic); err != nil {
		return err
	}
	if err := writeU32(Version); err != nil {
		return err
	}
	if err := writeU64(clock); err != nil {
		return err
	}
	if err := writeU32(uint32(len(objs))); err != nil {
		return err
	}
	for i := range objs {
		o := &objs[i]
		kind, err := o.kind()
		if err != nil {
			return err
		}
		if err := writeStr(o.Name); err != nil {
			return err
		}
		if err := writeStr(o.Provenance); err != nil {
			return err
		}
		if err := writeU64(o.Version); err != nil {
			return err
		}
		if err := bw.WriteByte(kind); err != nil {
			return err
		}
		if err := writeU64(uint64(len(payloads[i]))); err != nil {
			return err
		}
		if err := writeU64(xhash.Checksum64(payloads[i])); err != nil {
			return err
		}
		if _, err := bw.Write(payloads[i]); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func encodePayload(o *Object) ([]byte, error) {
	var buf bytes.Buffer
	switch {
	case o.Table != nil:
		if err := o.Table.EncodeBinary(&buf); err != nil {
			return nil, err
		}
	case o.Graph != nil:
		if err := graph.SaveBinary(&buf, o.Graph); err != nil {
			return nil, err
		}
	case o.UGraph != nil:
		if err := graph.SaveBinaryUndirected(&buf, o.UGraph); err != nil {
			return nil, err
		}
	case o.Scores != nil:
		return encodeScores(o.Scores), nil
	default:
		return nil, fmt.Errorf("holds no value")
	}
	return buf.Bytes(), nil
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

// frame is one undecoded object record: header fields plus raw payload.
type frame struct {
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
	br := bufio.NewReader(r)
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
	readStr := func(what string) (string, error) {
		n, err := readU32()
		if err != nil {
			return "", fmt.Errorf("reading %s length: %w", what, err)
		}
		if n > maxStrLen {
			return "", fmt.Errorf("%s length %d exceeds limit", what, n)
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(br, buf); err != nil {
			return "", fmt.Errorf("reading %s: %w", what, err)
		}
		return string(buf), nil
	}

	magic := make([]byte, 4)
	if _, err := io.ReadFull(br, magic); err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading magic: %w", err)
	}
	if string(magic) != Magic {
		return 0, nil, fmt.Errorf("snapshot: not a Ringo snapshot (magic %q)", magic)
	}
	version, err := readU32()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading version: %w", err)
	}
	if version != Version {
		return 0, nil, fmt.Errorf("snapshot: unsupported snapshot version %d", version)
	}
	clock, err = readU64()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading clock: %w", err)
	}
	count, err := readU32()
	if err != nil {
		return 0, nil, fmt.Errorf("snapshot: reading object count: %w", err)
	}
	if count > maxObjects {
		return 0, nil, fmt.Errorf("snapshot: implausible object count %d", count)
	}

	frames := make([]frame, 0, count)
	seen := make(map[string]bool, count)
	for i := uint32(0); i < count; i++ {
		var f frame
		if f.obj.Name, err = readStr("object name"); err != nil {
			return 0, nil, fmt.Errorf("snapshot: frame %d: %w", i, err)
		}
		if f.obj.Provenance, err = readStr("provenance"); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: %w", f.obj.Name, err)
		}
		if seen[f.obj.Name] {
			return 0, nil, fmt.Errorf("snapshot: object %q appears twice", f.obj.Name)
		}
		seen[f.obj.Name] = true
		if f.obj.Version, err = readU64(); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: reading version: %w", f.obj.Name, err)
		}
		if f.kind, err = br.ReadByte(); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: reading kind: %w", f.obj.Name, err)
		}
		payLen, err := readU64()
		if err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: reading payload length: %w", f.obj.Name, err)
		}
		if f.checksum, err = readU64(); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: reading checksum: %w", f.obj.Name, err)
		}
		if f.payload, err = readPayload(br, payLen); err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: %w", f.obj.Name, err)
		}
		frames = append(frames, f)
	}

	errs := make([]error, len(frames))
	par.ForEach(len(frames), func(i int) {
		errs[i] = frames[i].decode()
	})
	for i, err := range errs {
		if err != nil {
			return 0, nil, fmt.Errorf("snapshot: object %q: %w", frames[i].obj.Name, err)
		}
	}
	objs = make([]Object, len(frames))
	for i := range frames {
		objs[i] = frames[i].obj
	}
	return clock, objs, nil
}

// readPayload reads a declared payload length in bounded chunks: a frame
// lying about its length exhausts the stream and fails cleanly instead of
// provoking one huge up-front allocation.
func readPayload(r io.Reader, n uint64) ([]byte, error) {
	prealloc := n
	if prealloc > payloadChunk {
		prealloc = payloadChunk
	}
	buf := make([]byte, 0, prealloc)
	chunk := make([]byte, payloadChunk)
	for n > 0 {
		want := n
		if want > payloadChunk {
			want = payloadChunk
		}
		if _, err := io.ReadFull(r, chunk[:want]); err != nil {
			return nil, fmt.Errorf("reading payload: %w", err)
		}
		buf = append(buf, chunk[:want]...)
		n -= want
	}
	return buf, nil
}

// decode verifies the frame checksum and decodes the payload into the
// frame's Object value.
func (f *frame) decode() error {
	if got := xhash.Checksum64(f.payload); got != f.checksum {
		return fmt.Errorf("checksum mismatch (stored %016x, computed %016x)", f.checksum, got)
	}
	var err error
	switch f.kind {
	case kindTable:
		f.obj.Table, err = table.DecodeBinary(bytes.NewReader(f.payload))
	case kindGraph:
		f.obj.Graph, err = graph.LoadBinary(bytes.NewReader(f.payload))
	case kindUGraph:
		f.obj.UGraph, err = graph.LoadBinaryUndirected(bytes.NewReader(f.payload))
	case kindScores:
		f.obj.Scores, err = decodeScores(f.payload)
	default:
		return fmt.Errorf("unknown object kind %d", f.kind)
	}
	return err
}
