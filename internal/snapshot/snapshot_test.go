package snapshot

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/frame"
	"ringo/internal/graph"
	"ringo/internal/table"
	"ringo/internal/xhash"
)

func sampleObjects(t testing.TB) []Object {
	t.Helper()
	tbl, err := table.New(table.Schema{
		{Name: "User", Type: table.String},
		{Name: "Score", Type: table.Int},
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range []struct {
		u string
		s int64
	}{{"alice", 3}, {"tab\tin\tvalue", -1}, {"", 0}} {
		if err := tbl.AppendRow(row.u, row.s); err != nil {
			t.Fatal(err)
		}
	}
	g, err := graph.BuildViewCols([]int64{1, 2, 3}, []int64{2, 3, 1}, nil)
	if err != nil {
		t.Fatal(err)
	}
	u, err := graph.BuildViewCols([]int64{10, 20}, []int64{20, 30}, nil) // projected: the undirected path 10-20-30
	if err != nil {
		t.Fatal(err)
	}
	return []Object{
		{Name: "T", Provenance: "load T posts.tsv", Version: 1, Table: tbl},
		{Name: "G", Provenance: "tograph G T src dst", Version: 2, View: g},
		{Name: "U", Provenance: "", Version: 3, UView: graph.ProjectUView(u)},
		{Name: "PR", Provenance: "pagerank PR G", Version: 7, Scores: algo.Scores{{ID: 1, Score: 0.5}, {ID: 2, Score: 0.25}, {ID: 3, Score: 0.25}}},
	}
}

func TestSnapshotRoundTrip(t *testing.T) {
	objs := sampleObjects(t)
	var buf bytes.Buffer
	if err := Write(&buf, 9, objs); err != nil {
		t.Fatal(err)
	}
	clock, got, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if clock != 9 {
		t.Fatalf("clock = %d, want 9", clock)
	}
	if len(got) != len(objs) {
		t.Fatalf("object count = %d, want %d", len(got), len(objs))
	}
	for i, want := range objs {
		o := got[i]
		if o.Name != want.Name || o.Provenance != want.Provenance || o.Version != want.Version {
			t.Fatalf("object %d header = %+v", i, o)
		}
	}
	tbl := got[0].Table
	if tbl == nil || tbl.NumRows() != 3 {
		t.Fatalf("table not restored: %+v", got[0])
	}
	if v := tbl.Value(0, 1); v != "tab\tin\tvalue" {
		t.Fatalf("string cell = %q", v)
	}
	g := got[1].View
	if g == nil || g.NumEdges() != 3 || !slices.Equal(g.IDs(), []int64{1, 2, 3}) {
		t.Fatalf("graph not restored: %+v", got[1])
	}
	u := got[2].UView
	if u == nil || u.NumEdges() != 2 || !u.HasEdge(30, 20) {
		t.Fatalf("ugraph not restored: %+v", got[2])
	}
	sc := got[3].Scores
	if !slices.Equal(sc, objs[3].Scores) {
		t.Fatalf("scores not restored: %+v", got[3])
	}
}

func TestSnapshotEmptyWorkspace(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 0, nil); err != nil {
		t.Fatal(err)
	}
	clock, objs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if clock != 0 || len(objs) != 0 {
		t.Fatalf("empty round trip = clock %d, %d objects", clock, len(objs))
	}
}

func TestSnapshotDeterministicBytes(t *testing.T) {
	objs := sampleObjects(t)
	var a, b bytes.Buffer
	if err := Write(&a, 9, objs); err != nil {
		t.Fatal(err)
	}
	if err := Write(&b, 9, objs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("snapshot bytes are not deterministic")
	}
}

func TestSnapshotRejectsValuelessObject(t *testing.T) {
	var buf bytes.Buffer
	err := Write(&buf, 1, []Object{{Name: "empty"}})
	if err == nil || !strings.Contains(err.Error(), `"empty"`) {
		t.Fatalf("valueless object error = %v", err)
	}
}

// TestSnapshotCorruptionNamesObject flips one byte inside each object's
// payload in turn and checks the decode error names that object.
func TestSnapshotCorruptionNamesObject(t *testing.T) {
	objs := sampleObjects(t)
	var buf bytes.Buffer
	if err := Write(&buf, 9, objs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	// Locate each payload by re-encoding individually: frame layout is
	// header + name + prov + 8 (version) + 1 (kind) + 8 (paylen) + 8
	// (checksum) + payload.
	off := len(Magic) + 4 + 8 + 4
	for _, o := range objs {
		payload, err := encodePayload(&o)
		if err != nil {
			t.Fatal(err)
		}
		payloadStart := off + 4 + len(o.Name) + 4 + len(o.Provenance) + 8 + 1 + 8 + 8
		mangled := append([]byte(nil), good...)
		mangled[payloadStart+len(payload)/2] ^= 0x40
		_, _, err = Read(bytes.NewReader(mangled))
		if err == nil {
			t.Fatalf("corrupt payload of %q accepted", o.Name)
		}
		if !strings.Contains(err.Error(), `"`+o.Name+`"`) {
			t.Fatalf("error %q does not name object %q", err, o.Name)
		}
		off = payloadStart + len(payload)
	}
}

// TestGraphRecordsRoundTrip: directed and undirected views — empty, one
// node, isolated nodes, self-loops and random graphs — come back from
// Read(Write(x)) equal to x array for array.
func TestGraphRecordsRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewPCG(7, 42))
	type shape struct {
		name         string
		edges, nodes []int64 // edges as src, dst pairs
	}
	shapes := []shape{
		{"empty", nil, nil},
		{"one node", nil, []int64{5}},
		{"one self-loop", []int64{3, 3}, nil},
		{"isolated nodes and loops", []int64{1, 2, 2, 2, 2, 1, -9, 1}, []int64{-100, 0, 40, 1 << 40}},
	}
	for i := range 4 {
		sh := shape{name: fmt.Sprintf("random %d", i)}
		for range 20 + rng.IntN(400) {
			sh.edges = append(sh.edges, rng.Int64N(60)-10, rng.Int64N(60)-10)
		}
		for range rng.IntN(10) {
			sh.nodes = append(sh.nodes, rng.Int64N(1000))
		}
		shapes = append(shapes, sh)
	}
	for _, sh := range shapes {
		t.Run(sh.name, func(t *testing.T) {
			var srcs, dsts []int64
			for i := 0; i < len(sh.edges); i += 2 {
				srcs, dsts = append(srcs, sh.edges[i]), append(dsts, sh.edges[i+1])
			}
			v, err := graph.BuildViewCols(srcs, dsts, sh.nodes)
			if err != nil {
				t.Fatal(err)
			}
			uv := graph.ProjectUView(v)
			var buf bytes.Buffer
			if err := Write(&buf, 1, []Object{{Name: "G", View: v}, {Name: "U", UView: uv}}); err != nil {
				t.Fatal(err)
			}
			_, got, err := Read(&buf)
			if err != nil {
				t.Fatal(err)
			}
			ids, outOff, inOff, out, in := v.ViewParts()
			gids, goutOff, ginOff, gout, gin := got[0].View.ViewParts()
			if !slices.Equal(ids, gids) || !slices.Equal(outOff, goutOff) || !slices.Equal(inOff, ginOff) ||
				!slices.Equal(out, gout) || !slices.Equal(in, gin) {
				t.Fatalf("directed view changed in a round trip")
			}
			uids, off, arena := uv.UViewParts()
			guids, goff, garena := got[1].UView.UViewParts()
			if !slices.Equal(uids, guids) || !slices.Equal(off, goff) || !slices.Equal(arena, garena) {
				t.Fatalf("undirected view changed in a round trip")
			}
		})
	}
}

// TestGraphRecordCorruptionNamesObject: a flipped byte in a graph record
// fails the checksum, and the same flip behind a recomputed checksum —
// an in-vector entry or an arena entry that breaks the transpose — fails
// validation; either way the error names the object.
func TestGraphRecordCorruptionNamesObject(t *testing.T) {
	objs := sampleObjects(t)
	for _, o := range objs[1:3] {
		p, err := encodePayload(&o)
		if err != nil {
			t.Fatal(err)
		}
		// The last neighbor entry: G's last in-vector entry, U's last
		// arena entry, the record's last section before its padding.
		e := int64(binary.LittleEndian.Uint64(p[8:]))
		at := int64(len(p)) - pad8(4*e) + 4*e - 4
		for _, fix := range []bool{false, true} {
			bad := slices.Clone(p)
			bad[at] ^= 1
			sum := xhash.Checksum64(p)
			if fix {
				sum = xhash.Checksum64(bad)
			}
			snap := frameOf(o, bad, sum)
			_, _, err := Read(bytes.NewReader(snap))
			if err == nil || !strings.Contains(err.Error(), `"`+o.Name+`"`) {
				t.Fatalf("flipped %q record (checksum fixed: %v): error %v", o.Name, fix, err)
			}
			want := "checksum mismatch"
			if fix {
				want = "no matching reverse entry"
			}
			if !strings.Contains(err.Error(), want) {
				t.Fatalf("flipped %q record (checksum fixed: %v): error %v, want %q", o.Name, fix, err, want)
			}
		}
	}
}

// TestGraphRecordRejectsBadGeometry: a graph record whose counts do not
// fit its length fails before any array is read, behind a valid checksum,
// with the object named.
func TestGraphRecordRejectsBadGeometry(t *testing.T) {
	objs := sampleObjects(t)
	for _, o := range objs[1:3] {
		good, err := encodePayload(&o)
		if err != nil {
			t.Fatal(err)
		}
		for _, tc := range []struct {
			name   string
			mangle func(p []byte) []byte
			want   string
		}{
			{"truncated counts", func(p []byte) []byte { return p[:12] }, "truncated"},
			{"absurd node count", func(p []byte) []byte {
				binary.LittleEndian.PutUint64(p, 1<<50)
				return p
			}, "claims"},
			{"two more entries", func(p []byte) []byte {
				binary.LittleEndian.PutUint64(p[8:], binary.LittleEndian.Uint64(p[8:])+2)
				return p
			}, "takes"},
			{"trailing bytes", func(p []byte) []byte { return append(p, make([]byte, 8)...) }, "takes"},
		} {
			bad := tc.mangle(slices.Clone(good))
			_, _, err := Read(bytes.NewReader(frameOf(o, bad, xhash.Checksum64(bad))))
			if err == nil || !strings.Contains(err.Error(), `"`+o.Name+`"`) || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("%s record, %s: error %v, want one naming the object and %q", o.Name, tc.name, err, tc.want)
			}
		}
	}
}

// frameOf is a snapshot of one object whose payload and checksum are
// given as is.
func frameOf(o Object, payload []byte, sum uint64) []byte {
	kind, _ := o.kind()
	var buf bytes.Buffer
	w := frame.NewWriter(&buf)
	w.Header(Magic, Version)
	w.U64(1)
	w.U32(1)
	w.String(o.Name)
	w.String(o.Provenance)
	w.U64(o.Version)
	w.U8(kind)
	w.U64(uint64(len(payload)))
	w.U64(sum)
	w.Bytes(payload)
	w.Flush()
	return buf.Bytes()
}

// TestLyingPayloadLengthAllocatesNothing: a payload length past the end of
// the file fails before the payload is allocated, read from a file (the
// restore path) and from a byte reader alike.
func TestLyingPayloadLengthAllocatesNothing(t *testing.T) {
	objs := sampleObjects(t)
	payload, _ := encodePayload(&objs[1])
	snap := frameOf(objs[1], payload, xhash.Checksum64(payload))
	// paylen sits after the header (20 bytes), name, provenance, version
	// and kind.
	at := 20 + 4 + len(objs[1].Name) + 4 + len(objs[1].Provenance) + 8 + 1
	binary.LittleEndian.PutUint64(snap[at:], 1<<34) // 16 GiB
	path := filepath.Join(t.TempDir(), "lying.rngs")
	if err := os.WriteFile(path, snap, 0o644); err != nil {
		t.Fatal(err)
	}
	for name, open := range map[string]func() io.Reader{
		"bytes": func() io.Reader { return bytes.NewReader(snap) },
		"file": func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		},
	} {
		r := open()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		_, _, err := Read(r)
		runtime.ReadMemStats(&after)
		if err == nil || !strings.Contains(err.Error(), "bytes left") || !strings.Contains(err.Error(), `"G"`) {
			t.Fatalf("%s: error %v, want one naming the object and the bytes left", name, err)
		}
		if grew := after.TotalAlloc - before.TotalAlloc; grew > 1<<20 {
			t.Fatalf("%s: a lying payload length allocated %d bytes", name, grew)
		}
	}
}

func TestSnapshotRejectsStructuralCorruption(t *testing.T) {
	objs := sampleObjects(t)
	var buf bytes.Buffer
	if err := Write(&buf, 9, objs); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name   string
		mangle func(b []byte) []byte
	}{
		{"empty", func(b []byte) []byte { return nil }},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}},
		{"bad version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 0x63
			return c
		}},
		{"truncated header", func(b []byte) []byte { return b[:10] }},
		{"truncated frame", func(b []byte) []byte { return b[:len(b)/2] }},
		{"truncated tail", func(b []byte) []byte { return b[:len(b)-1] }},
		{"absurd object count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			for i := 16; i < 20; i++ {
				c[i] = 0xff
			}
			return c
		}},
		{"lying payload length", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			// First frame's paylen lives after name "T" and prov.
			off := 20 + 4 + 1 + 4 + len("load T posts.tsv") + 8 + 1
			c[off+4] = 0xff // claim a payload in the terabytes
			return c
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, _, err := Read(bytes.NewReader(tc.mangle(good))); err == nil {
				t.Fatal("corrupt snapshot accepted")
			}
		})
	}
}

// TestSnapshotRefusesVersion2: a version-2 snapshot, whose checksums were
// byte-serial FNV-1a and whose tables were RTBL version 1, fails by its
// version.
func TestSnapshotRefusesVersion2(t *testing.T) {
	var buf bytes.Buffer
	if err := Write(&buf, 9, sampleObjects(t)); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[4:], 2)
	if _, _, err := Read(bytes.NewReader(b)); err == nil || !strings.Contains(err.Error(), "unsupported RNGS version 2") {
		t.Fatalf("version-2 snapshot: error %v", err)
	}
}

// TestDecodeScoresOverflowingCount: a crafted count near 2^60 makes 16*n
// wrap modulo 2^64; the length check must reject it instead of letting the
// decode loop index out of range.
func TestDecodeScoresOverflowingCount(t *testing.T) {
	payload := make([]byte, 8+16) // room for exactly one entry
	n := uint64(1)<<60 + 1        // 16*n mod 2^64 == 16 == len(payload)-8
	for i := 0; i < 8; i++ {
		payload[i] = byte(n >> (8 * i))
	}
	if _, err := decodeScores(payload); err == nil {
		t.Fatal("overflowing score count accepted")
	}
}

// TestDecodeScoresRequiresAscendingIDs: a score vector is binary-searched
// and merge-joined, so the decoder refuses a frame whose ids repeat or
// descend, and round-trips one whose ids ascend.
func TestDecodeScoresRequiresAscendingIDs(t *testing.T) {
	good := algo.Scores{{ID: -4, Score: 1}, {ID: 0, Score: 2}, {ID: 9, Score: 3}}
	if got, err := decodeScores(encodeScores(good)); err != nil || !slices.Equal(got, good) {
		t.Fatalf("ascending ids: decoded %v, %v", got, err)
	}
	if got, err := decodeScores(encodeScores(algo.Scores{})); err != nil || got == nil || len(got) != 0 {
		t.Fatalf("empty vector: decoded %#v, %v; want empty and non-nil", got, err)
	}
	for name, bad := range map[string]algo.Scores{
		"duplicate":  {{ID: 1, Score: 1}, {ID: 1, Score: 2}},
		"descending": {{ID: 1, Score: 1}, {ID: 5, Score: 2}, {ID: 3, Score: 3}},
	} {
		if _, err := decodeScores(encodeScores(bad)); err == nil || !strings.Contains(err.Error(), "ascending") {
			t.Errorf("%s ids: error = %v", name, err)
		}
	}
}

func TestSnapshotRejectsDuplicateNames(t *testing.T) {
	objs := []Object{
		{Name: "A", Version: 1, Scores: algo.Scores{{ID: 1, Score: 1}}},
		{Name: "A", Version: 2, Scores: algo.Scores{{ID: 2, Score: 2}}},
	}
	var buf bytes.Buffer
	if err := Write(&buf, 2, objs); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Read(&buf); err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate names error = %v", err)
	}
}

// TestSnapshotGolden holds the RNGS container to bytes an earlier encoder
// wrote for sampleObjects, one object of each kind: the objects encode to
// exactly those bytes, and the bytes decode to objects with the same
// headers whose payloads encode as the fixtures' do.
func TestSnapshotGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/workspace.rngs")
	if err != nil {
		t.Fatal(err)
	}
	objs := sampleObjects(t)
	var buf bytes.Buffer
	if err := Write(&buf, 9, objs); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("encoding differs from the golden bytes:\n got %x\nwant %x", buf.Bytes(), golden)
	}
	clock, got, err := Read(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if clock != 9 || len(got) != len(objs) {
		t.Fatalf("decoded clock %d and %d objects, want 9 and %d", clock, len(got), len(objs))
	}
	for i := range objs {
		g, w := &got[i], &objs[i]
		if g.Name != w.Name || g.Provenance != w.Provenance || g.Version != w.Version {
			t.Fatalf("object %d header = %q %q %d, want %q %q %d", i, g.Name, g.Provenance, g.Version, w.Name, w.Provenance, w.Version)
		}
		gp, err := encodePayload(g)
		if err != nil {
			t.Fatal(err)
		}
		wp, _ := encodePayload(w)
		if !bytes.Equal(gp, wp) {
			t.Fatalf("object %q decodes to a different value", w.Name)
		}
	}
}

// decodeAs decodes data with the decoder sel picks — the snapshot reader,
// the RTBL codec, or a graph or ugraph record — and returns what
// it accepted as a snapshot's clock and objects. An RTBL table is decoded
// twice, from an 8-aligned buffer, whose blocks it aliases, and at offset
// 1 of one, whose blocks it copies out; the two must agree.
func decodeAs(t *testing.T, sel byte, data []byte) (uint64, []Object, error) {
	r := bytes.NewReader(data)
	o := Object{Name: "x"}
	var err error
	switch sel % 4 {
	case 0:
		return Read(r)
	case 1:
		words := func() []byte { return frame.Image(make([]int64, len(data)/8+1)) }
		aligned, shifted := words()[:len(data)], words()[1:len(data)+1]
		copy(aligned, data)
		copy(shifted, data)
		o.Table, err = table.DecodeBinary(aligned)
		copied, cerr := table.DecodeBinary(shifted)
		if (err == nil) != (cerr == nil) {
			t.Fatalf("RTBL decodes differ by alignment: aligned %v, at offset 1 %v", err, cerr)
		}
		if err == nil {
			a, _ := encodePayload(&o)
			c, _ := encodePayload(&Object{Table: copied})
			if !bytes.Equal(a, c) {
				t.Fatal("RTBL decodes to different tables by alignment")
			}
		}
	case 2:
		o.View, err = decodeView(data)
	default:
		o.UView, err = decodeUView(data)
	}
	return 0, []Object{o}, err
}

// FuzzDecodeFormats sends arbitrary bytes to snapshot.Read,
// table.DecodeBinary (aligned and misaligned) or a snapshot's graph or
// ugraph record decoder, as the first byte selects. Each must return an error or
// a value and never panic, and a value it accepts must re-encode to bytes
// that decode again and re-encode to the same bytes: what was accepted
// survives a round trip.
func FuzzDecodeFormats(f *testing.F) {
	var seeds [][]byte
	for _, path := range []string{
		"testdata/workspace.rngs",
		"../table/testdata/table.rtbl",
	} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, golden)
	}
	objs := sampleObjects(f)
	for _, o := range objs[1:3] { // the graph, then the ugraph
		p, err := encodePayload(&o)
		if err != nil {
			f.Fatal(err)
		}
		seeds = append(seeds, p)
	}
	for sel, seed := range seeds {
		f.Add(append([]byte{byte(sel)}, seed...))
		f.Add(append([]byte{byte(sel)}, seed[:len(seed)/2]...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		clock, objs, err := decodeAs(t, in[0], in[1:])
		if err != nil {
			return
		}
		var once, twice bytes.Buffer
		if err := Write(&once, clock, objs); err != nil {
			t.Fatalf("re-encoding an accepted value: %v", err)
		}
		clock, objs, err = Read(bytes.NewReader(once.Bytes()))
		if err != nil {
			t.Fatalf("decoding the re-encoded value: %v", err)
		}
		if err := Write(&twice, clock, objs); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(once.Bytes(), twice.Bytes()) {
			t.Fatal("an accepted value changes on a second round trip")
		}
	})
}
