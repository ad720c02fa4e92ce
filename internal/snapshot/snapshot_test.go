package snapshot

import (
	"bytes"
	"os"
	"slices"
	"strings"
	"testing"

	"ringo/internal/algo"
	"ringo/internal/graph"
	"ringo/internal/table"
)

func sampleObjects(t *testing.T) []Object {
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
	g := graph.NewDirected()
	g.AddEdge(1, 2)
	g.AddEdge(2, 3)
	g.AddEdge(3, 1)
	u := graph.NewUndirectedCap(0)
	u.AddEdge(10, 20)
	u.AddEdge(20, 30)
	return []Object{
		{Name: "T", Provenance: "load T posts.tsv", Version: 1, Table: tbl},
		{Name: "G", Provenance: "tograph G T src dst", Version: 2, View: graph.BuildView(g)},
		{Name: "U", Provenance: "", Version: 3, UView: graph.BuildUView(u)},
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

// decodeAs decodes data with the stream decoder sel picks — the snapshot
// reader or one of the three payload codecs it embeds — and returns what
// it accepted as a snapshot's clock and objects.
func decodeAs(sel byte, data []byte) (uint64, []Object, error) {
	r := bytes.NewReader(data)
	o := Object{Name: "x"}
	var err error
	switch sel % 4 {
	case 0:
		return Read(r)
	case 1:
		o.Table, err = table.DecodeBinary(r)
	case 2:
		o.View, err = graph.LoadBinary(r)
	default:
		o.UView, err = graph.LoadBinaryUndirected(r)
	}
	return 0, []Object{o}, err
}

// FuzzDecodeFormats sends arbitrary bytes to snapshot.Read,
// table.DecodeBinary, graph.LoadBinary or graph.LoadBinaryUndirected, as
// the first byte selects. Each must return an error or a value and never
// panic, and a value it accepts must re-encode to bytes that decode again
// and re-encode to the same bytes: what was accepted survives a round trip.
func FuzzDecodeFormats(f *testing.F) {
	for sel, path := range []string{
		"testdata/workspace.rngs",
		"../table/testdata/table.rtbl",
		"../graph/testdata/directed.rngo",
		"../graph/testdata/undirected.rngu",
	} {
		golden, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(append([]byte{byte(sel)}, golden...))
		f.Add(append([]byte{byte(sel)}, golden[:len(golden)/2]...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		clock, objs, err := decodeAs(in[0], in[1:])
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
