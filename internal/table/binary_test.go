package table

import (
	"bytes"
	"encoding/binary"
	"os"
	"strings"
	"testing"
	"unsafe"
)

func binarySampleTable(t *testing.T) *Table {
	t.Helper()
	tbl, err := New(Schema{
		{Name: "User", Type: String},
		{Name: "Score", Type: Int},
		{Name: "Rank", Type: Float},
	})
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		u string
		s int64
		r float64
	}{
		{"alice", 10, 0.5},
		{"bob\twith\ttabs", -3, 1.25},
		{"", 0, 0},
		{"line\nbreak", 42, -7.5},
		{"alice", 11, 2.5}, // repeated string shares a pool id
	}
	for _, row := range rows {
		if err := tbl.AppendRow(row.u, row.s, row.r); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}

func TestTableBinaryRoundTrip(t *testing.T) {
	tbl := binarySampleTable(t)
	// Filter so surviving row ids are non-contiguous, exercising id
	// preservation.
	sel, err := tbl.Select("Score", GE, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := sel.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodeBinary(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != sel.NumRows() || got.NumCols() != sel.NumCols() {
		t.Fatalf("shape = %d×%d, want %d×%d", got.NumRows(), got.NumCols(), sel.NumRows(), sel.NumCols())
	}
	for i, c := range sel.Schema() {
		if got.Schema()[i] != c {
			t.Fatalf("schema[%d] = %+v, want %+v", i, got.Schema()[i], c)
		}
	}
	for r := 0; r < sel.NumRows(); r++ {
		if got.RowIDs()[r] != sel.RowIDs()[r] {
			t.Fatalf("row id %d = %d, want %d", r, got.RowIDs()[r], sel.RowIDs()[r])
		}
		for c := 0; c < sel.NumCols(); c++ {
			if got.Value(c, r) != sel.Value(c, r) {
				t.Fatalf("cell (%d,%d) = %v, want %v", c, r, got.Value(c, r), sel.Value(c, r))
			}
		}
	}
	// New rows must get fresh ids: nextID survives the round trip.
	if err := got.AppendRow("new", int64(1), 1.0); err != nil {
		t.Fatal(err)
	}
	newID := got.RowIDs()[got.NumRows()-1]
	for _, id := range sel.RowIDs() {
		if id == newID {
			t.Fatalf("appended row reused id %d", newID)
		}
	}
}

func TestTableBinaryRejectsCorruptInput(t *testing.T) {
	tbl := binarySampleTable(t)
	var buf bytes.Buffer
	if err := tbl.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()

	cases := []struct {
		name    string
		mangle  func([]byte) []byte
		wantSub string
	}{
		{"empty", func(b []byte) []byte { return nil }, "magic"},
		{"bad magic", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[0] = 'X'
			return c
		}, "magic"},
		{"bad version", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[4] = 99
			return c
		}, "version"},
		{"truncated header", func(b []byte) []byte { return b[:6] }, ""},
		{"truncated body", func(b []byte) []byte { return b[:len(b)/2] }, ""},
		{"absurd column count", func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[8], c[9], c[10], c[11] = 0xff, 0xff, 0xff, 0xff
			return c
		}, "column count"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := DecodeBinary(tc.mangle(good))
			if err == nil {
				t.Fatal("decode of corrupt input succeeded")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

// TestTableBinaryRejectsStaleNextID: a mangled nextID at or below an
// existing row id would let AppendRow re-issue ids rows already hold.
func TestTableBinaryRejectsStaleNextID(t *testing.T) {
	tbl, err := New(Schema{{Name: "S", Type: String}})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"a", "b", "c"} {
		if err := tbl.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tbl.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// nextID sits after magic(4) version(4) ncols(4) col{len(4)+"S"(1)+
	// type(1)} nrows(8): bytes [26,34). Zero it.
	b := buf.Bytes()
	for i := 26; i < 34; i++ {
		b[i] = 0
	}
	_, err = DecodeBinary(b)
	if err == nil || !strings.Contains(err.Error(), "next row id") {
		t.Fatalf("stale nextID error = %v", err)
	}

	// Duplicate row ids break row-identity tracking just as badly; copy
	// row 0's id over row 1's. The row ids are the first of the two
	// 3-row blocks that end the table.
	b = append([]byte(nil), buf.Bytes()...)
	ids := len(b) - 2*3*8
	copy(b[ids+8:ids+16], b[ids:ids+8])
	_, err = DecodeBinary(b)
	if err == nil || !strings.Contains(err.Error(), "twice") {
		t.Fatalf("duplicate row id error = %v", err)
	}
}

func TestTableBinaryRejectsOutOfRangePoolID(t *testing.T) {
	tbl, err := New(Schema{{Name: "S", Type: String}})
	if err != nil {
		t.Fatal(err)
	}
	if err := tbl.AppendRow("only"); err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := tbl.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	// The single string cell is the last 8 bytes; point it outside the pool.
	b := buf.Bytes()
	b[len(b)-8] = 7
	if _, err := DecodeBinary(b); err == nil {
		t.Fatal("decode accepted string id outside pool")
	}
}

// goldenTable is the RTBL golden fixture: Int, Float and String columns,
// strings holding a tab, a newline and the empty value, and non-contiguous
// row ids (the filter drops row 1).
func goldenTable(t *testing.T) *Table {
	t.Helper()
	tbl := binarySampleTable(t)
	sel, err := tbl.Select("Score", GE, int64(0))
	if err != nil {
		t.Fatal(err)
	}
	return sel
}

// TestTableBinaryGolden holds the RTBL codec to bytes an earlier encoder
// wrote: the fixture encodes to exactly those bytes, and they decode to a
// table equal to the fixture.
func TestTableBinaryGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/table.rtbl")
	if err != nil {
		t.Fatal(err)
	}
	want := goldenTable(t)
	var buf bytes.Buffer
	if err := want.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("encoding differs from the golden bytes:\n got %x\nwant %x", buf.Bytes(), golden)
	}
	got, err := DecodeBinary(golden)
	if err != nil {
		t.Fatal(err)
	}
	if d := diffTables(got, want); d != "" {
		t.Fatal(d)
	}
}

// TestTableBinaryRefusesVersion1: a version-1 table, whose row ids came
// before the pool and whose blocks were not padded, fails by its version.
func TestTableBinaryRefusesVersion1(t *testing.T) {
	var buf bytes.Buffer
	if err := goldenTable(t).EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	b := buf.Bytes()
	binary.LittleEndian.PutUint32(b[4:], 1)
	if _, err := DecodeBinary(b); err == nil || !strings.Contains(err.Error(), "unsupported RTBL version 1") {
		t.Fatalf("version-1 table: error %v", err)
	}
}

// TestTableBinaryDecodeAlignment: a table decoded from an 8-aligned buffer
// aliases its row ids and columns from it, one decoded from a misaligned
// buffer copies them out; both equal the encoded table, and every block
// has cap == len, so an append reallocates instead of writing over the
// next block.
func TestTableBinaryDecodeAlignment(t *testing.T) {
	want := goldenTable(t)
	var buf bytes.Buffer
	if err := want.EncodeBinary(&buf); err != nil {
		t.Fatal(err)
	}
	n := buf.Len()
	aligned := unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(make([]int64, n/8+1)))), n)
	copy(aligned, buf.Bytes())
	misaligned := make([]byte, n+1)[1:]
	copy(misaligned, buf.Bytes())
	little := binary.NativeEndian.Uint16([]byte{1, 0}) == 1
	for name, p := range map[string][]byte{"aligned": aligned, "misaligned": misaligned} {
		got, err := DecodeBinary(p)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if d := diffTables(got, want); d != "" {
			t.Fatalf("%s: %s", name, d)
		}
		blocks := [][]int64{got.rowIDs, got.ints[0], got.ints[1]}
		for i, b := range blocks {
			if cap(b) != len(b) {
				t.Fatalf("%s: block %d has cap %d, len %d", name, i, cap(b), len(b))
			}
			inside := uintptr(unsafe.Pointer(&b[0]))-uintptr(unsafe.Pointer(&p[0])) < uintptr(len(p))
			if inside != (little && name == "aligned") {
				t.Fatalf("%s: block %d aliases the buffer: %v", name, i, inside)
			}
		}
		if f := got.floats[2]; cap(f) != len(f) {
			t.Fatalf("%s: float block has cap %d, len %d", name, cap(f), len(f))
		}
	}
}
