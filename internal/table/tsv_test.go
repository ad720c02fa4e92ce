package table

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"
)

// loadTSVReference is the line-scanner loader ParseTSV replaced, kept as
// the oracle it is held to: one bufio.Scanner line (and one string) per
// row, columns grown by append.
func loadTSVReference(r io.Reader, schema Schema, header bool) (*Table, error) {
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	first := true
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if first && header {
			first = false
			continue
		}
		first = false
		if err := refAppendTSVLine(t, line, lineNo); err != nil {
			return nil, err
		}
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("table: reading TSV: %w", err)
	}
	return t, nil
}

func refAppendTSVLine(t *Table, line string, lineNo int) error {
	for i := range t.cols {
		var field string
		if i < len(t.cols)-1 {
			tab := strings.IndexByte(line, '\t')
			if tab < 0 {
				return fmt.Errorf("table: line %d: %d fields for %d columns", lineNo, i+1, len(t.cols))
			}
			field, line = line[:tab], line[tab+1:]
		} else {
			if tab := strings.IndexByte(line, '\t'); tab >= 0 {
				field = line[:tab]
			} else {
				field = line
			}
		}
		switch t.cols[i].Type {
		case Int:
			n, err := strconv.ParseInt(strings.TrimSpace(field), 10, 64)
			if err != nil {
				return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
			}
			t.ints[i] = append(t.ints[i], n)
		case Float:
			f, err := strconv.ParseFloat(strings.TrimSpace(field), 64)
			if err != nil {
				return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
			}
			t.floats[i] = append(t.floats[i], f)
		default:
			t.ints[i] = append(t.ints[i], int64(t.pool.Intern(unescapeTSV(field))))
		}
	}
	t.rowIDs = append(t.rowIDs, t.nextID)
	t.nextID++
	return nil
}

// poolStrings lists a table's interned strings in pool-id order.
func poolStrings(t *Table) []string {
	out := make([]string, t.pool.Len())
	for i := range out {
		out[i] = t.pool.Get(int32(i))
	}
	return out
}

// tsvSchemas are the schemas the loader oracle runs every input under.
var tsvSchemas = []Schema{
	{{"a", Int}},
	{{"a", Int}, {"b", Int}},
	{{"a", String}, {"b", Float}},
	{{"a", Float}, {"b", String}, {"c", Int}},
	{{"a", String}},
	{{"a", String}, {"b", String}, {"c", Float}},
}

// checkLoadTSV loads data through LoadTSV and the reference and requires
// the same accept/reject decision and error text, the same cells (floats
// bit for bit), row ids and pool ids, and columns allocated at exactly
// their length.
func checkLoadTSV(t *testing.T, data []byte, schema Schema, header bool) {
	t.Helper()
	want, wantErr := loadTSVReference(bytes.NewReader(data), schema, header)
	got, err := LoadTSV(bytes.NewReader(data), schema, header)
	ctx := fmt.Sprintf("schema %v header %v input %.80q", schema, header, data)
	if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
		t.Fatalf("%s: error %v, reference %v", ctx, err, wantErr)
	}
	if err != nil {
		return
	}
	if !slices.Equal(got.rowIDs, want.rowIDs) || got.nextID != want.nextID {
		t.Fatalf("%s: row ids %v (next %d), reference %v (next %d)", ctx, got.rowIDs, got.nextID, want.rowIDs, want.nextID)
	}
	if !slices.Equal(poolStrings(got), poolStrings(want)) {
		t.Fatalf("%s: pool %q, reference %q", ctx, poolStrings(got), poolStrings(want))
	}
	if cap(got.rowIDs) != len(got.rowIDs) {
		t.Fatalf("%s: row ids cap %d for %d rows", ctx, cap(got.rowIDs), len(got.rowIDs))
	}
	for i, c := range schema {
		if c.Type == Float {
			g := got.floats[i]
			if len(g) != len(want.floats[i]) || cap(g) != len(g) {
				t.Fatalf("%s: column %s len %d cap %d, reference len %d", ctx, c.Name, len(g), cap(g), len(want.floats[i]))
			}
			for r, f := range want.floats[i] {
				if math.Float64bits(g[r]) != math.Float64bits(f) {
					t.Fatalf("%s: column %s row %d = %v, reference %v", ctx, c.Name, r, g[r], f)
				}
			}
			continue
		}
		if g := got.ints[i]; !slices.Equal(g, want.ints[i]) || cap(g) != len(g) {
			t.Fatalf("%s: column %s = %v (cap %d), reference %v", ctx, c.Name, g, cap(g), want.ints[i])
		}
	}
}

// tsvSeeds are the hand-picked inputs: line endings, comments, headers,
// escapes, short and long rows, and integer spellings on both sides of the
// fast path.
var tsvSeeds = []string{
	"",
	"\n",
	"1\t2\n3\t4\n",
	"1\t2\r\n3\t4\r\n",
	"1\t2\r\r\n3\t4",
	"a\tb\n1\t2\n",
	"# comment\n\n#\t1\n1\t2\n\r\n5\t6\n",
	"1\n",
	"1\t\n",
	"\t2\n",
	"1\t2\t3\t4\n",
	" 7 \t-8\n+9\t-0\n",
	"123456789012345678\t-123456789012345678\n",
	"1234567890123456789\t9223372036854775807\n",
	"9223372036854775808\t-9223372036854775809\n",
	"0x10\t1_000\n",
	"1.5\t2e3\n",
	"NaN\t-Inf\n",
	"1e400\t1\n",
	" 5\t6　\n",
	"x\\ty\\n\\\\z\\q\tw\\\n",
	"dup\tdup\ndup\tother\n",
	"a\t1.5\t7\nb\t-2\t8\n",
	"caf\xe9\t1\n",
	"1\t2\n\nx\t3\n",
	// The eight-byte Int path: one to eight digits before a tab or newline
	// take it, everything else falls back cell by cell.
	"1234567\t7654321\n12345678\t87654321\n123456789\t987654321\n",
	"12345678\t9\t10\n1\t12345678\t3\n",
	"1\t123456789012345678\n1234567890123456789\t1\n99999999999999999999\t1\n",
	"+1234567\t-1234567\n-12345678\t+12345678\n",
	"12a\t1234567\n12 \t1234567\n",
	"1234567\t12\r\n12\t1234567\r\n12345678\r\n",
	"12345678\t1\n7\t8",
	"1\t2\n12345678\t12345678",
	"1:2\t12345678\n",
	"12\r\t12345678\n",
	"x\r\t1.5\r\n12\t345\n",
}

func TestLoadTSVMatchesReference(t *testing.T) {
	for _, in := range tsvSeeds {
		for _, schema := range tsvSchemas {
			for _, header := range []bool{false, true} {
				checkLoadTSV(t, []byte(in), schema, header)
			}
		}
	}
}

// TestLoadTSVIntWidths runs the oracle over integer cells of every width
// from one to twenty digits, signed and unsigned, shifted through all eight
// byte alignments and ended by a tab, a newline, CRLF and the end of input,
// so each digit count reaches both sides of the eight-byte Int path.
func TestLoadTSVIntWidths(t *testing.T) {
	digits := "98765432109876543210"
	for w := 1; w <= len(digits); w++ {
		for _, sign := range []string{"", "-", "+"} {
			cell := sign + digits[:w]
			for pad := 0; pad < 8; pad++ {
				lead := strings.Repeat("7", pad+1)
				in := lead + "\t" + cell + "\n" + cell + "\t" + lead + "\r\n" + cell + "\t" + cell
				for _, schema := range tsvSchemas[:2] {
					checkLoadTSV(t, []byte(in), schema, false)
				}
			}
		}
	}
}

// TestLoadTSVLineCap pins the 4 MiB line cap at its edge, for a line in
// the middle of the input and for a last line with no newline, and checks
// that a bad line before an over-long one is the error reported, and the
// over-long line's own error after a bad cell in it.
func TestLoadTSVLineCap(t *testing.T) {
	schema := Schema{{"a", String}}
	for _, n := range []int{maxTSVLine, maxTSVLine + 1} {
		long := strings.Repeat("x", n)
		for _, in := range []string{"a\n" + long + "\nb\n", "a\n" + long, long[:n-1] + "\r\n"} {
			checkLoadTSV(t, []byte(in), schema, false)
		}
	}
	in := []byte("1\nx\n" + strings.Repeat("7", maxTSVLine+1) + "\n")
	checkLoadTSV(t, in, Schema{{"a", Int}}, false)
	// An over-long line is reported as such even when a cell before its
	// cap fails to parse.
	in = []byte("1\t2\nx\t" + strings.Repeat("7", maxTSVLine) + "\n")
	checkLoadTSV(t, in, Schema{{"a", Int}, {"b", Int}}, false)
}

// TestLoadTSVFileFromDisk runs the oracle through LoadTSVFile.
func TestLoadTSVFileFromDisk(t *testing.T) {
	path := filepath.Join(t.TempDir(), "t.tsv")
	in := "# c\nk\tv\r\nx\t1.5\ny\t-2\n"
	if err := os.WriteFile(path, []byte(in), 0o644); err != nil {
		t.Fatal(err)
	}
	schema := Schema{{"k", String}, {"v", Float}}
	got, err := LoadTSVFile(path, schema, true)
	if err != nil {
		t.Fatal(err)
	}
	want, _ := loadTSVReference(strings.NewReader(in), schema, true)
	if got.NumRows() != 2 || !slices.Equal(got.floats[1], want.floats[1]) || !slices.Equal(poolStrings(got), poolStrings(want)) {
		t.Fatalf("file load: %d rows %v %q", got.NumRows(), got.floats[1], poolStrings(got))
	}
}

// TestParseTSVAllocs guards the parser's allocation count: it must not
// grow with the row count (no string per line, no column regrowth).
func TestParseTSVAllocs(t *testing.T) {
	var b strings.Builder
	for i := 0; i < 20_000; i++ {
		fmt.Fprintf(&b, "%d\t%d\n", (i*7919)%4096, (i*104729)%4096)
	}
	data := []byte(b.String())
	schema := Schema{{"src", Int}, {"dst", Int}}
	allocs := testing.AllocsPerRun(5, func() {
		if _, err := ParseTSV(data, schema, false); err != nil {
			t.Fatal(err)
		}
	})
	if allocs > 20 {
		t.Fatalf("ParseTSV of 20 000 rows made %.0f allocations, want at most 20", allocs)
	}
}

// FuzzLoadTSV holds LoadTSV to the line-scanner reference on arbitrary
// input under each of the oracle's schemas, with and without a header.
func FuzzLoadTSV(f *testing.F) {
	for i, in := range tsvSeeds {
		f.Add([]byte(in), uint8(i), i%2 == 0)
	}
	f.Fuzz(func(t *testing.T, data []byte, schema uint8, header bool) {
		checkLoadTSV(t, data, tsvSchemas[int(schema)%len(tsvSchemas)], header)
	})
}

// TestTSVStringRoundTrip locks down the escaping behavior documented on
// SaveTSV: tabs, newlines, carriage returns, backslashes and empty strings
// inside multi-column rows all survive a save/load cycle.
func TestTSVStringRoundTrip(t *testing.T) {
	schema := Schema{
		{Name: "Name", Type: String},
		{Name: "Note", Type: String},
		{Name: "N", Type: Int},
	}
	tbl, err := New(schema)
	if err != nil {
		t.Fatal(err)
	}
	rows := []struct {
		name, note string
		n          int64
	}{
		{"plain", "nothing special", 1},
		{"tab\tinside", "two\ttabs\there", 2},
		{"new\nline", "trailing newline\n", 3},
		{"carriage\rreturn", "\rleading", 4},
		{"back\\slash", "\\t is not a tab", 5},
		{"", "empty first cell", 6},
		{"empty note next", "", 7},
		{"mixed \\ \t \n", "\t\n\\", 8},
	}
	for _, r := range rows {
		if err := tbl.AppendRow(r.name, r.note, r.n); err != nil {
			t.Fatal(err)
		}
	}

	var buf bytes.Buffer
	if err := tbl.SaveTSV(&buf, true); err != nil {
		t.Fatal(err)
	}
	// The wire form must be one header plus one line per row: no raw
	// newline may leak out of a cell.
	if gotLines := strings.Count(buf.String(), "\n"); gotLines != len(rows)+1 {
		t.Fatalf("wire form has %d lines, want %d:\n%s", gotLines, len(rows)+1, buf.String())
	}

	back, err := LoadTSV(&buf, schema, true)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumRows() != len(rows) {
		t.Fatalf("round trip rows = %d, want %d", back.NumRows(), len(rows))
	}
	for i, r := range rows {
		if got := back.Value(0, i); got != r.name {
			t.Errorf("row %d Name = %q, want %q", i, got, r.name)
		}
		if got := back.Value(1, i); got != r.note {
			t.Errorf("row %d Note = %q, want %q", i, got, r.note)
		}
		if got := back.Value(2, i); got != r.n {
			t.Errorf("row %d N = %v, want %d", i, got, r.n)
		}
	}
}

// TestTSVLegacyUnescapedInput: for files written before escaping existed
// (or by other tools), bytes that do not form a recognized escape load
// unchanged, including a trailing backslash. (Recognized sequences like a
// literal "\t" ARE reinterpreted — the documented cost of the syntax.)
func TestTSVLegacyUnescapedInput(t *testing.T) {
	in := "a\tplain value\nb\tpath\\\n"
	tbl, err := LoadTSV(strings.NewReader(in), Schema{
		{Name: "K", Type: String},
		{Name: "V", Type: String},
	}, false)
	if err != nil {
		t.Fatal(err)
	}
	if got := tbl.Value(1, 0); got != "plain value" {
		t.Fatalf("plain value = %q", got)
	}
	if got := tbl.Value(1, 1); got != "path\\" {
		t.Fatalf("trailing backslash = %q", got)
	}
	// An unknown escape keeps the escaped byte.
	if unescapeTSV(`\x`) != "x" {
		t.Fatalf("unknown escape = %q", unescapeTSV(`\x`))
	}
}

// TestTSVDocumentedAmbiguities pins the two cases SaveTSV documents as
// lossy, so a future fix (or regression) shows up here.
func TestTSVDocumentedAmbiguities(t *testing.T) {
	schema := Schema{{Name: "S", Type: String}}
	tbl, err := New(schema)
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range []string{"", "#comment-like", "kept"} {
		if err := tbl.AppendRow(v); err != nil {
			t.Fatal(err)
		}
	}
	var buf bytes.Buffer
	if err := tbl.SaveTSV(&buf, false); err != nil {
		t.Fatal(err)
	}
	back, err := LoadTSV(&buf, schema, false)
	if err != nil {
		t.Fatal(err)
	}
	// The blank line and the '#' line are skipped on load, by design.
	if back.NumRows() != 1 || back.Value(0, 0) != "kept" {
		t.Fatalf("ambiguous rows = %d (%v); the documented behavior changed", back.NumRows(), back.Value(0, 0))
	}
}
