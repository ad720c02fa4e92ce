package frame

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// TestWriteFileFailureKeepsTarget: a write that fails halfway leaves the
// file it was replacing byte-identical and no temporary file behind.
func TestWriteFileFailureKeepsTarget(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "g.rngo")
	old := []byte("the previous good file")
	if err := os.WriteFile(path, old, 0o644); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("disk full")
	err := WriteFile(path, func(w io.Writer) error {
		if _, err := w.Write([]byte("half of a new")); err != nil {
			return err
		}
		return boom
	})
	if !errors.Is(err, boom) {
		t.Fatalf("WriteFile error = %v, want the write func's", err)
	}
	if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, old) {
		t.Fatalf("target after a failed write = %q, %v; want %q", got, err, old)
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"g.rngo"}) {
		t.Fatalf("directory holds %v after a failed write", names)
	}
}

// TestWriteFileReplaces: a successful write replaces the target, leaves
// nothing else, and gives the file the mode os.Create gives.
func TestWriteFileReplaces(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "t.tsv")
	for _, body := range []string{"first\n", "second, longer\n"} {
		if err := WriteFile(path, func(w io.Writer) error {
			_, err := io.WriteString(w, body)
			return err
		}); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || string(got) != body {
			t.Fatalf("target = %q, %v; want %q", got, err, body)
		}
	}
	if names := dirNames(t, dir); !slices.Equal(names, []string{"t.tsv"}) {
		t.Fatalf("directory holds %v", names)
	}
	ref, err := os.Create(filepath.Join(dir, "ref"))
	if err != nil {
		t.Fatal(err)
	}
	ref.Close()
	want, _ := os.Stat(ref.Name())
	got, _ := os.Stat(path)
	if got.Mode() != want.Mode() {
		t.Fatalf("mode %v, want os.Create's %v", got.Mode(), want.Mode())
	}
}

func dirNames(t *testing.T, dir string) []string {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range ents {
		names = append(names, e.Name())
	}
	return names
}

// TestRoundTrip reads back every field kind a Writer writes, including
// blocks longer than one read chunk.
func TestRoundTrip(t *testing.T) {
	ints := []int64{-1, 0, math.MaxInt64, math.MinInt64}
	floats := []float64{0.5, math.Inf(-1), math.Copysign(0, -1)}
	long := bytes.Repeat([]byte{1, 2, 3}, maxPrealloc/2)
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Header("TEST", 3)
	w.U8(7)
	w.U32(1 << 31)
	w.U64(MaxCount)
	w.U32(maxPrealloc)
	w.String("tab\there")
	w.String("")
	w.Int64s(ints)
	w.Float64s(floats)
	w.Bytes(long)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}

	r := NewReader(&buf)
	r.Header("TEST", 3)
	if v := r.U8("u8"); v != 7 {
		t.Fatalf("U8 = %d", v)
	}
	if v := r.U32("u32"); v != 1<<31 {
		t.Fatalf("U32 = %d", v)
	}
	if v := r.Count("count"); v != MaxCount {
		t.Fatalf("Count = %d", v)
	}
	if v := r.Count32("count32"); v != maxPrealloc {
		t.Fatalf("Count32 = %d", v)
	}
	if s1, s2 := r.String("s1"), r.String("s2"); s1 != "tab\there" || s2 != "" {
		t.Fatalf("strings = %q, %q", s1, s2)
	}
	if got := appendBlock[int64](r, "ints", nil, uint64(len(ints))); !slices.Equal(got, ints) {
		t.Fatalf("Int64s = %v", got)
	}
	img := r.Bytes("floats", uint64(8*len(floats)))
	if got := Section[float64](img, 0, int64(len(img))); !slices.EqualFunc(got, floats, func(a, b float64) bool {
		return math.Float64bits(a) == math.Float64bits(b)
	}) {
		t.Fatalf("Float64s = %v", got)
	}
	if got := r.Bytes("long", uint64(len(long))); !bytes.Equal(got, long) {
		t.Fatalf("Bytes: %d bytes back, want %d", len(got), len(long))
	}
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if r.U8("past the end"); r.Err() == nil {
		t.Fatal("read past the end succeeded")
	}
}

// TestReaderRejects: each bound and header check fails with an error that
// names what failed, the first error sticks, and a lying block length
// costs at most one chunk of allocation before the stream runs dry.
func TestReaderRejects(t *testing.T) {
	u32 := func(v uint32) []byte { return []byte{byte(v), byte(v >> 8), byte(v >> 16), byte(v >> 24)} }
	u64 := func(v uint64) []byte { return append(u32(uint32(v)), u32(uint32(v>>32))...) }
	cases := []struct {
		name string
		in   []byte
		read func(r *Reader)
		want string
	}{
		{"empty", nil, func(r *Reader) { r.Header("RTBL", 1) }, "reading magic"},
		{"magic", []byte("RNGO\x01\x00\x00\x00"), func(r *Reader) { r.Header("RTBL", 1) }, "bad magic"},
		{"version", []byte("RTBL\x02\x00\x00\x00"), func(r *Reader) { r.Header("RTBL", 1) }, "unsupported RTBL version 2"},
		{"count", u64(MaxCount + 1), func(r *Reader) { r.Count("node count") }, "implausible node count"},
		{"count32", u32(maxPrealloc + 1), func(r *Reader) { r.Count32("column count") }, "implausible column count"},
		{"string", u32(maxString + 1), func(r *Reader) { r.String("pool string") }, "pool string length"},
		{"truncated string", append(u32(5), "abc"...), func(r *Reader) { r.String("name") }, "reading name"},
		{"sticky", u32(1), func(r *Reader) {
			r.U64("first")
			r.U32("second")
		}, "reading first"},
		{"lying block", u64(1), func(r *Reader) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			if got := appendBlock[int64](r, "row ids", nil, 1<<40); got != nil {
				t.Errorf("lying block returned %d values", len(got))
			}
			runtime.ReadMemStats(&after)
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 16*maxPrealloc {
				t.Errorf("lying block allocated %d bytes", grew)
			}
		}, "reading row ids"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			r := NewReader(bytes.NewReader(tc.in))
			tc.read(r)
			if err := r.Err(); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error = %v, want one containing %q", err, tc.want)
			}
		})
	}
}

// TestSectionMatchesImage: a section aliased in place and one decoded from
// a misaligned copy both read back the array whose image they hold.
func TestSectionMatchesImage(t *testing.T) {
	want := []int64{3, -1, 1 << 40}
	img := Image(want)
	shifted := append([]byte{0}, img...)
	for _, tc := range []struct {
		data []byte
		off  int64
	}{{img, 0}, {shifted, 1}} {
		if got := Section[int64](tc.data, tc.off, int64(len(img))); !slices.Equal(got, want) {
			t.Fatalf("Section at offset %d = %v, want %v", tc.off, got, want)
		}
	}
	small := []int32{-7, 9}
	if got := Section[int32](Image(small), 0, 8); !slices.Equal(got, small) {
		t.Fatalf("int32 Section = %v", got)
	}
}

// TestPad8AlignsTheNextBlock: Pad8 writes zeros up to the next multiple of
// 8 bytes from the stream's start, none when it is there already, and a
// Reader's Offset after the same fields points at the padded block.
func TestPad8AlignsTheNextBlock(t *testing.T) {
	for _, name := range []string{"", "a", "abcd", "abcdefgh"} {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		w.Header("TEST", 1)
		w.String(name)
		w.Pad8()
		w.Int64s([]int64{-2, 5})
		if err := w.Flush(); err != nil {
			t.Fatal(err)
		}
		b := buf.Bytes()
		r := NewReader(bytes.NewReader(b))
		r.Header("TEST", 1)
		r.String("name")
		at := r.Offset()
		if at != int64(12+len(name)) || r.Err() != nil {
			t.Fatalf("%q: Offset = %d, error %v", name, at, r.Err())
		}
		pad := (at + 7) &^ 7
		if int64(len(b)) != pad+16 || !bytes.Equal(b[at:pad], make([]byte, pad-at)) {
			t.Fatalf("%q: %d bytes after a %d-byte prefix, padding %x", name, len(b), at, b[at:min(pad, int64(len(b)))])
		}
		if got := Section[int64](b, pad, 16); !slices.Equal(got, []int64{-2, 5}) {
			t.Fatalf("%q: block after the padding = %v", name, got)
		}
	}
}

// TestAppendInt64s: i64 blocks appendBlock reads onto one column land
// after what it held, including a block longer than one bounded read, and
// a block the stream cannot fill fails with the field named and no column
// returned.
func TestAppendInt64s(t *testing.T) {
	long := make([]int64, 1<<20+3)
	for i := range long {
		long[i] = int64(i) - 7
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int64s([]int64{4, -5})
	w.Int64s(long)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(bytes.NewReader(buf.Bytes()))
	col := appendBlock[int64](r, "first", []int64{1}, 2)
	col = appendBlock[int64](r, "second", col, uint64(len(long)))
	if err := r.Err(); err != nil {
		t.Fatal(err)
	}
	if want := slices.Concat([]int64{1, 4, -5}, long); !slices.Equal(col, want) {
		t.Fatalf("column holds %d values, want %d in order", len(col), len(want))
	}
	if got := appendBlock[int64](r, "third", col, 1); got != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "third") {
		t.Fatalf("append past the stream: %d values, error %v", len(got), r.Err())
	}
}

// TestBlockReadsInOneAllocation: a block read from a source that knows its
// length — a byte reader, a regular file — lands in one allocation of its
// size, a block longer than the bytes left fails before anything is
// allocated for it, and a source that cannot tell its length still reads
// the block, 2^20 elements at a time.
func TestBlockReadsInOneAllocation(t *testing.T) {
	want := make([]int64, 3<<20) // 24 MiB, three bounded reads
	for i := range want {
		want[i] = int64(i) * 7
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Int64s(want)
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "block")
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	size := uint64(len(buf.Bytes()))
	sources := []struct {
		name  string
		open  func() io.Reader
		exact bool
	}{
		{"bytes", func() io.Reader { return bytes.NewReader(buf.Bytes()) }, true},
		{"file", func() io.Reader {
			f, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { f.Close() })
			return f
		}, true},
		{"opaque", func() io.Reader { return io.MultiReader(bytes.NewReader(buf.Bytes())) }, false},
	}
	for _, src := range sources {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		got := NewReader(src.open()).Bytes("block", size)
		runtime.ReadMemStats(&after)
		if !bytes.Equal(got, buf.Bytes()) {
			t.Fatalf("%s: block read back %d bytes, want %d in order", src.name, len(got), size)
		}
		grew := after.TotalAlloc - before.TotalAlloc
		if src.exact && grew > size+64<<10 {
			t.Fatalf("%s: reading a %d-byte block allocated %d bytes", src.name, size, grew)
		}
		if !src.exact && grew <= size+64<<10 {
			t.Fatalf("%s: a source of unknown length read %d bytes in one allocation (%d bytes)", src.name, size, grew)
		}
		if src.exact {
			r := NewReader(src.open())
			runtime.ReadMemStats(&before)
			lying := r.Bytes("lying", size+1)
			runtime.ReadMemStats(&after)
			if lying != nil || r.Err() == nil || !strings.Contains(r.Err().Error(), "bytes left") {
				t.Fatalf("%s: a block one element past the source gave %d values, error %v", src.name, len(lying), r.Err())
			}
			if grew := after.TotalAlloc - before.TotalAlloc; grew > 64<<10 {
				t.Fatalf("%s: a lying block length allocated %d bytes", src.name, grew)
			}
		}
	}
}
