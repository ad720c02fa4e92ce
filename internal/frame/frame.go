// Package frame is the one binary codec under Ringo's on-disk formats
// (docs/FORMATS.md): RNGS snapshots, RTBL tables and RNGM graph images.
// It owns what those formats share — little-endian fields behind a magic +
// version header, length-prefixed strings, bulk array blocks read in one
// allocation where the source vouches for their length, the bounds a
// decoder puts on the counts it reads, and the atomic replacement of a
// file on disk — so each format is a payload schema over it.
package frame

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"math/rand/v2"
	"os"
	"slices"
	"unsafe"
)

const (
	// MaxCount rejects element counts no real dataset reaches
	// (2^44 ≈ 17 trillion): a header claiming more is corrupt, and
	// trusting it would ask length arithmetic to overflow.
	MaxCount = 1 << 44
	// maxPrealloc bounds how far a decoded count is trusted: a declared
	// length the source cannot vouch for is read at most this many
	// elements at a time, so a lying count costs reads until the stream
	// runs dry, never an absurd allocation. It also bounds the u32 list
	// lengths Count32 reads.
	maxPrealloc = 1 << 20
	// maxString bounds one length-prefixed string.
	maxString = 1 << 24
)

// Writer encodes little-endian fields into a buffered stream. Its first
// error sticks: later calls do nothing and Flush returns it, so an encoder
// writes its whole schema and checks once.
type Writer struct {
	w   *bufio.Writer
	err error
	n   int64 // bytes written
	buf [8]byte
}

// NewWriter returns a Writer buffering into w.
func NewWriter(w io.Writer) *Writer { return &Writer{w: bufio.NewWriter(w)} }

// Header writes a format's 4-byte magic and u32 version.
func (w *Writer) Header(magic string, version uint32) {
	w.Bytes([]byte(magic))
	w.U32(version)
}

// U8 writes one byte.
func (w *Writer) U8(v byte) {
	w.buf[0] = v
	w.Bytes(w.buf[:1])
}

// U32 writes a little-endian u32.
func (w *Writer) U32(v uint32) {
	binary.LittleEndian.PutUint32(w.buf[:], v)
	w.Bytes(w.buf[:4])
}

// U64 writes a little-endian u64.
func (w *Writer) U64(v uint64) {
	binary.LittleEndian.PutUint64(w.buf[:], v)
	w.Bytes(w.buf[:8])
}

// String writes s as a u32 byte length and the bytes.
func (w *Writer) String(s string) {
	w.U32(uint32(len(s)))
	if w.err == nil {
		_, w.err = w.w.WriteString(s)
		w.n += int64(len(s))
	}
}

// Bytes writes p as is.
func (w *Writer) Bytes(p []byte) {
	if w.err == nil {
		_, w.err = w.w.Write(p)
		w.n += int64(len(p))
	}
}

// Pad8 writes zero bytes up to the next multiple of 8 bytes from the start
// of the stream, so the block written next can be aliased as 8-byte words
// from a buffer holding the stream (Section).
func (w *Writer) Pad8() {
	var zeros [8]byte
	w.Bytes(zeros[:-w.n&7])
}

// Int64s writes s as one block of little-endian i64s; the count is the
// caller's to write.
func (w *Writer) Int64s(s []int64) { w.Bytes(Image(s)) }

// Float64s writes s as one block of little-endian f64 bit patterns.
func (w *Writer) Float64s(s []float64) { w.Bytes(Image(s)) }

// Flush writes out the buffer and returns the first error of the stream.
func (w *Writer) Flush() error {
	if w.err == nil {
		w.err = w.w.Flush()
	}
	return w.err
}

// Reader decodes what Writer encodes, under the package's bounds. Its
// first error sticks and names the field that failed; later reads return
// zero values, so a decoder reads a run of fields and checks Err once,
// before it trusts any value the run produced.
type Reader struct {
	r    *bufio.Reader
	err  error
	off  int64 // bytes read
	left int64 // bytes the source still holds, or -1 when it cannot tell
	buf  [8]byte
}

// NewReader returns a Reader over r, buffering it unless it already is.
// When r can tell how many bytes it still holds — a byte reader's Len, a
// regular file's size past its offset — every block is checked against
// that count and read into one allocation of its size.
func NewReader(r io.Reader) *Reader {
	return &Reader{r: bufio.NewReader(r), left: sourceLen(r)}
}

// sourceLen returns how many unread bytes r holds, or -1 when it cannot
// tell.
func sourceLen(r io.Reader) int64 {
	switch s := r.(type) {
	case interface{ Len() int }: // bytes.Reader, bytes.Buffer, strings.Reader
		return int64(s.Len())
	case *os.File:
		st, err := s.Stat()
		if err != nil || !st.Mode().IsRegular() {
			return -1
		}
		at, err := s.Seek(0, io.SeekCurrent)
		if err != nil || at > st.Size() {
			return -1
		}
		return st.Size() - at
	}
	return -1
}

// Err returns the first error the Reader met, or nil.
func (r *Reader) Err() error { return r.err }

func (r *Reader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf(format, args...)
	}
}

// read fills p from the stream, charging a failure to field.
func (r *Reader) read(field string, p []byte) bool {
	if r.err != nil {
		return false
	}
	if _, err := io.ReadFull(r.r, p); err != nil {
		r.err = fmt.Errorf("reading %s: %w", field, err)
		return false
	}
	r.off += int64(len(p))
	if r.left >= 0 {
		r.left -= int64(len(p))
	}
	return true
}

// Offset returns how many bytes the Reader has consumed: where, in a
// buffer holding the whole stream, the next field starts.
func (r *Reader) Offset() int64 { return r.off }

// Header reads a 4-byte magic and a u32 version and fails unless they are
// the ones given: readers accept exactly the formats they know.
func (r *Reader) Header(magic string, version uint32) {
	got := r.buf[:len(magic)]
	if !r.read("magic", got) {
		return
	}
	if string(got) != magic {
		r.fail("bad magic %q, want %q", got, magic)
		return
	}
	if v := r.U32("version"); r.err == nil && v != version {
		r.fail("unsupported %s version %d", magic, v)
	}
}

// U8 reads one byte.
func (r *Reader) U8(field string) byte {
	if !r.read(field, r.buf[:1]) {
		return 0
	}
	return r.buf[0]
}

// U32 reads a little-endian u32.
func (r *Reader) U32(field string) uint32 {
	if !r.read(field, r.buf[:4]) {
		return 0
	}
	return binary.LittleEndian.Uint32(r.buf[:4])
}

// U64 reads a little-endian u64.
func (r *Reader) U64(field string) uint64 {
	if !r.read(field, r.buf[:8]) {
		return 0
	}
	return binary.LittleEndian.Uint64(r.buf[:8])
}

// Count reads a u64 element count (nodes, edges, rows) and fails on one
// above MaxCount.
func (r *Reader) Count(field string) uint64 {
	n := r.U64(field)
	if n > MaxCount {
		r.fail("implausible %s %d", field, n)
		return 0
	}
	return n
}

// Count32 reads a u32 list length and fails on one above 2^20: the lists
// it sizes (snapshot objects, table columns) are short.
func (r *Reader) Count32(field string) uint32 {
	n := r.U32(field)
	if n > maxPrealloc {
		r.fail("implausible %s %d", field, n)
		return 0
	}
	return n
}

// String reads a u32 byte length and that many bytes, failing on a length
// above 16 MiB or past the bytes the source holds.
func (r *Reader) String(field string) string {
	n := r.U32(field)
	if n > maxString {
		r.fail("%s length %d exceeds limit", field, n)
		return ""
	}
	if r.step(field, uint64(n), 1); r.err != nil {
		return ""
	}
	b := make([]byte, n)
	if !r.read(field, b) {
		return ""
	}
	return string(b)
}

// Bytes reads n bytes into one allocation as large as the first read
// step: all n when the source is known to hold them.
func (r *Reader) Bytes(field string, n uint64) []byte {
	return appendBlock(r, field, make([]byte, 0, min(n, r.step(field, n, 1))), n)
}

// appendBlock reads n elements straight onto the end of out, in one read
// when the source is known to hold them and at most 2^20 elements at a
// time when it cannot tell.
func appendBlock[T word](r *Reader, field string, out []T, n uint64) []T {
	step := r.step(field, n, sizeOf[T]())
	end := uint64(len(out)) + n
	for r.err == nil && uint64(len(out)) < end {
		at := len(out)
		k := int(min(end-uint64(at), step))
		out = slices.Grow(out, k)[:at+k]
		img := Image(out[at:]) // out's own memory on a little-endian host
		if r.read(field, img) && !hostLittle {
			binary.Decode(img, binary.LittleEndian, out[at:])
		}
	}
	if r.err != nil {
		return nil
	}
	return out
}

// step returns how many of n size-byte elements a block read may trust at
// once: all of them when the source holds at least n*size more bytes, 2^20
// when it cannot tell. A block longer than the bytes left fails here,
// before anything is allocated for it.
func (r *Reader) step(field string, n, size uint64) uint64 {
	if r.left < 0 {
		return maxPrealloc
	}
	if n > uint64(r.left)/size {
		r.fail("reading %s: %d elements of %d bytes, only %d bytes left", field, n, size, r.left)
		return 0
	}
	return max(n, 1)
}

// word is an element type whose little-endian image is its memory on a
// little-endian host.
type word interface {
	byte | int32 | int64 | float64
}

func sizeOf[T word]() uint64 {
	var zero T
	return uint64(unsafe.Sizeof(zero))
}

// hostLittle reports whether this host stores integers little endian, in
// which case arrays and their on-disk images are the same bytes and
// neither encoding nor decoding touches individual values.
var hostLittle = func() bool {
	x := uint16(1)
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// Image returns the little-endian byte image of s: s's own memory on a
// little-endian host, an encoded copy otherwise.
func Image[T word](s []T) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*int(unsafe.Sizeof(s[0])))
	}
	out, _ := binary.Append(nil, binary.LittleEndian, s)
	return out
}

// Section returns the length bytes of data at off as a []T: aliased when
// the host is little endian and the bytes are aligned for T (always true
// for a page-aligned section of a page-aligned mapping), decoded into a
// copy otherwise.
func Section[T word](data []byte, off, length int64) []T {
	if length == 0 {
		return nil
	}
	var zero T
	size := int64(unsafe.Sizeof(zero))
	b := data[off : off+length]
	if hostLittle && uintptr(unsafe.Pointer(&b[0]))%uintptr(size) == 0 {
		return unsafe.Slice((*T)(unsafe.Pointer(&b[0])), length/size)
	}
	out := make([]T, length/size)
	binary.Decode(b, binary.LittleEndian, out)
	return out
}

// WriteFile replaces the file at path with what write produces, never
// leaving a partial file behind: write fills a new file in path's
// directory, which is synced and then renamed over path. On any failure
// the new file is removed and path keeps its old contents. The file gets
// the mode os.Create would give it.
func WriteFile(path string, write func(io.Writer) error) error {
	tmp := fmt.Sprintf("%s.tmp%d", path, rand.Uint64())
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o666)
	if err != nil {
		return err
	}
	err = write(f)
	if err == nil {
		// Flush data before the rename: without it, a crash after a
		// journaled rename could leave path naming unwritten blocks,
		// losing the old file anyway.
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp, path)
	}
	if err != nil {
		os.Remove(tmp)
	}
	return err
}
