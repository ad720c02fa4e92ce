// Package extmem is Ringo's beyond-RAM storage tier: CSR graph snapshots
// serialized in a layout a process can mmap and query in place. The Ringo
// paper (Perez et al., SIGMOD 2015) assumes a big-memory machine; GraphMP's
// semi-external recipe — vertex state in RAM, edge arrays in mapped on-disk
// blocks — removes that assumption. This package provides the on-disk
// format (RNGM) plus the mapped loader; the mapped view it serves is an
// ordinary graph.View, so the heap kernels run over it unchanged.
//
// RNGM layout (all integers little endian):
//
//	[0:4)   magic "RNGM"
//	[4:8)   format version u32 (currently 1)
//	[8:12)  kind u32: 1 = directed view, 2 = undirected view
//	[12:16) reserved u32 (zero)
//	[16:24) node count u64
//	[24:32) edge-array entry count u64 (directed: out-edge count, which
//	        equals the in-edge count; undirected: adjacency arena entries)
//	[32:40) section count u64 (5 directed, 3 undirected)
//	then per section: file offset u64, byte length u64, checksum u64
//	then header checksum u64 (xhash of every preceding header byte)
//
// Sections follow in table order at 4096-aligned offsets, each the raw
// little-endian image of one graph.View / graph.UView array:
//
//	directed:   ids []i64, outOff []i64, inOff []i64, out []i32, in []i32
//	undirected: ids []i64, off []i64, arena []i32
//
// Because the section layout IS the in-memory layout, OpenMapped turns a
// file into a queryable view by validating and aliasing — no per-node
// decode loop, no hash-map build, no allocation proportional to the graph.
package extmem

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"os"
	"path/filepath"
	"unsafe"

	"ringo/internal/graph"
	"ringo/internal/xhash"
)

const (
	mappedMagic   = "RNGM"
	mappedVersion = 1

	kindDirected   = 1
	kindUndirected = 2

	// pageAlign is the section alignment: a multiple of every page size in
	// practical use, so a section start in a page-aligned mapping is always
	// 8-byte aligned for direct []int64 aliasing.
	pageAlign = 4096

	// fixedHeaderLen is the header prefix before the section table.
	fixedHeaderLen = 40
	// sectionEntryLen is one section-table entry (offset, length, checksum).
	sectionEntryLen = 24

	// maxMappedCount rejects node/edge counts no real dataset reaches,
	// mirroring the RNGO/RNGU decoders: a header claiming more is corrupt,
	// and section-length math must not be asked to overflow on it.
	maxMappedCount = 1 << 44
)

func headerLen(nsections int) int64 {
	return fixedHeaderLen + int64(nsections)*sectionEntryLen + 8
}

func alignUp(off int64) int64 {
	return (off + pageAlign - 1) &^ (pageAlign - 1)
}

// SaveMapped writes v to path as an RNGM image. The write goes to a
// temporary file in path's directory and renames into place, so readers
// never observe a half-written image.
func SaveMapped(path string, v *graph.View) error {
	ids, outOff, inOff, out, in := v.ViewParts()
	secs := [][]byte{i64Bytes(ids), i64Bytes(outOff), i64Bytes(inOff), i32Bytes(out), i32Bytes(in)}
	return save(path, kindDirected, uint64(len(ids)), uint64(len(out)), secs)
}

// SaveMappedUndirected writes u to path as the undirected RNGM variant.
func SaveMappedUndirected(path string, u *graph.UView) error {
	ids, off, arena := u.UViewParts()
	secs := [][]byte{i64Bytes(ids), i64Bytes(off), i32Bytes(arena)}
	return save(path, kindUndirected, uint64(len(ids)), uint64(len(arena)), secs)
}

func save(path string, kind uint32, nnodes, nentries uint64, secs [][]byte) error {
	hdr := headerLen(len(secs))
	offsets := make([]int64, len(secs))
	at := alignUp(hdr)
	for i, s := range secs {
		offsets[i] = at
		at = alignUp(at + int64(len(s)))
	}

	head := make([]byte, 0, hdr)
	head = append(head, mappedMagic...)
	head = binary.LittleEndian.AppendUint32(head, mappedVersion)
	head = binary.LittleEndian.AppendUint32(head, kind)
	head = binary.LittleEndian.AppendUint32(head, 0) // reserved
	head = binary.LittleEndian.AppendUint64(head, nnodes)
	head = binary.LittleEndian.AppendUint64(head, nentries)
	head = binary.LittleEndian.AppendUint64(head, uint64(len(secs)))
	for i, s := range secs {
		head = binary.LittleEndian.AppendUint64(head, uint64(offsets[i]))
		head = binary.LittleEndian.AppendUint64(head, uint64(len(s)))
		head = binary.LittleEndian.AppendUint64(head, xhash.Checksum64(s))
	}
	head = binary.LittleEndian.AppendUint64(head, xhash.Checksum64(head))

	dir := filepath.Dir(path)
	f, err := os.CreateTemp(dir, ".rngm-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	fail := func(err error) error {
		f.Close()
		os.Remove(tmp)
		return err
	}

	bw := bufio.NewWriterSize(f, 1<<20)
	pos := int64(0)
	write := func(p []byte) error {
		n, err := bw.Write(p)
		pos += int64(n)
		return err
	}
	padTo := func(target int64) error {
		var zeros [pageAlign]byte
		for pos < target {
			chunk := target - pos
			if chunk > pageAlign {
				chunk = pageAlign
			}
			if err := write(zeros[:chunk]); err != nil {
				return err
			}
		}
		return nil
	}

	if err := write(head); err != nil {
		return fail(err)
	}
	for i, s := range secs {
		if err := padTo(offsets[i]); err != nil {
			return fail(err)
		}
		if err := write(s); err != nil {
			return fail(err)
		}
	}
	if err := bw.Flush(); err != nil {
		return fail(err)
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// hostLittle reports whether this host stores integers little endian, in
// which case in-memory arrays alias their on-disk image byte for byte and
// both save and open can skip per-value encoding.
var hostLittle = func() bool {
	var x uint16 = 1
	return *(*byte)(unsafe.Pointer(&x)) == 1
}()

// i64Bytes returns the little-endian byte image of s — aliased on LE
// hosts, encoded into a fresh buffer on BE hosts.
func i64Bytes(s []int64) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
	}
	out := make([]byte, len(s)*8)
	for i, v := range s {
		binary.LittleEndian.PutUint64(out[i*8:], uint64(v))
	}
	return out
}

// u64Bytes views a []uint64 buffer as bytes; the read fallback allocates
// its image through this so the base is always 8-byte aligned for section
// aliasing.
func u64Bytes(s []uint64) []byte {
	if len(s) == 0 {
		return nil
	}
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*8)
}

// i32Bytes is i64Bytes for int32 arrays.
func i32Bytes(s []int32) []byte {
	if len(s) == 0 {
		return nil
	}
	if hostLittle {
		return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(s))), len(s)*4)
	}
	out := make([]byte, len(s)*4)
	for i, v := range s {
		binary.LittleEndian.PutUint32(out[i*4:], uint32(v))
	}
	return out
}

// i64Section interprets length bytes at off as []int64: zero-copy aliasing
// when the host is little endian and the base is 8-byte aligned (always
// true for page-aligned sections in a page-aligned mapping), decode-copy
// otherwise.
func i64Section(data []byte, off, length int64) []int64 {
	if length == 0 {
		return nil
	}
	base := &data[off]
	if hostLittle && uintptr(unsafe.Pointer(base))%8 == 0 {
		return unsafe.Slice((*int64)(unsafe.Pointer(base)), length/8)
	}
	out := make([]int64, length/8)
	for i := range out {
		out[i] = int64(binary.LittleEndian.Uint64(data[off+int64(i)*8:]))
	}
	return out
}

// i32Section is i64Section for []int32.
func i32Section(data []byte, off, length int64) []int32 {
	if length == 0 {
		return nil
	}
	base := &data[off]
	if hostLittle && uintptr(unsafe.Pointer(base))%4 == 0 {
		return unsafe.Slice((*int32)(unsafe.Pointer(base)), length/4)
	}
	out := make([]int32, length/4)
	for i := range out {
		out[i] = int32(binary.LittleEndian.Uint32(data[off+int64(i)*4:]))
	}
	return out
}

// kindName names a kind constant for errors and summaries.
func kindName(kind uint32) string {
	switch kind {
	case kindDirected:
		return "directed"
	case kindUndirected:
		return "undirected"
	default:
		return fmt.Sprintf("kind-%d", kind)
	}
}
