// Package extmem is Ringo's beyond-RAM storage tier: CSR graph snapshots
// serialized in a layout a process can mmap and query in place. The Ringo
// paper (Perez et al., SIGMOD 2015) assumes a big-memory machine; GraphMP's
// semi-external recipe — vertex state in RAM, edge arrays in mapped on-disk
// blocks — removes that assumption. This package provides the on-disk
// format (RNGM), Ringo's one graph file: the save verb writes it,
// loadgraph reads it onto the heap (Read), and mapgraph and
// ringo-server -restore serve it in place (Open). Either way the view it
// serves is an ordinary graph.View, so the heap kernels run over it
// unchanged.
//
// RNGM layout (all integers little endian):
//
//	[0:4)   magic "RNGM"
//	[4:8)   format version u32 (currently 2; version 1 checksummed with a
//	        byte-serial FNV-1a and is refused)
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
// file into a queryable view by validating and aliasing — no decode, no
// hash-map build; the only allocation proportional to the graph is the
// transpose check's transient cursor per node (graph.ViewFromArrays).
package extmem

import (
	"encoding/binary"
	"fmt"
	"io"

	"ringo/internal/frame"
	"ringo/internal/graph"
	"ringo/internal/xhash"
)

const (
	// Magic opens every RNGM image.
	Magic         = "RNGM"
	mappedVersion = 2

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
)

func headerLen(nsections int) int64 {
	return fixedHeaderLen + int64(nsections)*sectionEntryLen + 8
}

func alignUp(off int64) int64 {
	return (off + pageAlign - 1) &^ (pageAlign - 1)
}

// SaveMapped writes v to path as an RNGM image through frame.WriteFile, so
// readers never observe a half-written image.
func SaveMapped(path string, v *graph.View) error {
	ids, outOff, inOff, out, in := v.ViewParts()
	secs := [][]byte{frame.Image(ids), frame.Image(outOff), frame.Image(inOff), frame.Image(out), frame.Image(in)}
	return save(path, kindDirected, uint64(len(ids)), uint64(len(out)), secs)
}

// SaveMappedUndirected writes u to path as the undirected RNGM variant.
func SaveMappedUndirected(path string, u *graph.UView) error {
	ids, off, arena := u.UViewParts()
	secs := [][]byte{frame.Image(ids), frame.Image(off), frame.Image(arena)}
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
	head = append(head, Magic...)
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

	return frame.WriteFile(path, func(w io.Writer) error {
		fw := frame.NewWriter(w)
		fw.Bytes(head)
		end := hdr
		for i, s := range secs {
			fw.Bytes(make([]byte, offsets[i]-end)) // zero gap up to the aligned start
			fw.Bytes(s)
			end = offsets[i] + int64(len(s))
		}
		return fw.Flush()
	})
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
