package graph

import (
	"bytes"
	"encoding/binary"
	"math"
	"slices"
	"testing"
)

// FuzzLoadEdgeList drives the sequential reference loader (seqload_test.go)
// and the parallel pipeline with arbitrary bytes and requires them to
// agree: both reject the input, or both accept it, the sequential graph
// passes Validate and the parallel view equals its BuildView. This is the
// contract that lets loadgraph route text through the parallel pipeline
// without changing what any caller observes.
func FuzzLoadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"1 2\n2 3\n3 1\n",
		"1\t2\r\n2\t2\r\n",
		"# comment\n\n1 2\n",
		"# node 7\n# node -3\n",
		"#node 9\n# node 5 extra\n# nodes 4\n",
		"1 2 3 4\n",
		"1 2 trailing\n",
		"99999999999999999999999999 1\n",
		"1 99999999999999999999999999\n",
		"-9223372036854775808 1\n",
		"9223372036854775807 -9223372036854775807\n",
		"1\n",
		"a b\n",
		"+1 -2\n",
		"01 002\n",
		" 5   6 \n",
		"5 6", // no trailing newline
		"1 2\n",
		"1 2\n",
		"1 2\x00\n",
		"--1 2\n",
		"1- 2\n",
		"# node 9223372036854775808\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("outsized input") // avoid the scanner's deliberate line cap
		}
		seq, seqErr := loadEdgeList(bytes.NewReader(data))
		par, parErr := ParseEdgeList(data)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("loaders disagree on acceptance: seq=%v par=%v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		if err := seq.Validate(); err != nil {
			t.Fatalf("sequential graph invalid: %v", err)
		}
		if err := identicalViews(par, BuildView(seq)); err != nil {
			t.Fatalf("graphs differ: %v", err)
		}
	})
}

// FuzzBuildViewCols holds the column-to-CSR build to the per-edge
// reference (checkBuildViewCols). Each 16 bytes of data is one (src, dst)
// pair and each 8 bytes of nodes one declared node; shift narrows every id
// (an arithmetic right shift, so negatives stay negative) and moves the
// build between its relabel arms: a large shift packs the ids into a span
// the presence bitmap takes, a small one spreads them over the sorted-id
// arm. A declared node may repeat, be an endpoint or lie outside the
// edges' span. reserved plants the reserved id in a source, a destination
// or a declared node.
func FuzzBuildViewCols(f *testing.F) {
	pair := func(s, d int64) []byte {
		return binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, uint64(s)), uint64(d))
	}
	ids := func(xs ...int64) []byte {
		var b []byte
		for _, x := range xs {
			b = binary.LittleEndian.AppendUint64(b, uint64(x))
		}
		return b
	}
	f.Add([]byte{}, []byte{}, uint8(0), uint8(0))
	f.Add(slices.Concat(pair(1, 2), pair(2, 2), pair(1, 2), pair(-5, 1)), ids(2, 9, 9, -7), uint8(0), uint8(0))
	f.Add(slices.Concat(pair(1<<40, -1<<40), pair(7, 7), pair(-1, 1<<62)), ids(1<<41, 7), uint8(30), uint8(0))
	f.Add(slices.Concat(pair(1, 2), pair(3, 4)), ids(5), uint8(0), uint8(3))
	f.Add(slices.Concat(pair(1, 2), pair(3, 4)), ids(5, 6), uint8(0), uint8(5))
	f.Add(slices.Concat(pair(math.MinInt64, 2)), []byte{}, uint8(0), uint8(0))
	f.Add(slices.Concat(pair(math.MaxInt64, math.MinInt64+1), pair(0, 0)), ids(math.MaxInt64, 1), uint8(62), uint8(0))
	f.Add([]byte{}, ids(3, -3, 3), uint8(0), uint8(0))
	f.Fuzz(func(t *testing.T, data, declared []byte, shift, reserved uint8) {
		m, k := min(len(data)/16, 4096), min(len(declared)/8, 4096)
		srcs, dsts, nodes := make([]int64, m), make([]int64, m), make([]int64, k)
		for i := range srcs {
			srcs[i] = int64(binary.LittleEndian.Uint64(data[16*i:])) >> (shift % 64)
			dsts[i] = int64(binary.LittleEndian.Uint64(data[16*i+8:])) >> (shift % 64)
		}
		for i := range nodes {
			nodes[i] = int64(binary.LittleEndian.Uint64(declared[8*i:])) >> (shift % 64)
		}
		if col := [][]int64{srcs, dsts, nodes}[reserved%3]; len(col) > 0 && reserved > 0 {
			col[int(reserved/3)%len(col)] = ReservedNodeID
		}
		checkBuildViewCols(t, srcs, dsts, nodes)
	})
}
