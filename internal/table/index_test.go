package table

import (
	"errors"
	"runtime"
	"testing"
)

// TestBuildEqIndexOverCapAllocatesLittle pins the cardinality check before
// allocation: a column one distinct value over the cap is rejected after
// counting, without first zeroing a row-sized bitmap per value it saw.
func TestBuildEqIndexOverCapAllocatesLittle(t *testing.T) {
	const rows = 1 << 16
	col := make([]int64, rows)
	for i := range col {
		col[i] = int64(i % (DefaultIndexMaxCardinality + 1))
	}
	tbl, err := FromIntColumns([]string{"k"}, [][]int64{col})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	_, err = BuildEqIndex(tbl, "k", 0)
	runtime.ReadMemStats(&after)
	if !errors.Is(err, ErrHighCardinality) {
		t.Fatalf("BuildEqIndex over the cap returned %v, want ErrHighCardinality", err)
	}
	if alloc, limit := after.TotalAlloc-before.TotalAlloc, uint64(8*8*rows); alloc >= limit {
		t.Fatalf("rejected build allocated %d bytes, want < %d (8× the column)", alloc, limit)
	}
}
