package table

import (
	"fmt"
	"sync/atomic"

	"ringo/internal/bitmap"
	"ringo/internal/par"
)

// CmpOp is a comparison operator for Select predicates.
type CmpOp int

// Comparison operators.
const (
	EQ CmpOp = iota
	NE
	LT
	LE
	GT
	GE
)

// String returns the usual symbol for the operator.
func (op CmpOp) String() string {
	switch op {
	case EQ:
		return "=="
	case NE:
		return "!="
	case LT:
		return "<"
	case LE:
		return "<="
	case GT:
		return ">"
	case GE:
		return ">="
	default:
		return fmt.Sprintf("CmpOp(%d)", int(op))
	}
}

func cmpString(a, b string, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

// filterRows counts rows scanned by every selection path (vectorized,
// closure, indexed) process-wide; the server reads it as the
// ringo_table_filter_rows_total counter. One atomic add per operation.
var filterRows atomic.Int64

// FilterRowsTotal reports the cumulative number of rows scanned by
// selection operations since process start.
func FilterRowsTotal() int64 { return filterRows.Load() }

// Select returns the rows whose col value compares true against val under
// op, as a selection over t's columns (see Table). Row identifiers are
// preserved. The column is scanned with the vectorized column-at-a-time
// kernel.
func (t *Table) Select(col string, op CmpOp, val any) (*Table, error) {
	leaf, err := t.resolveLeaf(col, op, val)
	if err != nil {
		return nil, err
	}
	return t.selectBitmap(t.leafBitmap(leaf)), nil
}

// SelectBitmap returns the rows whose bits are set in bm, as Select does —
// the consumption step for externally built selection vectors such as
// EqIndex lookups. bm must be NumRows bits long and is only read.
func (t *Table) SelectBitmap(bm *bitmap.Bitmap) (*Table, error) {
	if bm.Len() != t.NumRows() {
		return nil, fmt.Errorf("table: SelectBitmap with %d bits for %d rows", bm.Len(), t.NumRows())
	}
	return t.selectBitmap(bm), nil
}

// SelectFunc returns the rows for which pred returns true, as Select does.
// pred receives the row index, is called once per row and must be safe for
// concurrent calls on distinct rows. This is the row-at-a-time
// compatibility path (arbitrary Go predicates can't vectorize) and the
// oracle the vectorized path is tested against.
func (t *Table) SelectFunc(pred func(row int) bool) *Table {
	n := t.NumRows()
	bm := bitmap.New(n)
	words := bm.Words()
	bm.ParFill(func(wlo, whi int) {
		for w := wlo; w < whi; w++ {
			var word uint64
			for j := range min(bitmap.WordBits, n-w<<6) {
				if pred(w<<6 + j) {
					word |= 1 << uint(j)
				}
			}
			words[w] = word
		}
	})
	return t.selectBitmap(bm)
}

// selectBitmap returns the rows of t selected by bm as positions in t's
// base, composing t's own positions when t is a selection: per-range
// popcounts, a prefix sum, then each worker decodes its range into a
// disjoint part of the row vector.
func (t *Table) selectBitmap(bm *bitmap.Bitmap) *Table {
	n := t.NumRows()
	filterRows.Add(int64(n))
	base, parent := t.view()
	ranges := par.Split(n, par.Workers())
	counts := make([]int, len(ranges))
	par.ForEach(len(ranges), func(k int) {
		counts[k] = bm.CountRange(ranges[k].Lo, ranges[k].Hi)
	})
	offsets, total := prefixSum(counts)
	rows := make([]int32, total)
	par.ForEach(len(ranges), func(k int) {
		out := bm.AppendSet(rows[offsets[k]:offsets[k]:offsets[k]+counts[k]], ranges[k].Lo, ranges[k].Hi)
		if parent != nil {
			for j, r := range out {
				out[j] = parent[r]
			}
		}
	})
	return t.selectRows(base, rows)
}

// prefixSum converts per-range counts to starting offsets, returning the
// offsets and the grand total.
func prefixSum(counts []int) (offsets []int, total int) {
	offsets = make([]int, len(counts))
	for k, c := range counts {
		offsets[k] = total
		total += c
	}
	return offsets, total
}
