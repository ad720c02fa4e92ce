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

// Select returns a new table containing the rows whose col value compares
// true against val under op. Row identifiers are preserved. The column is
// scanned with the vectorized column-at-a-time kernel.
func (t *Table) Select(col string, op CmpOp, val any) (*Table, error) {
	leaf, err := t.resolveLeaf(col, op, val)
	if err != nil {
		return nil, err
	}
	return t.selectBitmap(t.leafBitmap(leaf)), nil
}

// SelectInPlace filters the table in place, keeping rows matching the
// predicate, and reports the number of rows kept. Row identifiers of kept
// rows are unchanged — this is Ringo's persistent-id in-place selection.
//
// Aliasing contract: the receiver keeps its own column storage (rows are
// compacted forward and the slices truncated, preserving capacity) and its
// string-pool identity — the table's *strpool.Pool before the call remains
// its pool after it. Raw column slices previously obtained from
// IntCol/FloatCol alias the compacted storage.
func (t *Table) SelectInPlace(col string, op CmpOp, val any) (int, error) {
	leaf, err := t.resolveLeaf(col, op, val)
	if err != nil {
		return 0, err
	}
	return t.compactBitmap(t.leafBitmap(leaf)), nil
}

// SelectBitmap returns a new table of the rows whose bits are set in bm,
// preserving row identifiers — the consumption step for externally built
// selection vectors such as EqIndex lookups. bm must be NumRows bits long
// and is only read.
func (t *Table) SelectBitmap(bm *bitmap.Bitmap) (*Table, error) {
	if bm.Len() != t.NumRows() {
		return nil, fmt.Errorf("table: SelectBitmap with %d bits for %d rows", bm.Len(), t.NumRows())
	}
	return t.selectBitmap(bm), nil
}

// SelectFunc returns a new table of rows for which pred returns true. pred
// receives the row index and must be safe for concurrent calls on distinct
// rows. This is the row-at-a-time compatibility path (arbitrary Go
// predicates can't vectorize) and the oracle the vectorized path is tested
// against.
func (t *Table) SelectFunc(pred func(row int) bool) *Table {
	return t.selectPred(pred)
}

// selectPred implements parallel two-pass selection over a per-row
// predicate: pass 1 computes the per-range match counts, a prefix sum
// assigns disjoint output ranges, and pass 2 copies matching rows with no
// inter-worker contention — the same contention-free pattern Ringo uses for
// its parallel table operations.
func (t *Table) selectPred(pred func(row int) bool) *Table {
	n := t.NumRows()
	filterRows.Add(int64(n))
	ranges := par.Split(n, par.Workers())
	counts := make([]int, len(ranges))
	par.ForEach(len(ranges), func(k int) {
		c := 0
		for row := ranges[k].Lo; row < ranges[k].Hi; row++ {
			if pred(row) {
				c++
			}
		}
		counts[k] = c
	})
	offsets, total := prefixSum(counts)
	out := t.preparedOutput(total)
	par.ForEach(len(ranges), func(k int) {
		w := offsets[k]
		for row := ranges[k].Lo; row < ranges[k].Hi; row++ {
			if !pred(row) {
				continue
			}
			for i := range t.cols {
				if t.cols[i].Type == Float {
					out.floats[i][w] = t.floats[i][row]
				} else {
					out.ints[i][w] = t.ints[i][row]
				}
			}
			out.rowIDs[w] = t.rowIDs[row]
			w++
		}
	})
	return out
}

// selectBitmap materializes the rows selected by bm into a new table with
// the same two-pass contention-free layout as selectPred: per-range
// popcounts, a prefix sum, then each worker gathers its rows
// column-at-a-time into a disjoint output range.
func (t *Table) selectBitmap(bm *bitmap.Bitmap) *Table {
	n := t.NumRows()
	filterRows.Add(int64(n))
	ranges := par.Split(n, par.Workers())
	counts := make([]int, len(ranges))
	par.ForEach(len(ranges), func(k int) {
		counts[k] = bm.CountRange(ranges[k].Lo, ranges[k].Hi)
	})
	offsets, total := prefixSum(counts)
	out := t.preparedOutput(total)
	par.ForEach(len(ranges), func(k int) {
		if counts[k] == 0 {
			return
		}
		// Decode the selection vector once per range, then gather each
		// column with a tight loop over the row indices.
		sel := make([]int32, 0, counts[k])
		bm.RangeBits(ranges[k].Lo, ranges[k].Hi, func(row int) {
			sel = append(sel, int32(row))
		})
		base := offsets[k]
		for i := range t.cols {
			if t.cols[i].Type == Float {
				src, dst := t.floats[i], out.floats[i]
				for j, row := range sel {
					dst[base+j] = src[row]
				}
			} else {
				src, dst := t.ints[i], out.ints[i]
				for j, row := range sel {
					dst[base+j] = src[row]
				}
			}
		}
		dst := out.rowIDs
		for j, row := range sel {
			dst[base+j] = t.rowIDs[row]
		}
	})
	return out
}

// compactBitmap keeps only the rows selected by bm, compacting every column
// forward in place (parallel across columns) and truncating to the kept
// count, which it returns. Storage capacity, pool identity and the row ids
// of kept rows are all preserved — the in-place aliasing contract documented
// on SelectInPlace.
func (t *Table) compactBitmap(bm *bitmap.Bitmap) int {
	n := t.NumRows()
	filterRows.Add(int64(n))
	total := bm.Count()
	if total == n {
		return total
	}
	// One task per column plus one for the row ids; each compacts forward
	// (write index never passes read index) so no scratch copy is needed.
	par.ForEach(len(t.cols)+1, func(ci int) {
		w := 0
		if ci == len(t.cols) {
			ids := t.rowIDs
			bm.Range(func(row int) {
				ids[w] = ids[row]
				w++
			})
			t.rowIDs = ids[:total]
			return
		}
		if t.cols[ci].Type == Float {
			data := t.floats[ci]
			bm.Range(func(row int) {
				data[w] = data[row]
				w++
			})
			t.floats[ci] = data[:total]
			return
		}
		data := t.ints[ci]
		bm.Range(func(row int) {
			data[w] = data[row]
			w++
		})
		t.ints[ci] = data[:total]
	})
	return total
}

// preparedOutput returns a fresh table like t with every column and the row
// id slice pre-sized to total rows, ready for disjoint-range parallel fills.
func (t *Table) preparedOutput(total int) *Table {
	out := t.freshLike(total)
	for i := range out.cols {
		if out.cols[i].Type == Float {
			out.floats[i] = out.floats[i][:total]
		} else {
			out.ints[i] = out.ints[i][:total]
		}
	}
	out.rowIDs = out.rowIDs[:total]
	out.nextID = t.nextID
	return out
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
