package table

import (
	"errors"
	"fmt"

	"ringo/internal/bitmap"
)

// DefaultIndexMaxCardinality bounds how many distinct values an equality
// bitmap index will hold. The index pays one bitmap (NumRows/8 bytes) per
// distinct value, so it only makes sense for low-cardinality columns — tags,
// types, categories — which is exactly where repeated equality filters
// concentrate (kelindar/column makes the same call).
const DefaultIndexMaxCardinality = 4096

// ErrHighCardinality is returned by BuildEqIndex when a column has more
// distinct values than the cap: the index would cost more than the scans it
// saves. Callers fall back to the vectorized scan.
var ErrHighCardinality = errors.New("table: column cardinality exceeds equality-index cap")

// EqIndex is an equality bitmap index over one column: for every distinct
// value, the bitmap of rows holding it. A lookup turns a repeat equality
// filter into a cache fetch plus a row gather — no column scan at all.
// Indexes are immutable once built and keyed by table fingerprint at the
// core layer, so staleness is impossible by construction: any workspace
// mutation moves the fingerprint and the index is dropped.
type EqIndex struct {
	typ   Type
	rows  int
	vals  map[int64]*bitmap.Bitmap
	bytes int64
}

// BuildEqIndex scans the named column once and builds its equality bitmap
// index. Int columns are keyed by value, String columns by interned pool id.
// Float columns are rejected (bit-pattern keying would diverge from ==
// semantics at -0 and NaN), as are columns whose distinct-value count
// exceeds maxCard (<= 0 means DefaultIndexMaxCardinality), with
// ErrHighCardinality.
func BuildEqIndex(t *Table, col string, maxCard int) (*EqIndex, error) {
	i := t.ColIndex(col)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", col)
	}
	if t.cols[i].Type == Float {
		return nil, fmt.Errorf("table: float column %q is not equality-indexable", col)
	}
	if maxCard <= 0 {
		maxCard = DefaultIndexMaxCardinality
	}
	// Count distinct values first, so an over-cap column allocates no bitmap.
	n := t.NumRows()
	idx := &EqIndex{typ: t.cols[i].Type, rows: n, vals: make(map[int64]*bitmap.Bitmap)}
	for _, v := range t.ints[i] {
		if _, ok := idx.vals[v]; !ok {
			if len(idx.vals) >= maxCard {
				return nil, fmt.Errorf("%w: column %q has more than %d distinct values", ErrHighCardinality, col, maxCard)
			}
			idx.vals[v] = nil
		}
	}
	for v := range idx.vals {
		idx.vals[v] = bitmap.New(n)
		idx.bytes += idx.vals[v].Bytes()
	}
	for row, v := range t.ints[i] {
		idx.vals[v].Set(row)
	}
	idx.bytes += int64(len(idx.vals)) * 16 // map entry overhead estimate
	return idx, nil
}

// Rows returns the row count the index was built over.
func (x *EqIndex) Rows() int { return x.rows }

// Bytes estimates the index's resident size, for cache accounting.
func (x *EqIndex) Bytes() int64 { return x.bytes }

// Lookup returns the selection bitmap for `col op val` over t, which must
// be the same table state the index was built from. Only EQ and NE are
// servable (ok reports false otherwise, and on type mismatch or row-count
// drift — callers fall back to the vectorized scan). The EQ bitmap is the
// index's own storage and must not be modified; NE returns a fresh
// complement.
func (x *EqIndex) Lookup(t *Table, op CmpOp, val any) (*bitmap.Bitmap, bool) {
	if op != EQ && op != NE {
		return nil, false
	}
	if t.NumRows() != x.rows {
		return nil, false
	}
	var key int64
	var missing bool
	switch x.typ {
	case Int:
		c, ok := toInt64(val)
		if !ok {
			return nil, false
		}
		key = c
	default: // String
		s, ok := val.(string)
		if !ok {
			return nil, false
		}
		id, interned := t.pool.Lookup(s)
		if !interned {
			missing = true
		} else {
			key = int64(id)
		}
	}
	bm := x.vals[key]
	if missing || bm == nil {
		// Value absent: EQ matches nothing, NE everything.
		out := bitmap.New(x.rows)
		if op == NE {
			out.SetAll()
		}
		return out, true
	}
	if op == NE {
		out := bm.Clone()
		out.Not()
		return out, true
	}
	return bm, true
}
