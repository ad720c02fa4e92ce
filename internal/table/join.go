package table

import (
	"fmt"
	"math"

	"ringo/internal/par"
)

// Join performs an equi-join of t (left) with right on leftCol == rightCol
// and returns a new table whose schema is the left schema followed by the
// right schema. Columns whose names collide are disambiguated with "-1"
// (left) and "-2" (right) suffixes, matching the paper's §4.1 example where
// joining Questions with Answers yields UserId-1 and UserId-2 columns. The
// join always produces a new table object with fresh row identifiers.
// Output rows follow left row order, and each left row's matches follow
// right row order. Float keys compare as select's == does: 0 matches -0
// and NaN matches nothing.
//
// The right input's keys are numbered by a keyIndex (direct-addressed when
// dense, a map otherwise) with the right rows of each key laid out as CSR;
// the left input probes it in parallel using the contention-free two-pass
// (count, prefix-sum, fill) pattern. Neither input settles: a selection
// gathers only its key column, and output cells are gathered, column at a
// time, through its row positions.
func (t *Table) Join(right *Table, leftCol, rightCol string) (*Table, error) {
	li := t.ColIndex(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("table: join: left has no column %q", leftCol)
	}
	ri := right.ColIndex(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("table: join: right has no column %q", rightCol)
	}
	lt, rt := t.cols[li].Type, right.cols[ri].Type
	if lt != rt {
		return nil, fmt.Errorf("table: join: key type mismatch %v vs %v", lt, rt)
	}
	return t.join(li, right, ri, false, 0)
}

// LeftJoin is Join preserving unmatched left rows: rows of t with no match
// in right appear once, with right Int columns set to the given nullInt,
// Float columns to NaN, and String columns to the empty string.
func (t *Table) LeftJoin(right *Table, leftCol, rightCol string, nullInt int64) (*Table, error) {
	li := t.ColIndex(leftCol)
	if li < 0 {
		return nil, fmt.Errorf("table: left join: left has no column %q", leftCol)
	}
	ri := right.ColIndex(rightCol)
	if ri < 0 {
		return nil, fmt.Errorf("table: left join: right has no column %q", rightCol)
	}
	if t.cols[li].Type != right.cols[ri].Type {
		return nil, fmt.Errorf("table: left join: key type mismatch")
	}
	return t.join(li, right, ri, true, nullInt)
}

// join is Join, or LeftJoin when outer is set, on validated key columns.
func (t *Table) join(li int, right *Table, ri int, outer bool, nullInt int64) (*Table, error) {
	// Normalize keys to int64. String keys from distinct pools are remapped
	// through the left pool so equal strings get equal key values.
	lkeys, rkeys := t.joinKeys(li, right, ri)

	// Build on the right input (the paper joins the large edge table, as the
	// probe side, against a single-column table).
	idx := newKeyIndex(rkeys)
	off, rrows := idx.rows()

	// Probe pass 1: record each left row's key id and count output rows per
	// range.
	n := t.NumRows()
	ranges := par.Split(n, par.Workers())
	match := make([]int32, n)
	counts := make([]int, len(ranges))
	par.ForEach(len(ranges), func(w int) {
		c := 0
		for row := ranges[w].Lo; row < ranges[w].Hi; row++ {
			g := idx.lookup(lkeys[row])
			match[row] = g
			if g >= 0 {
				c += int(off[g+1] - off[g])
			} else if outer {
				c++
			}
		}
		counts[w] = c
	})
	starts, total := prefixSum(counts)

	// Probe pass 2: the base positions of each output row's left row and
	// right row, -1 for the right side of an unmatched left row.
	lc, lsel := t.view()
	rc, rsel := right.view()
	lpos, rpos := make([]int32, total), make([]int32, total)
	par.ForEach(len(ranges), func(w int) {
		at := starts[w]
		for row := ranges[w].Lo; row < ranges[w].Hi; row++ {
			lrow := int32(row)
			if lsel != nil {
				lrow = lsel[row]
			}
			g := match[row]
			if g < 0 {
				if outer {
					lpos[at], rpos[at] = lrow, -1
					at++
				}
				continue
			}
			for _, rrow := range rrows[off[g]:off[g+1]] {
				if rsel != nil {
					rrow = rsel[rrow]
				}
				lpos[at], rpos[at] = lrow, rrow
				at++
			}
		}
	})

	out, err := newJoinOutput(t, right, total)
	if err != nil {
		return nil, err
	}
	// Right string columns must be re-interned into the output pool. Build
	// the remap once, sequentially, before the parallel fill.
	rStrRemap := remapPool(right, out)
	var nullStr int64
	if outer {
		nullStr = int64(out.pool.Intern(""))
	}
	// The fill gathers column at a time, each worker a range of output rows.
	oc := &out.data
	nLeft := len(t.cols)
	par.For(total, func(lo, hi int) {
		lp, rp := lpos[lo:hi], rpos[lo:hi]
		for i, c := range t.cols {
			if c.Type == Float {
				gatherInto(oc.floats[i][lo:hi], lc.floats[i], lp)
			} else {
				gatherInto(oc.ints[i][lo:hi], lc.ints[i], lp)
			}
		}
		for j, c := range right.cols {
			o := nLeft + j
			switch c.Type {
			case Float:
				gatherOr(oc.floats[o][lo:hi], rc.floats[j], rp, math.NaN())
			case String:
				dst, src := oc.ints[o][lo:hi], rc.ints[j]
				for k, r := range rp {
					if r < 0 {
						dst[k] = nullStr
					} else {
						dst[k] = rStrRemap[src[r]]
					}
				}
			default:
				gatherOr(oc.ints[o][lo:hi], rc.ints[j], rp, nullInt)
			}
		}
	})
	return out, nil
}

// gatherOr sets dst[k] = src[rows[k]], or null where rows[k] is negative.
func gatherOr[T int64 | float64](dst, src []T, rows []int32, null T) {
	for k, r := range rows {
		if r < 0 {
			dst[k] = null
		} else {
			dst[k] = src[r]
		}
	}
}

// joinKeys returns comparable int64 key slices for the two join columns.
func (t *Table) joinKeys(li int, right *Table, ri int) (lkeys, rkeys []int64) {
	switch t.cols[li].Type {
	case Float:
		lkeys, rkeys = t.colKeys(li), right.colKeys(ri)
		// A NaN matches nothing: right NaNs take a NaN bit pattern that
		// floatKey never returns.
		for row, k := range rkeys {
			if k == nanKey {
				rkeys[row] = nanKey + 1
			}
		}
	case String:
		// Map right pool ids into left pool id space, looking each up once;
		// strings the left pool lacks all get key -2, which matches nothing.
		lkeys = t.colKeys(li)
		rkeys = make([]int64, right.NumRows())
		remap := make([]int64, right.pool.Len()) // left id + 1, -1 if absent, 0 if not yet looked up
		for row, id := range right.colKeys(ri) {
			if remap[id] == 0 {
				remap[id] = -1
				if lid, ok := t.pool.Lookup(right.pool.Get(int32(id))); ok {
					remap[id] = int64(lid) + 1
				}
			}
			rkeys[row] = remap[id] - 1
		}
	default:
		lkeys, rkeys = t.colKeys(li), right.colKeys(ri)
	}
	return lkeys, rkeys
}

// newJoinOutput builds the output table for a join of left and right with
// rows zeroed, freshly numbered rows, applying -1/-2 suffixes to colliding
// column names.
func newJoinOutput(left, right *Table, rows int) (*Table, error) {
	schema := make(Schema, 0, len(left.cols)+len(right.cols))
	rightNames := make(map[string]bool, len(right.cols))
	for _, c := range right.cols {
		rightNames[c.Name] = true
	}
	for _, c := range left.cols {
		name := c.Name
		if rightNames[c.Name] {
			name += "-1"
		}
		schema = append(schema, Column{name, c.Type})
	}
	leftNames := make(map[string]bool, len(left.cols))
	for _, c := range left.cols {
		leftNames[c.Name] = true
	}
	for _, c := range right.cols {
		name := c.Name
		if leftNames[c.Name] {
			name += "-2"
		}
		schema = append(schema, Column{name, c.Type})
	}
	out, err := NewWithCapacity(schema, rows)
	if err != nil {
		return nil, fmt.Errorf("table: join output schema: %w", err)
	}
	out.pool = left.pool.Clone()
	out.numberRows(rows)
	return out, nil
}

// numberRows sizes every column of a table made by NewWithCapacity to rows
// zero cells and gives the rows the fresh ids 0..rows-1 of a new table
// object.
func (t *Table) numberRows(rows int) {
	d := &t.data
	for i := range t.cols {
		if t.cols[i].Type == Float {
			d.floats[i] = d.floats[i][:rows]
		} else {
			d.ints[i] = d.ints[i][:rows]
		}
	}
	d.rowIDs = d.rowIDs[:rows]
	t.renumber()
}

// remapPool interns every string of src's pool into dst's pool and returns
// the id translation indexed by src pool id.
func remapPool(src, dst *Table) []int64 {
	remap := make([]int64, src.pool.Len())
	for id := 0; id < src.pool.Len(); id++ {
		remap[id] = int64(dst.pool.Intern(src.pool.Get(int32(id))))
	}
	return remap
}
