package table

import (
	"fmt"
	"math"
)

// AggOp enumerates aggregation operators for Aggregate.
type AggOp int

// Aggregation operators.
const (
	Count AggOp = iota
	Sum
	Min
	Max
	Mean
	First
)

// String returns the lowercase operator name.
func (op AggOp) String() string {
	switch op {
	case Count:
		return "count"
	case Sum:
		return "sum"
	case Min:
		return "min"
	case Max:
		return "max"
	case Mean:
		return "mean"
	case First:
		return "first"
	default:
		return fmt.Sprintf("AggOp(%d)", int(op))
	}
}

// Group assigns each row a dense group id such that rows with equal values
// in the named columns share an id, and reports the number of groups. Group
// ids are dense in first-occurrence order. This is Ringo's in-place
// grouping: the table itself is not modified and row identifiers let callers
// track members of each group. In a Float column 0 and -0 share a group,
// as they are equal under select's ==, and all NaNs form one group.
//
// Grouping by a single column numbers that column's storage directly
// (values for Int, interned ids for String, canonical keys for Float) with
// a keyIndex and no per-row key bytes materialized; multi-column grouping
// falls back to the canonical rowkey encoding.
func (t *Table) Group(cols ...string) (ids []int, groups int, err error) {
	gids, groups, err := t.groupIDs(cols)
	if err != nil {
		return nil, 0, err
	}
	ids = make([]int, len(gids))
	for row, g := range gids {
		ids[row] = int(g)
	}
	return ids, groups, nil
}

// groupIDs is Group with the int32 ids Aggregate and Unique read.
func (t *Table) groupIDs(cols []string) (ids []int32, groups int, err error) {
	if len(cols) == 1 {
		i := t.ColIndex(cols[0])
		if i < 0 {
			return nil, 0, fmt.Errorf("table: no column %q", cols[0])
		}
		t.settle()
		x := newKeyIndex(t.colKeys(i))
		return x.ids, x.n, nil
	}
	enc, err := newRowKeyEncoder(t, cols)
	if err != nil {
		return nil, 0, err
	}
	ids = make([]int32, t.NumRows())
	seen := make(map[string]int32)
	for row := range ids {
		k := enc.key(row)
		id, ok := seen[k]
		if !ok {
			id = int32(len(seen))
			seen[k] = id
		}
		ids[row] = id
	}
	return ids, len(seen), nil
}

// GroupCol runs Group and appends the group ids to the table as a new Int
// column named outCol, mirroring Ringo's pattern of writing analysis results
// back into tables.
func (t *Table) GroupCol(outCol string, cols ...string) error {
	ids, _, err := t.Group(cols...)
	if err != nil {
		return err
	}
	vals := make([]int64, len(ids))
	for i, id := range ids {
		vals[i] = int64(id)
	}
	return t.AddIntColumn(outCol, vals)
}

// Aggregate groups the table by groupCols and aggregates valCol with op,
// returning a new table with the group columns followed by one result column
// named outCol. For Count, valCol may be empty. Numeric aggregates accept
// Int and Float value columns; the result column is Int for Count and for
// Sum/Min/Max/First over Int columns, Float otherwise.
func (t *Table) Aggregate(groupCols []string, op AggOp, valCol, outCol string) (*Table, error) {
	d := t.settle()
	ids, groups, err := t.groupIDs(groupCols)
	if err != nil {
		return nil, err
	}
	if outCol == "" {
		outCol = op.String()
	}

	outType := Int
	var intVals []int64
	var floatVals []float64
	if op != Count {
		i := t.ColIndex(valCol)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q", valCol)
		}
		switch t.cols[i].Type {
		case Int:
			intVals = d.ints[i]
			if op == Mean {
				outType = Float
			}
		case Float:
			floatVals = d.floats[i]
			outType = Float
		default:
			if op != First {
				return nil, fmt.Errorf("table: aggregate %v over string column %q", op, valCol)
			}
			outType = String
			intVals = d.ints[i]
		}
	}

	schema := make(Schema, 0, len(groupCols)+1)
	for _, name := range groupCols {
		schema = append(schema, t.cols[t.ColIndex(name)])
	}
	schema = append(schema, Column{outCol, outType})
	out, err := NewWithCapacity(schema, groups)
	if err != nil {
		return nil, err
	}
	out.pool = t.pool.Clone()
	out.numberRows(groups)
	oc := &out.data

	// Representative (first) row per group, in group-id order: ids are dense
	// in first-occurrence order.
	rep := make([]int32, 0, groups)
	for row, g := range ids {
		if int(g) == len(rep) {
			rep = append(rep, int32(row))
		}
	}
	for k, name := range groupCols {
		i := t.ColIndex(name)
		for g, row := range rep {
			if t.cols[i].Type == Float {
				oc.floats[k][g] = d.floats[i][row]
			} else {
				oc.ints[k][g] = d.ints[i][row]
			}
		}
	}

	last := len(groupCols)
	switch {
	case op == Count:
		for _, g := range ids {
			oc.ints[last][g]++
		}
	case op == First:
		for g, row := range rep {
			if floatVals != nil {
				oc.floats[last][g] = floatVals[row]
			} else {
				oc.ints[last][g] = intVals[row]
			}
		}
	case op == Sum && outType == Int:
		for row, g := range ids {
			oc.ints[last][g] += intVals[row]
		}
	default: // Sum over Float, Min, Max and Mean accumulate as float64
		acc := make([]float64, groups)
		for g := range acc {
			switch op {
			case Min:
				acc[g] = math.Inf(1)
			case Max:
				acc[g] = math.Inf(-1)
			}
		}
		for row, g := range ids {
			var fv float64
			if intVals != nil {
				fv = float64(intVals[row])
			} else {
				fv = floatVals[row]
			}
			switch op {
			case Min:
				if fv < acc[g] {
					acc[g] = fv
				}
			case Max:
				if fv > acc[g] {
					acc[g] = fv
				}
			default:
				acc[g] += fv
			}
		}
		if op == Mean {
			counts := make([]int64, groups)
			for _, g := range ids {
				counts[g]++
			}
			for g := range acc {
				acc[g] /= float64(counts[g])
			}
		}
		for g, v := range acc {
			if outType == Int {
				oc.ints[last][g] = int64(v)
			} else {
				oc.floats[last][g] = v
			}
		}
	}
	return out, nil
}

// Unique returns a new table keeping the first row of each distinct
// combination of values in the named columns (all columns if none are
// given). Row identifiers of kept rows are preserved. The kept rows are the
// first occurrences of Group's ids.
func (t *Table) Unique(cols ...string) (*Table, error) {
	if len(cols) == 0 {
		cols = t.ColNames()
	}
	d := t.settle()
	ids, groups, err := t.groupIDs(cols)
	if err != nil {
		return nil, err
	}
	out := t.freshLike(groups)
	next := int32(0)
	for row, id := range ids {
		if id == next { // first occurrence: group ids are dense in first-occurrence order
			out.appendRowFrom(d, row)
			next++
		}
	}
	out.nextID = t.nextID
	return out, nil
}
