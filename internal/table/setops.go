package table

import "fmt"

// Union returns a new table with the distinct rows of t and other (set
// union). Both tables must have identical schemas. Rows are emitted in
// first-occurrence order (t first) with fresh row identifiers.
func (t *Table) Union(other *Table) (*Table, error) {
	if !sameSchema(t, other) {
		return nil, fmt.Errorf("table: union: schema mismatch")
	}
	d, od := t.settle(), other.settle()
	out := t.freshLike(t.NumRows())
	out.pool = t.pool.Clone()
	seen := make(map[string]struct{}, t.NumRows())
	encT, _ := newRowKeyEncoder(t, t.ColNames())
	for row := 0; row < t.NumRows(); row++ {
		k := encT.key(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.appendRowFrom(d, row)
	}
	encO, _ := newRowKeyEncoder(other, other.ColNames())
	remap := remapPool(other, out)
	for row := 0; row < other.NumRows(); row++ {
		k := encO.key(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.appendOtherRow(od, row, remap)
	}
	// Set operations produce a new table object: renumber ids densely.
	out.renumber()
	return out, nil
}

// UnionAll returns the concatenation of t and other (bag union, duplicates
// kept) with fresh row identifiers.
func (t *Table) UnionAll(other *Table) (*Table, error) {
	if !sameSchema(t, other) {
		return nil, fmt.Errorf("table: union all: schema mismatch")
	}
	d, od := t.settle(), other.settle()
	out := t.freshLike(t.NumRows() + other.NumRows())
	for row := 0; row < t.NumRows(); row++ {
		out.appendRowFrom(d, row)
	}
	remap := remapPool(other, out)
	for row := 0; row < other.NumRows(); row++ {
		out.appendOtherRow(od, row, remap)
	}
	out.renumber()
	return out, nil
}

// Intersect returns the distinct rows of t that also occur in other,
// preserving t's row identifiers (first occurrence wins).
func (t *Table) Intersect(other *Table) (*Table, error) {
	if !sameSchema(t, other) {
		return nil, fmt.Errorf("table: intersect: schema mismatch")
	}
	d := t.settle()
	inOther := make(map[string]struct{}, other.NumRows())
	encO, _ := newRowKeyEncoder(other, other.ColNames())
	for row := 0; row < other.NumRows(); row++ {
		inOther[encO.key(row)] = struct{}{}
	}
	out := t.freshLike(0)
	emitted := make(map[string]struct{})
	encT, _ := newRowKeyEncoder(t, t.ColNames())
	for row := 0; row < t.NumRows(); row++ {
		k := encT.key(row)
		if _, ok := inOther[k]; !ok {
			continue
		}
		if _, dup := emitted[k]; dup {
			continue
		}
		emitted[k] = struct{}{}
		out.appendRowFrom(d, row)
	}
	out.nextID = t.nextID
	return out, nil
}

// Minus returns the distinct rows of t that do not occur in other,
// preserving t's row identifiers (first occurrence wins).
func (t *Table) Minus(other *Table) (*Table, error) {
	if !sameSchema(t, other) {
		return nil, fmt.Errorf("table: minus: schema mismatch")
	}
	d := t.settle()
	inOther := make(map[string]struct{}, other.NumRows())
	encO, _ := newRowKeyEncoder(other, other.ColNames())
	for row := 0; row < other.NumRows(); row++ {
		inOther[encO.key(row)] = struct{}{}
	}
	out := t.freshLike(0)
	emitted := make(map[string]struct{})
	encT, _ := newRowKeyEncoder(t, t.ColNames())
	for row := 0; row < t.NumRows(); row++ {
		k := encT.key(row)
		if _, excluded := inOther[k]; excluded {
			continue
		}
		if _, dup := emitted[k]; dup {
			continue
		}
		emitted[k] = struct{}{}
		out.appendRowFrom(d, row)
	}
	out.nextID = t.nextID
	return out, nil
}

// appendOtherRow copies row r of other, the cells of a table with t's
// schema, into t, translating string pool ids through remap and keeping
// other's row id (callers renumber afterwards when required).
func (t *Table) appendOtherRow(other *cells, r int, remap []int64) {
	d := &t.data
	for i := range t.cols {
		switch t.cols[i].Type {
		case Float:
			d.floats[i] = append(d.floats[i], other.floats[i][r])
		case String:
			d.ints[i] = append(d.ints[i], remap[other.ints[i][r]])
		default:
			d.ints[i] = append(d.ints[i], other.ints[i][r])
		}
	}
	d.rowIDs = append(d.rowIDs, other.rowIDs[r])
}

// renumber gives the rows of a new table object the fresh ids 0..n-1.
func (t *Table) renumber() {
	for i := range t.data.rowIDs {
		t.data.rowIDs[i] = int64(i)
	}
	t.nextID = int64(len(t.data.rowIDs))
}
