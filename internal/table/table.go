// Package table implements Ringo's native relational table objects (§2.3 of
// Perez et al., SIGMOD 2015): an in-memory column store with a typed schema
// (integer, floating point, string), persistent per-row identifiers, and the
// relational and graph-construction operations the paper describes (select,
// join, project, group & aggregate, order, set operations, SimJoin, NextK).
//
// String cells are interned in a per-table pool and stored as integer ids,
// so string equality, grouping and joining run at integer speed. Row
// identifiers are assigned once and survive selection, which lets users
// track individual records through a complex chain of operations.
package table

import (
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"

	"ringo/internal/par"
	"ringo/internal/strpool"
)

// Type enumerates the column types Ringo supports.
type Type uint8

const (
	// Int is a 64-bit signed integer column.
	Int Type = iota
	// Float is a 64-bit floating point column.
	Float
	// String is an interned string column.
	String
)

// String returns the lowercase name of the type.
func (t Type) String() string {
	switch t {
	case Int:
		return "int"
	case Float:
		return "float"
	case String:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Column describes one column of a table schema.
type Column struct {
	Name string
	Type Type
}

// Schema is an ordered list of columns.
type Schema []Column

// Table is a column-store relational table. All mutating operations either
// create a new Table or are documented as in-place. A Table is safe for
// concurrent readers; writers require external synchronization.
//
// A table made by Select, SelectExpr, SelectBitmap or SelectFunc is a
// selection until it settles: it holds its base's column slices and row
// ids as they were when it was made, and the positions of the selected base
// rows, and copies no cell. NumRows, the schema methods, the cell
// accessors, further selections, Join and LeftJoin read through the row
// positions; Project gathers only the columns it keeps. Every other method
// settles the table first, gathering every column and the row ids once.
// A settled selection no longer pins its base.
type Table struct {
	cols   []Column
	nextID int64
	pool   *strpool.Pool
	index  map[string]int
	// sel is an unsettled selection, nil once settled (or never one);
	// once guards the gather that fills data from it.
	sel  atomic.Pointer[selection]
	once sync.Once
	// data is the table's own storage, valid once sel is nil: read it
	// through settle, or through view or cell where a selection may be
	// read in place.
	data cells
}

// cells is a table's storage: one slice per column and the row ids.
type cells struct {
	ints   [][]int64   // per column; used by Int and String (pool ids) columns
	floats [][]float64 // per column; used by Float columns
	rowIDs []int64
}

// selection is an unsettled table's rows: the base's cells as they were
// when the first selection over that base was made (selections of
// selections compose their rows over the same base), and the ascending
// positions of the selected base rows. It is never modified.
type selection struct {
	base cells
	rows []int32
}

// settleFraction is the share of its base at or under which a selection
// settles as soon as it is made, so that a small result never pins a big
// base.
const settleFraction = 16

// settle gathers an unsettled selection into the table's own storage, once,
// and returns that storage.
func (t *Table) settle() *cells {
	if t.sel.Load() != nil {
		t.once.Do(func() {
			t.data = t.sel.Load().gather(t.cols, nil)
			t.sel.Store(nil)
		})
	}
	return &t.data
}

// view returns the cells a reader may read in place and the row positions
// to read them through: an unsettled selection's base and rows, or the
// table's own storage and nil.
func (t *Table) view() (*cells, []int32) {
	if s := t.sel.Load(); s != nil {
		return &s.base, s.rows
	}
	return &t.data, nil
}

// cell returns the cells row is read from and its position there.
func (t *Table) cell(row int) (*cells, int) {
	if s := t.sel.Load(); s != nil {
		return &s.base, int(s.rows[row])
	}
	return &t.data, row
}

// selectRows returns the table of the rows at positions rows of the cells
// base, which t reads: a selection, or a settled table when the rows are at
// most 1/settleFraction of base. The output has t's schema and next row id
// and a clone of its pool.
func (t *Table) selectRows(base *cells, rows []int32) *Table {
	out := t.freshLike(0)
	s := &selection{base: *base, rows: rows}
	if len(rows)*settleFraction <= len(base.rowIDs) {
		out.data = s.gather(out.cols, nil)
		return out
	}
	// The column lists are copied, as OrderBy on the base replaces their
	// entries; the columns are not, as nothing writes a cell in place.
	s.base.ints, s.base.floats = slices.Clone(base.ints), slices.Clone(base.floats)
	out.sel.Store(s)
	return out
}

// gather copies the selected rows of the base columns keep lists (every
// column when keep is nil), and the row ids, into new cells laid out as
// keep; cols is the base's schema. The workers gather disjoint row ranges
// column at a time.
func (s *selection) gather(cols []Column, keep []int) cells {
	if keep == nil {
		keep = make([]int, len(cols))
		for i := range keep {
			keep[i] = i
		}
	}
	n := len(s.rows)
	out := cells{ints: make([][]int64, len(keep)), floats: make([][]float64, len(keep)), rowIDs: make([]int64, n)}
	for k, i := range keep {
		if cols[i].Type == Float {
			out.floats[k] = make([]float64, n)
		} else {
			out.ints[k] = make([]int64, n)
		}
	}
	par.For(n, func(lo, hi int) {
		rows := s.rows[lo:hi]
		for k, i := range keep {
			if cols[i].Type == Float {
				gatherInto(out.floats[k][lo:hi], s.base.floats[i], rows)
			} else {
				gatherInto(out.ints[k][lo:hi], s.base.ints[i], rows)
			}
		}
		gatherInto(out.rowIDs[lo:hi], s.base.rowIDs, rows)
	})
	return out
}

// gatherInto sets dst[j] = src[rows[j]].
func gatherInto[T int64 | float64](dst, src []T, rows []int32) {
	for j, r := range rows {
		dst[j] = src[r]
	}
}

// New returns an empty table with the given schema. Column names must be
// non-empty and unique.
func New(schema Schema) (*Table, error) {
	return NewWithCapacity(schema, 0)
}

// NewWithCapacity returns an empty table with the given schema and column
// capacity preallocated for rows rows.
func NewWithCapacity(schema Schema, rows int) (*Table, error) {
	if len(schema) == 0 {
		return nil, fmt.Errorf("table: empty schema")
	}
	t := &Table{
		cols: append([]Column(nil), schema...),
		data: cells{
			ints:   make([][]int64, len(schema)),
			floats: make([][]float64, len(schema)),
			rowIDs: make([]int64, 0, rows),
		},
		pool:  strpool.New(0),
		index: make(map[string]int, len(schema)),
	}
	for i, c := range schema {
		if c.Name == "" {
			return nil, fmt.Errorf("table: column %d has empty name", i)
		}
		if _, dup := t.index[c.Name]; dup {
			return nil, fmt.Errorf("table: duplicate column %q", c.Name)
		}
		t.index[c.Name] = i
		switch c.Type {
		case Int, String:
			t.data.ints[i] = make([]int64, 0, rows)
		case Float:
			t.data.floats[i] = make([]float64, 0, rows)
		default:
			return nil, fmt.Errorf("table: column %q has invalid type %v", c.Name, c.Type)
		}
	}
	return t, nil
}

// MustNew is New that panics on error, for statically known-good schemas.
func MustNew(schema Schema) *Table {
	t, err := New(schema)
	if err != nil {
		panic(err)
	}
	return t
}

// FromIntColumns builds a table of Int columns directly from column slices,
// which must all have equal length. The table adopts the slices without
// copying — callers transfer ownership. This is the bulk fast path used by
// graph-to-table conversion (§2.4: threads fill a pre-allocated output
// table) and by the workload generators.
func FromIntColumns(names []string, cols [][]int64) (*Table, error) {
	if len(names) == 0 || len(names) != len(cols) {
		return nil, fmt.Errorf("table: FromIntColumns got %d names for %d columns", len(names), len(cols))
	}
	schema := make(Schema, len(names))
	for i, name := range names {
		schema[i] = Column{name, Int}
	}
	rows := len(cols[0])
	for i, c := range cols {
		if len(c) != rows {
			return nil, fmt.Errorf("table: FromIntColumns column %d has %d rows, want %d", i, len(c), rows)
		}
	}
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	for i, c := range cols {
		t.data.ints[i] = c
	}
	t.data.rowIDs = make([]int64, rows)
	for r := range t.data.rowIDs {
		t.data.rowIDs[r] = int64(r)
	}
	t.nextID = int64(rows)
	return t, nil
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int {
	if s := t.sel.Load(); s != nil {
		return len(s.rows)
	}
	return len(t.data.rowIDs)
}

// NumCols reports the number of columns.
func (t *Table) NumCols() int { return len(t.cols) }

// Schema returns a copy of the table's schema.
func (t *Table) Schema() Schema { return append(Schema(nil), t.cols...) }

// ColNames returns the column names in schema order.
func (t *Table) ColNames() []string {
	names := make([]string, len(t.cols))
	for i, c := range t.cols {
		names[i] = c.Name
	}
	return names
}

// ColIndex returns the position of the named column, or -1 if absent.
func (t *Table) ColIndex(name string) int {
	i, ok := t.index[name]
	if !ok {
		return -1
	}
	return i
}

// ColType returns the type of the named column.
func (t *Table) ColType(name string) (Type, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return 0, fmt.Errorf("table: no column %q", name)
	}
	return t.cols[i].Type, nil
}

// RowIDs returns the persistent row identifiers in row order. The returned
// slice is the table's own storage (a selection settles first); callers
// must not modify it.
func (t *Table) RowIDs() []int64 { return t.settle().rowIDs }

// AppendRow appends one row. vals must match the schema; accepted Go types
// are int, int32, int64 for Int columns, float64 (or int) for Float columns,
// and string for String columns.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: AppendRow got %d values for %d columns", len(vals), len(t.cols))
	}
	d := t.settle()
	for i, v := range vals {
		switch t.cols[i].Type {
		case Int:
			n, ok := toInt64(v)
			if !ok {
				return fmt.Errorf("table: column %q expects int, got %T", t.cols[i].Name, v)
			}
			d.ints[i] = append(d.ints[i], n)
		case Float:
			f, ok := toFloat64(v)
			if !ok {
				return fmt.Errorf("table: column %q expects float, got %T", t.cols[i].Name, v)
			}
			d.floats[i] = append(d.floats[i], f)
		case String:
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("table: column %q expects string, got %T", t.cols[i].Name, v)
			}
			d.ints[i] = append(d.ints[i], int64(t.pool.Intern(s)))
		}
	}
	d.rowIDs = append(d.rowIDs, t.nextID)
	t.nextID++
	return nil
}

func toInt64(v any) (int64, bool) {
	switch n := v.(type) {
	case int:
		return int64(n), true
	case int32:
		return int64(n), true
	case int64:
		return n, true
	}
	return 0, false
}

func toFloat64(v any) (float64, bool) {
	switch n := v.(type) {
	case float64:
		return n, true
	case float32:
		return float64(n), true
	case int:
		return float64(n), true
	case int64:
		return float64(n), true
	}
	return 0, false
}

// IntAt returns the integer cell at (column position, row).
func (t *Table) IntAt(col, row int) int64 {
	c, r := t.cell(row)
	return c.ints[col][r]
}

// FloatAt returns the float cell at (column position, row).
func (t *Table) FloatAt(col, row int) float64 {
	c, r := t.cell(row)
	return c.floats[col][r]
}

// StrAt returns the string cell at (column position, row).
func (t *Table) StrAt(col, row int) string {
	return t.pool.Get(int32(t.IntAt(col, row)))
}

// Value returns the cell at (column position, row) as an any of the column's
// natural Go type.
func (t *Table) Value(col, row int) any {
	switch t.cols[col].Type {
	case Int:
		return t.IntAt(col, row)
	case Float:
		return t.FloatAt(col, row)
	default:
		return t.StrAt(col, row)
	}
}

// IntCol returns the raw int64 storage of the named Int or String column
// (pool ids for strings); a selection settles first. The slice is shared
// with the table; callers that mutate it corrupt the table. The fast
// conversion paths (§2.4) copy it.
func (t *Table) IntCol(name string) ([]int64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	if t.cols[i].Type == Float {
		return nil, fmt.Errorf("table: column %q is float, not int-backed", name)
	}
	return t.settle().ints[i], nil
}

// FloatCol returns the raw float64 storage of the named Float column; a
// selection settles first. The slice is shared with the table, as IntCol's
// is.
func (t *Table) FloatCol(name string) ([]float64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	if t.cols[i].Type != Float {
		return nil, fmt.Errorf("table: column %q is %v, not float", name, t.cols[i].Type)
	}
	return t.settle().floats[i], nil
}

// numericAsFloat returns column values as float64, converting Int columns.
func (t *Table) numericAsFloat(name string) ([]float64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	d := t.settle()
	switch t.cols[i].Type {
	case Float:
		return d.floats[i], nil
	case Int:
		out := make([]float64, len(d.ints[i]))
		for j, v := range d.ints[i] {
			out[j] = float64(v)
		}
		return out, nil
	default:
		return nil, fmt.Errorf("table: column %q is not numeric", name)
	}
}

// AddIntColumn appends a new Int column filled from vals (len == NumRows).
func (t *Table) AddIntColumn(name string, vals []int64) error {
	if len(vals) != t.NumRows() {
		return fmt.Errorf("table: AddIntColumn %q: %d values for %d rows", name, len(vals), t.NumRows())
	}
	return t.addColumn(Column{name, Int}, append([]int64(nil), vals...), nil)
}

// AddFloatColumn appends a new Float column filled from vals.
func (t *Table) AddFloatColumn(name string, vals []float64) error {
	if len(vals) != t.NumRows() {
		return fmt.Errorf("table: AddFloatColumn %q: %d values for %d rows", name, len(vals), t.NumRows())
	}
	return t.addColumn(Column{name, Float}, nil, append([]float64(nil), vals...))
}

// AddIntColumnFunc appends a new Int column computed per row, in parallel.
// fn must be safe for concurrent calls on distinct rows.
func (t *Table) AddIntColumnFunc(name string, fn func(row int) int64) error {
	vals := make([]int64, t.NumRows())
	par.ForEach(t.NumRows(), func(row int) { vals[row] = fn(row) })
	return t.addColumn(Column{name, Int}, vals, nil)
}

// AddFloatColumnFunc appends a new Float column computed per row, in
// parallel.
func (t *Table) AddFloatColumnFunc(name string, fn func(row int) float64) error {
	vals := make([]float64, t.NumRows())
	par.ForEach(t.NumRows(), func(row int) { vals[row] = fn(row) })
	return t.addColumn(Column{name, Float}, nil, vals)
}

// addColumn appends column c, whose storage is ints or floats, after
// settling the table.
func (t *Table) addColumn(c Column, ints []int64, floats []float64) error {
	if _, dup := t.index[c.Name]; dup {
		return fmt.Errorf("table: duplicate column %q", c.Name)
	}
	d := t.settle()
	t.index[c.Name] = len(t.cols)
	t.cols = append(t.cols, c)
	d.ints = append(d.ints, ints)
	d.floats = append(d.floats, floats)
	return nil
}

// Project returns a new table containing only the named columns, preserving
// row identifiers. Of a selection it gathers only those columns.
func (t *Table) Project(names ...string) (*Table, error) {
	if len(names) == 0 {
		return nil, fmt.Errorf("table: Project with no columns")
	}
	schema := make(Schema, len(names))
	src := make([]int, len(names))
	for k, name := range names {
		i := t.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q", name)
		}
		schema[k] = t.cols[i]
		src[k] = i
	}
	sel := t.sel.Load()
	capacity := t.NumRows()
	if sel != nil {
		capacity = 0 // gather allocates the columns
	}
	out, err := NewWithCapacity(schema, capacity)
	if err != nil {
		return nil, err
	}
	out.pool = t.pool.Clone()
	out.nextID = t.nextID
	if sel != nil {
		out.data = sel.gather(t.cols, src)
		return out, nil
	}
	for k, i := range src {
		if t.cols[i].Type == Float {
			out.data.floats[k] = append(out.data.floats[k], t.data.floats[i]...)
		} else {
			out.data.ints[k] = append(out.data.ints[k], t.data.ints[i]...)
		}
	}
	out.data.rowIDs = append(out.data.rowIDs, t.data.rowIDs...)
	return out, nil
}

// Clone returns a deep copy of the table, settled.
func (t *Table) Clone() *Table {
	d := t.settle()
	out := t.freshLike(0)
	out.data.rowIDs = append([]int64(nil), d.rowIDs...)
	for i := range t.cols {
		if d.ints[i] != nil {
			out.data.ints[i] = append([]int64(nil), d.ints[i]...)
		}
		if d.floats[i] != nil {
			out.data.floats[i] = append([]float64(nil), d.floats[i]...)
		}
	}
	return out
}

// Bytes estimates the in-memory size of the table: column storage, row ids,
// and the string pool. This is the quantity reported as "In-memory Table
// Size" in Table 2 of the paper. A selection settles first.
func (t *Table) Bytes() int64 {
	d := t.settle()
	var b int64
	for i := range t.cols {
		b += int64(cap(d.ints[i])) * 8
		b += int64(cap(d.floats[i])) * 8
	}
	b += int64(cap(d.rowIDs)) * 8
	b += t.pool.Bytes()
	return b
}

// ColSumInt sums an Int column.
func (t *Table) ColSumInt(name string) (int64, error) {
	i := t.ColIndex(name)
	if i < 0 || t.cols[i].Type != Int {
		return 0, fmt.Errorf("table: no int column %q", name)
	}
	var s int64
	for _, v := range t.settle().ints[i] {
		s += v
	}
	return s, nil
}

// ColMinMaxFloat returns the min and max of a numeric column.
func (t *Table) ColMinMaxFloat(name string) (min, max float64, err error) {
	vals, err := t.numericAsFloat(name)
	if err != nil {
		return 0, 0, err
	}
	if len(vals) == 0 {
		return 0, 0, fmt.Errorf("table: ColMinMaxFloat on empty table")
	}
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range vals {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max, nil
}

// freshLike returns an empty table with the same schema and a cloned pool,
// preserving nextID so new rows get unused identifiers.
func (t *Table) freshLike(capacity int) *Table {
	out, err := NewWithCapacity(t.cols, capacity)
	if err != nil {
		panic(err) // schema came from a valid table
	}
	out.pool = t.pool.Clone()
	out.nextID = t.nextID
	return out
}

// appendRowFrom copies row r of src, the cells of a table with t's schema
// layout, into t, preserving the row id.
func (t *Table) appendRowFrom(src *cells, r int) {
	d := &t.data
	for i := range t.cols {
		if t.cols[i].Type == Float {
			d.floats[i] = append(d.floats[i], src.floats[i][r])
		} else {
			d.ints[i] = append(d.ints[i], src.ints[i][r])
		}
	}
	d.rowIDs = append(d.rowIDs, src.rowIDs[r])
	if src.rowIDs[r] >= t.nextID {
		t.nextID = src.rowIDs[r] + 1
	}
}
