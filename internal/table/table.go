// Package table implements Ringo's native relational table objects (§2.3 of
// Perez et al., SIGMOD 2015): an in-memory column store with a typed schema
// (integer, floating point, string), persistent per-row identifiers, and the
// relational and graph-construction operations the paper describes (select,
// join, project, group & aggregate, order, set operations, SimJoin, NextK).
//
// String cells are interned in a per-table pool and stored as integer ids,
// so string equality, grouping and joining run at integer speed. Row
// identifiers are assigned once and survive in-place filtering, which lets
// users track individual records through a complex chain of operations.
package table

import (
	"fmt"
	"math"

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
type Table struct {
	cols   []Column
	ints   [][]int64   // per column; used by Int and String (pool ids) columns
	floats [][]float64 // per column; used by Float columns
	rowIDs []int64
	nextID int64
	pool   *strpool.Pool
	index  map[string]int
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
		cols:   append([]Column(nil), schema...),
		ints:   make([][]int64, len(schema)),
		floats: make([][]float64, len(schema)),
		rowIDs: make([]int64, 0, rows),
		pool:   strpool.New(0),
		index:  make(map[string]int, len(schema)),
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
			t.ints[i] = make([]int64, 0, rows)
		case Float:
			t.floats[i] = make([]float64, 0, rows)
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
		t.ints[i] = c
	}
	t.rowIDs = make([]int64, rows)
	for r := range t.rowIDs {
		t.rowIDs[r] = int64(r)
	}
	t.nextID = int64(rows)
	return t, nil
}

// NumRows reports the number of rows.
func (t *Table) NumRows() int { return len(t.rowIDs) }

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
// slice is the table's own storage; callers must not modify it.
func (t *Table) RowIDs() []int64 { return t.rowIDs }

// AppendRow appends one row. vals must match the schema; accepted Go types
// are int, int32, int64 for Int columns, float64 (or int) for Float columns,
// and string for String columns.
func (t *Table) AppendRow(vals ...any) error {
	if len(vals) != len(t.cols) {
		return fmt.Errorf("table: AppendRow got %d values for %d columns", len(vals), len(t.cols))
	}
	for i, v := range vals {
		switch t.cols[i].Type {
		case Int:
			n, ok := toInt64(v)
			if !ok {
				return fmt.Errorf("table: column %q expects int, got %T", t.cols[i].Name, v)
			}
			t.ints[i] = append(t.ints[i], n)
		case Float:
			f, ok := toFloat64(v)
			if !ok {
				return fmt.Errorf("table: column %q expects float, got %T", t.cols[i].Name, v)
			}
			t.floats[i] = append(t.floats[i], f)
		case String:
			s, ok := v.(string)
			if !ok {
				return fmt.Errorf("table: column %q expects string, got %T", t.cols[i].Name, v)
			}
			t.ints[i] = append(t.ints[i], int64(t.pool.Intern(s)))
		}
	}
	t.rowIDs = append(t.rowIDs, t.nextID)
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
func (t *Table) IntAt(col, row int) int64 { return t.ints[col][row] }

// FloatAt returns the float cell at (column position, row).
func (t *Table) FloatAt(col, row int) float64 { return t.floats[col][row] }

// StrAt returns the string cell at (column position, row).
func (t *Table) StrAt(col, row int) string {
	return t.pool.Get(int32(t.ints[col][row]))
}

// Value returns the cell at (column position, row) as an any of the column's
// natural Go type.
func (t *Table) Value(col, row int) any {
	switch t.cols[col].Type {
	case Int:
		return t.ints[col][row]
	case Float:
		return t.floats[col][row]
	default:
		return t.StrAt(col, row)
	}
}

// IntCol returns the raw int64 storage of the named Int or String column
// (pool ids for strings). The slice is shared with the table; callers that
// mutate it corrupt the table. The fast conversion paths (§2.4) copy it.
func (t *Table) IntCol(name string) ([]int64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	if t.cols[i].Type == Float {
		return nil, fmt.Errorf("table: column %q is float, not int-backed", name)
	}
	return t.ints[i], nil
}

// FloatCol returns the raw float64 storage of the named Float column.
func (t *Table) FloatCol(name string) ([]float64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	if t.cols[i].Type != Float {
		return nil, fmt.Errorf("table: column %q is %v, not float", name, t.cols[i].Type)
	}
	return t.floats[i], nil
}

// numericAsFloat returns column values as float64, converting Int columns.
func (t *Table) numericAsFloat(name string) ([]float64, error) {
	i := t.ColIndex(name)
	if i < 0 {
		return nil, fmt.Errorf("table: no column %q", name)
	}
	switch t.cols[i].Type {
	case Float:
		return t.floats[i], nil
	case Int:
		out := make([]float64, len(t.ints[i]))
		for j, v := range t.ints[i] {
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
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("table: duplicate column %q", name)
	}
	t.index[name] = len(t.cols)
	t.cols = append(t.cols, Column{name, Int})
	t.ints = append(t.ints, append([]int64(nil), vals...))
	t.floats = append(t.floats, nil)
	return nil
}

// AddFloatColumn appends a new Float column filled from vals.
func (t *Table) AddFloatColumn(name string, vals []float64) error {
	if len(vals) != t.NumRows() {
		return fmt.Errorf("table: AddFloatColumn %q: %d values for %d rows", name, len(vals), t.NumRows())
	}
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("table: duplicate column %q", name)
	}
	t.index[name] = len(t.cols)
	t.cols = append(t.cols, Column{name, Float})
	t.ints = append(t.ints, nil)
	t.floats = append(t.floats, append([]float64(nil), vals...))
	return nil
}

// AddIntColumnFunc appends a new Int column computed per row, in parallel.
// fn must be safe for concurrent calls on distinct rows.
func (t *Table) AddIntColumnFunc(name string, fn func(row int) int64) error {
	vals := make([]int64, t.NumRows())
	par.ForEach(t.NumRows(), func(row int) { vals[row] = fn(row) })
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("table: duplicate column %q", name)
	}
	t.index[name] = len(t.cols)
	t.cols = append(t.cols, Column{name, Int})
	t.ints = append(t.ints, vals)
	t.floats = append(t.floats, nil)
	return nil
}

// AddFloatColumnFunc appends a new Float column computed per row, in
// parallel.
func (t *Table) AddFloatColumnFunc(name string, fn func(row int) float64) error {
	vals := make([]float64, t.NumRows())
	par.ForEach(t.NumRows(), func(row int) { vals[row] = fn(row) })
	if _, dup := t.index[name]; dup {
		return fmt.Errorf("table: duplicate column %q", name)
	}
	t.index[name] = len(t.cols)
	t.cols = append(t.cols, Column{name, Float})
	t.ints = append(t.ints, nil)
	t.floats = append(t.floats, vals)
	return nil
}

// Rename renames a column in place.
func (t *Table) Rename(oldName, newName string) error {
	i := t.ColIndex(oldName)
	if i < 0 {
		return fmt.Errorf("table: no column %q", oldName)
	}
	if newName == "" {
		return fmt.Errorf("table: empty new column name")
	}
	if j, dup := t.index[newName]; dup && j != i {
		return fmt.Errorf("table: duplicate column %q", newName)
	}
	delete(t.index, oldName)
	t.index[newName] = i
	t.cols[i].Name = newName
	return nil
}

// Project returns a new table containing only the named columns, preserving
// row identifiers.
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
	out, err := NewWithCapacity(schema, t.NumRows())
	if err != nil {
		return nil, err
	}
	out.pool = t.pool.Clone()
	for k, i := range src {
		if t.cols[i].Type == Float {
			out.floats[k] = append(out.floats[k], t.floats[i]...)
		} else {
			out.ints[k] = append(out.ints[k], t.ints[i]...)
		}
	}
	out.rowIDs = append(out.rowIDs[:0], t.rowIDs...)
	out.nextID = t.nextID
	return out, nil
}

// Clone returns a deep copy of the table.
func (t *Table) Clone() *Table {
	out := &Table{
		cols:   append([]Column(nil), t.cols...),
		ints:   make([][]int64, len(t.cols)),
		floats: make([][]float64, len(t.cols)),
		rowIDs: append([]int64(nil), t.rowIDs...),
		nextID: t.nextID,
		pool:   t.pool.Clone(),
		index:  make(map[string]int, len(t.cols)),
	}
	for name, i := range t.index {
		out.index[name] = i
	}
	for i := range t.cols {
		if t.ints[i] != nil {
			out.ints[i] = append([]int64(nil), t.ints[i]...)
		}
		if t.floats[i] != nil {
			out.floats[i] = append([]float64(nil), t.floats[i]...)
		}
	}
	return out
}

// Bytes estimates the in-memory size of the table: column storage, row ids,
// and the string pool. This is the quantity reported as "In-memory Table
// Size" in Table 2 of the paper.
func (t *Table) Bytes() int64 {
	var b int64
	for i := range t.cols {
		b += int64(cap(t.ints[i])) * 8
		b += int64(cap(t.floats[i])) * 8
	}
	b += int64(cap(t.rowIDs)) * 8
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
	for _, v := range t.ints[i] {
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
	out, err := NewWithCapacity(t.Schema(), capacity)
	if err != nil {
		panic(err) // schema came from a valid table
	}
	out.pool = t.pool.Clone()
	out.nextID = t.nextID
	return out
}

// appendRowFrom copies row r of src (same schema layout) into t, preserving
// the row id.
func (t *Table) appendRowFrom(src *Table, r int) {
	for i := range t.cols {
		if t.cols[i].Type == Float {
			t.floats[i] = append(t.floats[i], src.floats[i][r])
		} else {
			t.ints[i] = append(t.ints[i], src.ints[i][r])
		}
	}
	t.rowIDs = append(t.rowIDs, src.rowIDs[r])
	if src.rowIDs[r] >= t.nextID {
		t.nextID = src.rowIDs[r] + 1
	}
}
