package table

import (
	"fmt"
	"io"
	"slices"

	"ringo/internal/frame"
)

// Columnar binary table serialization, the table-side counterpart of the
// binary graph format: whole int64/float64 columns are written as
// contiguous little-endian blocks and string columns as pool ids next to a
// single shared string pool, so loading is a handful of bulk reads instead
// of a per-cell text parse. This is the representation workspace snapshots
// embed (see internal/snapshot); unlike TSV it round-trips every string
// value byte-for-byte, including tabs, newlines and empty strings, and it
// preserves persistent row identifiers.
//
// Layout (little endian): magic "RTBL", format version u32, column count
// u32, then per column: name (u32 length + bytes), type u8; row count u64,
// next row id i64, row ids i64×rows; pool: distinct string count u32, then
// per string u32 length + bytes; finally per column in schema order the
// column block (i64×rows for Int and String columns, f64×rows for Float).

const (
	tableBinaryMagic   = "RTBL"
	tableBinaryVersion = 1
)

// EncodeBinary writes t in the columnar binary table format.
func (t *Table) EncodeBinary(w io.Writer) error {
	fw := frame.NewWriter(w)
	fw.Header(tableBinaryMagic, tableBinaryVersion)
	fw.U32(uint32(len(t.cols)))
	for _, c := range t.cols {
		fw.String(c.Name)
		fw.U8(byte(c.Type))
	}
	fw.U64(uint64(t.NumRows()))
	fw.U64(uint64(t.nextID))
	fw.Int64s(t.rowIDs)
	fw.U32(uint32(t.pool.Len()))
	for i := 0; i < t.pool.Len(); i++ {
		fw.String(t.pool.Get(int32(i)))
	}
	for i, c := range t.cols {
		if c.Type == Float {
			fw.Float64s(t.floats[i])
		} else {
			fw.Int64s(t.ints[i])
		}
	}
	return fw.Flush()
}

// DecodeBinary reads a table written by EncodeBinary. All counts are
// validated against what the stream actually delivers, string-column cells
// are checked against the pool size, and allocations are bounded, so a
// truncated or corrupt stream returns an error instead of panicking.
func DecodeBinary(r io.Reader) (*Table, error) {
	fr := frame.NewReader(r)
	fr.Header(tableBinaryMagic, tableBinaryVersion)
	nCols := fr.Count32("column count")
	var schema Schema
	for i := uint32(0); i < nCols && fr.Err() == nil; i++ {
		schema = append(schema, Column{Name: fr.String("column name"), Type: Type(fr.U8("column type"))})
	}
	nRows := fr.Count("row count")
	nextID := int64(fr.U64("next row id"))
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	t, err := New(schema)
	if err != nil {
		return nil, err
	}
	t.nextID = nextID
	if t.rowIDs = fr.Int64s("row ids", nRows); fr.Err() != nil {
		return nil, fmt.Errorf("table: %w", fr.Err())
	}
	// Duplicate ids, or a nextID at or below an existing id, would break
	// the persistent row-identity guarantee: future AppendRow calls could
	// re-issue ids that rows already hold.
	ids := t.rowIDs
	if !slices.IsSorted(ids) {
		ids = slices.Sorted(slices.Values(ids))
	}
	maxRowID := int64(-1)
	for i, id := range ids {
		if i > 0 && id == ids[i-1] {
			return nil, fmt.Errorf("table: row id %d appears twice", id)
		}
		maxRowID = max(maxRowID, id)
	}
	if t.nextID <= maxRowID {
		return nil, fmt.Errorf("table: next row id %d not above max row id %d", t.nextID, maxRowID)
	}
	nStrs := fr.U32("pool size")
	for i := uint32(0); i < nStrs && fr.Err() == nil; i++ {
		if id := t.pool.Intern(fr.String("pool string")); fr.Err() == nil && id != int32(i) {
			return nil, fmt.Errorf("table: pool string %d duplicates string %d", i, id)
		}
	}
	for i, c := range schema {
		field := fmt.Sprintf("column %q", c.Name)
		if c.Type == Float {
			t.floats[i] = fr.Float64s(field, nRows)
			continue
		}
		t.ints[i] = fr.Int64s(field, nRows)
		if c.Type != String {
			continue
		}
		for r, cell := range t.ints[i] {
			if cell < 0 || cell >= int64(nStrs) {
				return nil, fmt.Errorf("table: column %q row %d: string id %d outside pool of %d", c.Name, r, cell, nStrs)
			}
		}
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	return t, nil
}
