package table

import (
	"bytes"
	"fmt"
	"io"
	"slices"

	"ringo/internal/frame"
)

// Columnar binary table serialization, the table-side counterpart of the
// RNGM graph image: whole int64/float64 columns are written as
// contiguous little-endian blocks and string columns as pool ids next to a
// single shared string pool. This is the representation workspace
// snapshots embed (see internal/snapshot); unlike TSV it round-trips every
// string value byte-for-byte, including tabs, newlines and empty strings,
// and it preserves persistent row identifiers.
//
// Layout (little endian): magic "RTBL", format version u32, column count
// u32, then per column: name (u32 length + bytes), type u8; row count u64,
// next row id i64; pool: distinct string count u32, then per string u32
// length + bytes; zero padding up to the next multiple of 8 bytes; row ids
// i64×rows; finally per column in schema order the column block (i64×rows
// for Int and String columns, f64×rows for Float). Every block starts 8
// bytes aligned from the start of the table, so a decoder holding the
// table in an aligned buffer aliases them as the columns: loading copies
// nothing past the pool.

const (
	tableBinaryMagic = "RTBL"
	// tableBinaryVersion 1 wrote the row ids before the pool and no
	// padding; its tables are refused.
	tableBinaryVersion = 2
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
	fw.U32(uint32(t.pool.Len()))
	for i := 0; i < t.pool.Len(); i++ {
		fw.String(t.pool.Get(int32(i)))
	}
	fw.Pad8()
	d := t.settle()
	fw.Int64s(d.rowIDs)
	for i, c := range t.cols {
		if c.Type == Float {
			fw.Float64s(d.floats[i])
		} else {
			fw.Int64s(d.ints[i])
		}
	}
	return fw.Flush()
}

// DecodeBinary decodes a table EncodeBinary wrote into p, which holds it
// and nothing more. The row ids and the columns alias p where p's memory
// is 8-byte aligned (frame.Section), and are copied out of it otherwise;
// either way each has cap == len, so an append reallocates instead of
// writing over the next block, and the table owns p from here on. All
// counts are validated against the bytes p holds, string-column cells are
// checked against the pool size, and row ids against each other and the
// next row id, so a truncated or corrupt table returns an error instead of
// panicking.
func DecodeBinary(p []byte) (*Table, error) {
	fr := frame.NewReader(bytes.NewReader(p))
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
	nStrs := fr.U32("pool size")
	for i := uint32(0); i < nStrs && fr.Err() == nil; i++ {
		if id := t.pool.Intern(fr.String("pool string")); fr.Err() == nil && id != int32(i) {
			return nil, fmt.Errorf("table: pool string %d duplicates string %d", i, id)
		}
	}
	if err := fr.Err(); err != nil {
		return nil, fmt.Errorf("table: %w", err)
	}
	// The row ids and one block per column, each rows×8 bytes, fill what
	// is left after the padding exactly. Divide, don't multiply: rows ×
	// blocks × 8 can wrap.
	at := (fr.Offset() + 7) &^ 7
	blocks := uint64(len(schema) + 1)
	if left := int64(len(p)) - at; left < 0 || nRows > uint64(left)/8/blocks || uint64(left) != 8*nRows*blocks {
		return nil, fmt.Errorf("table: %d rows of %d columns and row ids do not fill the %d bytes after the pool", nRows, len(schema), max(left, 0))
	}
	size := int64(8 * nRows)
	d := &t.data
	if size > 0 { // an empty table keeps New's empty slices
		d.rowIDs = frame.Section[int64](p, at, size)
	}
	// Duplicate ids, or a nextID at or below an existing id, would break
	// the persistent row-identity guarantee: future AppendRow calls could
	// re-issue ids that rows already hold.
	ids := d.rowIDs
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
	for i, c := range schema {
		at += size
		if size == 0 {
			break
		}
		if c.Type == Float {
			d.floats[i] = frame.Section[float64](p, at, size)
			continue
		}
		d.ints[i] = frame.Section[int64](p, at, size)
		if c.Type != String {
			continue
		}
		for r, cell := range d.ints[i] {
			if cell < 0 || cell >= int64(nStrs) {
				return nil, fmt.Errorf("table: column %q row %d: string id %d outside pool of %d", c.Name, r, cell, nStrs)
			}
		}
	}
	return t, nil
}
