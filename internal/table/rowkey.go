package table

import (
	"encoding/binary"
	"fmt"
)

// rowKeyEncoder builds canonical byte encodings of row values over a set of
// columns, used as map keys for grouping, distinct and set operations.
// String cells are encoded by content (length-prefixed bytes) so keys are
// comparable across tables with different pools; Float cells by floatKey,
// so 0 and -0 are one value and so are all NaNs.
type rowKeyEncoder struct {
	t    *Table
	d    *cells
	cols []int
	buf  []byte
}

func newRowKeyEncoder(t *Table, names []string) (*rowKeyEncoder, error) {
	cols := make([]int, len(names))
	for k, name := range names {
		i := t.ColIndex(name)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q", name)
		}
		cols[k] = i
	}
	return &rowKeyEncoder{t: t, d: t.settle(), cols: cols}, nil
}

// key returns the canonical encoding of row over the encoder's columns. The
// returned string is freshly allocated and safe to retain.
func (e *rowKeyEncoder) key(row int) string {
	e.buf = e.buf[:0]
	for _, i := range e.cols {
		switch e.t.cols[i].Type {
		case Int:
			e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(e.d.ints[i][row]))
		case Float:
			e.buf = binary.BigEndian.AppendUint64(e.buf, uint64(floatKey(e.d.floats[i][row])))
		default:
			s := e.t.pool.Get(int32(e.d.ints[i][row]))
			e.buf = binary.BigEndian.AppendUint32(e.buf, uint32(len(s)))
			e.buf = append(e.buf, s...)
		}
	}
	return string(e.buf)
}

// sameSchema reports whether two tables have identical column names and
// types in the same order, the requirement for set operations.
func sameSchema(a, b *Table) bool {
	if len(a.cols) != len(b.cols) {
		return false
	}
	for i := range a.cols {
		if a.cols[i] != b.cols[i] {
			return false
		}
	}
	return true
}
