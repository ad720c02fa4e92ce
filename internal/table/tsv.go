package table

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"math/bits"
	"os"
	"strconv"
	"strings"

	"ringo/internal/frame"
)

// maxTSVLine is the longest line the loader accepts, its newline excluded:
// one byte under 4 MiB, the cap of the line scanner the loader used to
// read through, whose error text it keeps.
const maxTSVLine = 1<<22 - 1

// LoadTSV reads tab-separated rows from r into a new table with the given
// schema. If header is true the first line is skipped (column names come
// from the schema, as in ringo.LoadTableTSV(schema, file)). Lines beginning
// with '#' and blank lines are ignored, matching SNAP's edge-list format;
// a line's trailing carriage return is dropped. String fields are
// unescaped (see unescapeTSV), reversing SaveTSV's escaping of tabs,
// newlines and backslashes. The whole input is read before parsing (see
// ParseTSV).
func LoadTSV(r io.Reader, schema Schema, header bool) (*Table, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("table: reading TSV: %w", err)
	}
	return ParseTSV(data, schema, header)
}

// LoadTSVFile is LoadTSV reading from the named file.
func LoadTSVFile(path string, schema Schema, header bool) (*Table, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseTSV(data, schema, header)
}

// ParseTSV is LoadTSV over input already in memory; the table keeps no
// reference to data. Every column is allocated once, at the input's line
// count (bytes.Count of its newlines), and clipped by one copy at the end
// only when blank, comment or header lines made that too long. One forward
// scan then finds each cell's end while it parses it. An Int cell of an
// optional '-' and one to eight digits followed by a tab or newline is
// read eight bytes at once (digitRun finds its end, digitValue its value);
// any other cell — a '+', nine or more digits, space, a carriage return, a
// bad byte, or a cell starting under ten bytes from the input's end — is
// cut at its tab and parsed on its own by appendTSVCell. No string is made
// per line, nor per integer or already-interned string cell. Row ids are
// written once the rows are known.
func ParseTSV(data []byte, schema Schema, header bool) (*Table, error) {
	lines := bytes.Count(data, []byte{'\n'})
	if len(data) > 0 && data[len(data)-1] != '\n' {
		lines++
	}
	if header && lines > 0 {
		lines--
	}
	t, err := NewWithCapacity(schema, lines)
	if err != nil {
		return nil, err
	}
	d := &t.data
	cols, ints, last := t.cols, d.ints, len(t.cols)-1
	rows, skip := 0, header
	for p, lineNo := 0, 1; p < len(data); lineNo++ {
		start, eol := p, -1 // eol: the line's newline (or len(data)) once found
		c := data[p]
		if blank := c == '#' || c == '\n' || c == '\r' && (p+1 == len(data) || data[p+1] == '\n'); blank || skip {
			skip = skip && blank
			eol = lineEnd(data, p)
			if eol-start > maxTSVLine {
				return nil, errTSVTooLong
			}
			p = eol + 1
			continue
		}
		end := p // the current cell's end: a tab, the newline, or len(data)
		for i := range cols {
			fast := false
			if cols[i].Type == Int && len(data)-p > 9 {
				q := p
				if data[q] == '-' {
					q++
				}
				w := binary.LittleEndian.Uint64(data[q:])
				k := digitRun(w)
				if d := data[q+k]; k > 0 && (d == '\t' || d == '\n') {
					v := digitValue(w, k)
					if q > p {
						v = -v
					}
					ints[i] = append(ints[i], v)
					end, fast = q+k, true
				}
			}
			if !fast {
				if eol < 0 {
					eol = lineEnd(data, p)
				}
				end = eol
				if tab := bytes.IndexByte(data[p:eol], '\t'); tab >= 0 {
					end = p + tab
				}
			}
			// A short row is reported before its last cell parses, as the
			// line scanner reported it.
			if i < last && (end == len(data) || data[end] != '\t') {
				return nil, tsvLineError(data, start, p, fmt.Errorf("table: line %d: %d fields for %d columns", lineNo, i+1, len(cols)))
			}
			if !fast {
				field := data[p:end]
				if end == eol && end > p && data[end-1] == '\r' {
					field = field[:len(field)-1]
				}
				if err := t.appendTSVCell(i, field, lineNo); err != nil {
					return nil, tsvLineError(data, start, p, err)
				}
			}
			p = end + 1
		}
		if end < len(data) && data[end] == '\n' {
			eol = end
		} else if eol < 0 {
			eol = lineEnd(data, end)
		}
		if eol-start > maxTSVLine {
			return nil, errTSVTooLong
		}
		p = eol + 1
		rows++
	}
	d.rowIDs = d.rowIDs[:rows]
	if rows < lines {
		d.rowIDs = exactLen(d.rowIDs)
		for i := range cols {
			if cols[i].Type == Float {
				d.floats[i] = exactLen(d.floats[i])
			} else {
				d.ints[i] = exactLen(d.ints[i])
			}
		}
	}
	t.renumber()
	return t, nil
}

// errTSVTooLong is the error for a line over maxTSVLine.
var errTSVTooLong = fmt.Errorf("table: reading TSV: %w", bufio.ErrTooLong)

// lineEnd returns the index of the first newline at or after p, or
// len(data) when there is none.
func lineEnd(data []byte, p int) int {
	if i := bytes.IndexByte(data[p:], '\n'); i >= 0 {
		return p + i
	}
	return len(data)
}

// tsvLineError reports err, the failure of the line starting at start at
// or after p, unless that line is over maxTSVLine: the line scanner the
// loader replaced rejected such a line before parsing any of it.
func tsvLineError(data []byte, start, p int, err error) error {
	if lineEnd(data, p)-start > maxTSVLine {
		return errTSVTooLong
	}
	return err
}

// exactLen returns s's elements in a slice whose capacity is its length.
func exactLen[T any](s []T) []T {
	return append(make([]T, 0, len(s)), s...)
}

// digitRun returns how many of w's bytes, lowest first, are ASCII digits
// before the first that is not (8 when all are). XOR with '0' maps digits
// to 0..9; adding 0x76 to each byte's low seven bits sets its top bit
// exactly when the byte is 10 or more, with no carry between bytes.
func digitRun(w uint64) int {
	x := w ^ 0x3030303030303030
	return bits.TrailingZeros64((x&0x7f7f7f7f7f7f7f7f+0x7676767676767676|x)&0x8080808080808080) >> 3
}

// digitValue returns the value of the k ASCII digits in w's k lowest bytes,
// 1 <= k <= 8, most significant first: it shifts them to the word's top,
// leading zeros below, and three multiply-shifts fold byte pairs, then
// pairs of pairs, into the value.
func digitValue(w uint64, k int) int64 {
	x := (w ^ 0x3030303030303030) << (64 - 8*k)
	x = x * 2561 >> 8 & 0x00ff00ff00ff00ff
	x = x * 6553601 >> 16 & 0x0000ffff0000ffff
	return int64(x * 42949672960001 >> 32)
}

// appendTSVCell parses field into column i's next cell: an Int through
// parseDecimal and then strconv, a Float through strconv, and a String
// unescaped and interned.
func (t *Table) appendTSVCell(i int, field []byte, lineNo int) error {
	switch t.cols[i].Type {
	case Int:
		n, ok := parseDecimal(field)
		if !ok {
			var err error
			if n, err = strconv.ParseInt(strings.TrimSpace(string(field)), 10, 64); err != nil {
				return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
			}
		}
		t.data.ints[i] = append(t.data.ints[i], n)
	case Float:
		f, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
		if err != nil {
			return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
		}
		t.data.floats[i] = append(t.data.floats[i], f)
	default:
		var id int32
		if bytes.IndexByte(field, '\\') < 0 {
			id = t.pool.InternBytes(field)
		} else {
			id = t.pool.Intern(unescapeTSV(string(field)))
		}
		t.data.ints[i] = append(t.data.ints[i], int64(id))
	}
	return nil
}

// parseDecimal parses the common integer cell — an optional sign and one
// to 18 digits, which cannot overflow — and reports false for anything
// else (surrounding space, longer numbers, syntax errors), which
// strconv.ParseInt then decides.
func parseDecimal(b []byte) (int64, bool) {
	neg := len(b) > 0 && b[0] == '-'
	if len(b) > 0 && (b[0] == '-' || b[0] == '+') {
		b = b[1:]
	}
	if len(b) == 0 || len(b) > 18 {
		return 0, false
	}
	var n int64
	for _, c := range b {
		if c < '0' || c > '9' {
			return 0, false
		}
		n = n*10 + int64(c-'0')
	}
	if neg {
		n = -n
	}
	return n, true
}

// escapeTSV renders a string cell so it survives the line/field structure
// of TSV: backslash, tab, newline and carriage return become the two-byte
// sequences \\, \t, \n, \r (the Postgres COPY convention). Values without
// those bytes are returned unchanged, no allocation.
func escapeTSV(s string) string {
	if !strings.ContainsAny(s, "\\\t\n\r") {
		return s
	}
	var b strings.Builder
	b.Grow(len(s) + 2)
	for i := 0; i < len(s); i++ {
		switch s[i] {
		case '\\':
			b.WriteString(`\\`)
		case '\t':
			b.WriteString(`\t`)
		case '\n':
			b.WriteString(`\n`)
		case '\r':
			b.WriteString(`\r`)
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// unescapeTSV reverses escapeTSV. Unrecognized escapes keep the escaped
// byte literally, and a lone trailing backslash survives — but the four
// recognized sequences (\t \n \r \\) ARE reinterpreted, so a pre-escaping
// file whose string cells contain those literal two-byte sequences decodes
// differently than it used to (e.g. "C:\temp" loads with a tab). That is
// the inherent cost of adopting an escape syntax; datasets that must keep
// backslash sequences byte-exact should use the binary formats.
func unescapeTSV(s string) string {
	if !strings.ContainsRune(s, '\\') {
		return s
	}
	var b strings.Builder
	b.Grow(len(s))
	for i := 0; i < len(s); i++ {
		if s[i] != '\\' || i == len(s)-1 {
			b.WriteByte(s[i])
			continue
		}
		i++
		switch s[i] {
		case '\\':
			b.WriteByte('\\')
		case 't':
			b.WriteByte('\t')
		case 'n':
			b.WriteByte('\n')
		case 'r':
			b.WriteByte('\r')
		default:
			b.WriteByte(s[i])
		}
	}
	return b.String()
}

// SaveTSV writes the table as tab-separated values. If header is true the
// first line lists the column names.
//
// String cells are escaped (see escapeTSV), so values containing tabs,
// newlines or backslashes round-trip through LoadTSV, as do empty cells in
// multi-column tables. Two ambiguities remain inherent to the line format
// and are NOT escaped: a single-string-column row whose value is empty
// renders as a blank line, and a first cell starting with '#' renders as a
// comment line — LoadTSV skips both. The binary formats (EncodeBinary,
// workspace snapshots) have no such ambiguity and round-trip every value
// byte-for-byte.
func (t *Table) SaveTSV(w io.Writer, header bool) error {
	bw := bufio.NewWriter(w)
	if header {
		for i, c := range t.cols {
			if i > 0 {
				if err := bw.WriteByte('\t'); err != nil {
					return err
				}
			}
			if _, err := bw.WriteString(c.Name); err != nil {
				return err
			}
		}
		if err := bw.WriteByte('\n'); err != nil {
			return err
		}
	}
	d := t.settle()
	var buf []byte
	for row := 0; row < t.NumRows(); row++ {
		buf = buf[:0]
		for i := range t.cols {
			if i > 0 {
				buf = append(buf, '\t')
			}
			switch t.cols[i].Type {
			case Int:
				buf = strconv.AppendInt(buf, d.ints[i][row], 10)
			case Float:
				buf = strconv.AppendFloat(buf, d.floats[i][row], 'g', -1, 64)
			default:
				buf = append(buf, escapeTSV(t.pool.Get(int32(d.ints[i][row])))...)
			}
		}
		buf = append(buf, '\n')
		if _, err := bw.Write(buf); err != nil {
			return err
		}
	}
	return bw.Flush()
}

// SaveTSVFile is SaveTSV writing to the named file, which is replaced
// only once the whole table is written.
func (t *Table) SaveTSVFile(path string, header bool) error {
	return frame.WriteFile(path, func(w io.Writer) error { return t.SaveTSV(w, header) })
}
