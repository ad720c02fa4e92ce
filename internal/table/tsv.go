package table

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
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
// reference to data. A first pass counts the data rows, so every column is
// allocated once at its exact length; the second parses each field in
// place, with no string per line and none per plain integer or
// already-interned string cell.
func ParseTSV(data []byte, schema Schema, header bool) (*Table, error) {
	rows := 0
	for rest := data; len(rest) > 0; {
		var line []byte
		line, rest, _ = cutTSVLine(rest)
		if len(line) > 0 && line[0] != '#' {
			rows++
		}
	}
	if header && rows > 0 {
		rows--
	}
	t, err := NewWithCapacity(schema, rows)
	if err != nil {
		return nil, err
	}
	skip := header
	for lineNo, rest := 1, data; len(rest) > 0; lineNo++ {
		line, next, raw := cutTSVLine(rest)
		rest = next
		if raw > maxTSVLine {
			return nil, fmt.Errorf("table: reading TSV: %w", bufio.ErrTooLong)
		}
		if len(line) == 0 || line[0] == '#' {
			continue
		}
		if skip {
			skip = false
			continue
		}
		if err := t.appendTSVLine(line, lineNo); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// cutTSVLine splits off data's first line, dropping its newline and then
// one trailing carriage return (bufio.ScanLines' rule); raw is the line's
// length before the carriage return is dropped.
func cutTSVLine(data []byte) (line, rest []byte, raw int) {
	line = data
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		line, rest = data[:i], data[i+1:]
	}
	raw = len(line)
	if raw > 0 && line[raw-1] == '\r' {
		line = line[:raw-1]
	}
	return line, rest, raw
}

func (t *Table) appendTSVLine(line []byte, lineNo int) error {
	for i := range t.cols {
		field := line
		if tab := bytes.IndexByte(line, '\t'); tab >= 0 {
			field, line = line[:tab], line[tab+1:]
		} else if i < len(t.cols)-1 {
			return fmt.Errorf("table: line %d: %d fields for %d columns", lineNo, i+1, len(t.cols))
		}
		switch t.cols[i].Type {
		case Int:
			n, ok := parseDecimal(field)
			if !ok {
				var err error
				if n, err = strconv.ParseInt(strings.TrimSpace(string(field)), 10, 64); err != nil {
					return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
				}
			}
			t.ints[i] = append(t.ints[i], n)
		case Float:
			f, err := strconv.ParseFloat(string(bytes.TrimSpace(field)), 64)
			if err != nil {
				return fmt.Errorf("table: line %d column %q: %w", lineNo, t.cols[i].Name, err)
			}
			t.floats[i] = append(t.floats[i], f)
		default:
			var id int32
			if bytes.IndexByte(field, '\\') < 0 {
				id = t.pool.InternBytes(field)
			} else {
				id = t.pool.Intern(unescapeTSV(string(field)))
			}
			t.ints[i] = append(t.ints[i], int64(id))
		}
	}
	t.rowIDs = append(t.rowIDs, t.nextID)
	t.nextID++
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
	var buf []byte
	for row := 0; row < t.NumRows(); row++ {
		buf = buf[:0]
		for i := range t.cols {
			if i > 0 {
				buf = append(buf, '\t')
			}
			switch t.cols[i].Type {
			case Int:
				buf = strconv.AppendInt(buf, t.ints[i][row], 10)
			case Float:
				buf = strconv.AppendFloat(buf, t.floats[i][row], 'g', -1, 64)
			default:
				buf = append(buf, escapeTSV(t.pool.Get(int32(t.ints[i][row])))...)
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
