package graph

import (
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"unicode/utf8"

	"ringo/internal/par"
)

// Parallel text ingest (§2.3 of Perez et al.): loading a billion-edge text
// file must saturate cores, not a single scanner loop. The pipeline reads
// the whole input into memory (the big-memory premise of the paper), splits
// it into one chunk per worker at newline boundaries, parses each chunk with
// allocation-free byte-slice integer parsing into per-worker edge buffers,
// and hands the concatenated pairs to the sort-first bulk constructor
// (BuildDirected). The result is identical to the sequential scanner
// reference in seqload_test.go — same node set, same sorted adjacency
// vectors, same accepted and rejected inputs — which the equivalence and
// fuzz tests enforce. The one deliberate difference: this path has no
// line-length cap, so inputs the scanner rejects as "token too long" parse
// fine here.

// LoadEdgeListParallel reads a SNAP-style whitespace-separated edge list
// (lines of "src dst", '#' comments and blank lines ignored, "# node <id>"
// declaring an isolated node) into a directed graph, parsing and building
// in parallel.
func LoadEdgeListParallel(r io.Reader) (*Directed, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("graph: reading edge list: %w", err)
	}
	return ParseEdgeList(data)
}

// LoadEdgeListParallelFile is LoadEdgeListParallel reading the named file.
func LoadEdgeListParallelFile(path string) (*Directed, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return ParseEdgeList(data)
}

// ParseEdgeList parses an in-memory edge-list text into a directed graph
// using the parallel ingest pipeline.
func ParseEdgeList(data []byte) (*Directed, error) {
	bounds := chunkBounds(data, par.Workers())
	nc := len(bounds) - 1
	results := make([]chunkResult, nc)
	par.ForEach(nc, func(i int) {
		results[i] = parseChunk(data[bounds[i]:bounds[i+1]])
	})
	lineBase := 0
	for i := range results {
		if err := results[i].err; err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineBase+results[i].errLine, err)
		}
		lineBase += results[i].lines
	}
	offs := make([]int, nc+1)
	for i := range results {
		offs[i+1] = offs[i] + len(results[i].edges)
	}
	edges := make([][2]int64, offs[nc])
	par.ForEach(nc, func(i int) {
		copy(edges[offs[i]:offs[i+1]], results[i].edges)
	})
	// The per-worker buffers and the raw bytes are fully consumed; drop them
	// before the build phase allocates its sort buffers and arenas, so peak
	// memory is the build's own, not build + parse leftovers.
	for i := range results {
		results[i].edges = nil
	}
	data = nil
	g, err := BuildDirected(edges)
	if err != nil {
		return nil, err
	}
	for i := range results {
		for _, id := range results[i].nodes {
			g.AddNode(id)
		}
	}
	return g, nil
}

// chunkBounds partitions data into at most parts byte ranges whose interior
// boundaries sit just past a newline, so every chunk is a whole number of
// lines. Boundaries are strictly increasing; the result always starts at 0
// and ends at len(data).
func chunkBounds(data []byte, parts int) []int {
	n := len(data)
	if parts < 1 {
		parts = 1
	}
	bounds := make([]int, 0, parts+1)
	bounds = append(bounds, 0)
	for i := 1; i < parts; i++ {
		p := i * n / parts
		if p <= bounds[len(bounds)-1] {
			continue
		}
		for p < n && data[p-1] != '\n' {
			p++
		}
		if p > bounds[len(bounds)-1] && p < n {
			bounds = append(bounds, p)
		}
	}
	bounds = append(bounds, n)
	return bounds
}

// chunkResult is one worker's parse of one chunk.
type chunkResult struct {
	edges   [][2]int64
	nodes   []int64 // isolated nodes declared by "# node <id>" comments
	lines   int     // lines consumed (complete chunks) or seen before the error
	errLine int     // 1-based line index of err within the chunk
	err     error
}

// asciiSpace marks the ASCII bytes unicode.IsSpace reports as whitespace,
// so the fast path splits fields exactly like strings.Fields does on ASCII
// input. Lines with any non-ASCII byte take the strings-based slow path.
var asciiSpace = [256]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseChunk parses the complete lines of one chunk.
func parseChunk(data []byte) chunkResult {
	res := chunkResult{edges: make([][2]int64, 0, len(data)/12+1)}
	pos := 0
	for pos < len(data) {
		end := pos
		for end < len(data) && data[end] != '\n' {
			end++
		}
		res.lines++
		if err := parseLine(data[pos:end], &res); err != nil {
			res.errLine = res.lines
			res.err = err
			return res
		}
		pos = end + 1
	}
	return res
}

// parseLine parses one line (without its newline) into res. The ASCII fast
// path allocates nothing per line; lines containing non-ASCII bytes fall
// back to the exact string-based logic of the sequential loader so the two
// paths accept and reject identical inputs.
func parseLine(ln []byte, res *chunkResult) error {
	for _, b := range ln {
		if b >= utf8.RuneSelf {
			return parseLineSlow(string(ln), res)
		}
	}
	lo, hi := 0, len(ln)
	for lo < hi && asciiSpace[ln[lo]] {
		lo++
	}
	for hi > lo && asciiSpace[ln[hi-1]] {
		hi--
	}
	if lo == hi {
		return nil
	}
	if ln[lo] == '#' {
		if id, ok := nodeCommentID(string(ln[lo:hi])); ok {
			res.nodes = append(res.nodes, id)
		}
		return nil
	}
	f1 := lo
	for f1 < hi && !asciiSpace[ln[f1]] {
		f1++
	}
	f2 := f1
	for f2 < hi && asciiSpace[ln[f2]] {
		f2++
	}
	if f2 == hi {
		return fmt.Errorf("need two fields, got %q", ln[lo:hi])
	}
	f2hi := f2
	for f2hi < hi && !asciiSpace[ln[f2hi]] {
		f2hi++
	}
	src, err := parseInt64(ln[lo:f1])
	if err != nil {
		return err
	}
	dst, err := parseInt64(ln[f2:f2hi])
	if err != nil {
		return err
	}
	if src == tombstone || dst == tombstone {
		return fmt.Errorf("node id %d reserved", int64(tombstone))
	}
	res.edges = append(res.edges, [2]int64{src, dst})
	return nil
}

// parseLineSlow mirrors the sequential loader's per-line logic verbatim.
func parseLineSlow(line string, res *chunkResult) error {
	line = strings.TrimSpace(line)
	if line == "" {
		return nil
	}
	if strings.HasPrefix(line, "#") {
		if id, ok := nodeCommentID(line); ok {
			res.nodes = append(res.nodes, id)
		}
		return nil
	}
	fields := strings.Fields(line)
	if len(fields) < 2 {
		return fmt.Errorf("need two fields, got %q", line)
	}
	src, err := strconv.ParseInt(fields[0], 10, 64)
	if err != nil {
		return err
	}
	dst, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil {
		return err
	}
	if src == tombstone || dst == tombstone {
		return fmt.Errorf("node id %d reserved", int64(tombstone))
	}
	res.edges = append(res.edges, [2]int64{src, dst})
	return nil
}

// parseInt64 parses a base-10 signed integer from a byte slice without
// allocating. It accepts exactly the inputs strconv.ParseInt(s, 10, 64)
// accepts: an optional +/- sign followed by one or more ASCII digits, within
// the int64 range.
func parseInt64(s []byte) (int64, error) {
	neg := false
	i := 0
	if len(s) > 0 && (s[0] == '+' || s[0] == '-') {
		neg = s[0] == '-'
		i = 1
	}
	if i == len(s) {
		return 0, fmt.Errorf("invalid integer %q", s)
	}
	limit := uint64(1) << 63 // |MinInt64|; MaxInt64 when positive
	if !neg {
		limit--
	}
	var u uint64
	for ; i < len(s); i++ {
		c := s[i]
		if c < '0' || c > '9' {
			return 0, fmt.Errorf("invalid integer %q", s)
		}
		d := uint64(c - '0')
		if u > limit/10 || (u == limit/10 && d > limit%10) {
			return 0, fmt.Errorf("integer %q out of range", s)
		}
		u = u*10 + d
	}
	if neg {
		return int64(-u), nil
	}
	return int64(u), nil
}
