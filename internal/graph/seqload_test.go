package graph

import (
	"bufio"
	"fmt"
	"io"
	"strconv"
	"strings"
)

// loadEdgeList reads a SNAP-style whitespace-separated edge list (lines of
// "src dst", '#' comments and blank lines ignored) into a directed graph.
// Comment lines of the form "# node <id>" declare a node without edges, so
// an edge list can carry isolated nodes.
// It is the sequential scanner reference FuzzLoadEdgeList and
// parload_test.go hold ParseEdgeList to: same accepted inputs, same
// graph.
func loadEdgeList(r io.Reader) (*Directed, error) {
	g := NewDirected()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<22)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			if id, ok := nodeCommentID(line); ok {
				g.AddNode(id)
			}
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 2 {
			return nil, fmt.Errorf("graph: line %d: need two fields, got %q", lineNo, line)
		}
		src, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		dst, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, fmt.Errorf("graph: line %d: %w", lineNo, err)
		}
		if src == tombstone || dst == tombstone {
			return nil, fmt.Errorf("graph: line %d: node id %d reserved", lineNo, int64(tombstone))
		}
		g.AddEdge(src, dst)
	}
	if err := sc.Err(); err != nil {
		// The failing token is the line after the last one delivered; name
		// it so a "token too long" on a 5 GB file is findable.
		return nil, fmt.Errorf("graph: line %d: reading edge list: %w", lineNo+1, err)
	}
	return g, nil
}
