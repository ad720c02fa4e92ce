package graph

import (
	"strconv"
	"strings"
)

// nodeCommentID recognizes the "# node <id>" comment convention that keeps
// isolated nodes through a text round trip. The line must be trimmed and
// start with '#'; anything that is not exactly a node declaration is an
// ordinary comment. The parallel loader and the sequential reference in
// seqload_test.go both call this, so they cannot disagree on what counts
// as a declaration.
func nodeCommentID(line string) (int64, bool) {
	fields := strings.Fields(line[1:])
	if len(fields) != 2 || fields[0] != "node" {
		return 0, false
	}
	id, err := strconv.ParseInt(fields[1], 10, 64)
	if err != nil || id == tombstone {
		return 0, false
	}
	return id, true
}
