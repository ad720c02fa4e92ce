package graph

import (
	"bytes"
	"testing"
)

// FuzzLoadEdgeList drives the sequential reference loader (seqload_test.go)
// and the parallel pipeline with arbitrary bytes and requires them to
// agree: both reject the input, or both accept it and build identical
// graphs that pass Validate. This is the contract that lets LoadFileAuto
// route text through the parallel pipeline without changing what any
// caller observes.
func FuzzLoadEdgeList(f *testing.F) {
	seeds := []string{
		"",
		"1 2\n2 3\n3 1\n",
		"1\t2\r\n2\t2\r\n",
		"# comment\n\n1 2\n",
		"# node 7\n# node -3\n",
		"#node 9\n# node 5 extra\n# nodes 4\n",
		"1 2 3 4\n",
		"1 2 trailing\n",
		"99999999999999999999999999 1\n",
		"1 99999999999999999999999999\n",
		"-9223372036854775808 1\n",
		"9223372036854775807 -9223372036854775807\n",
		"1\n",
		"a b\n",
		"+1 -2\n",
		"01 002\n",
		" 5   6 \n",
		"5 6", // no trailing newline
		"1 2\n",
		"1 2\n",
		"1 2\x00\n",
		"--1 2\n",
		"1- 2\n",
		"# node 9223372036854775808\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1<<20 {
			t.Skip("outsized input") // avoid the scanner's deliberate line cap
		}
		seq, seqErr := loadEdgeList(bytes.NewReader(data))
		par, parErr := ParseEdgeList(data)
		if (seqErr == nil) != (parErr == nil) {
			t.Fatalf("loaders disagree on acceptance: seq=%v par=%v", seqErr, parErr)
		}
		if seqErr != nil {
			return
		}
		if err := seq.Validate(); err != nil {
			t.Fatalf("sequential graph invalid: %v", err)
		}
		if err := par.Validate(); err != nil {
			t.Fatalf("parallel graph invalid: %v", err)
		}
		if err := sameDirected(seq, par); err != nil {
			t.Fatalf("graphs differ: %v", err)
		}
	})
}
