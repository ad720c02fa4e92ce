package graph

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// saveEdgeList renders g as a tab-separated edge list in ascending source
// order, with each zero-degree node as a "# node <id>" line, so loading the
// text back yields the same node and edge sets.
func saveEdgeList(g *Directed) string {
	var sb strings.Builder
	for _, src := range g.Nodes() {
		if g.OutDeg(src) == 0 && g.InDeg(src) == 0 {
			fmt.Fprintf(&sb, "# node %d\n", src)
		}
		for _, dst := range g.OutNeighbors(src) {
			fmt.Fprintf(&sb, "%d\t%d\n", src, dst)
		}
	}
	return sb.String()
}

// writeEdgeListFile writes saveEdgeList(g) to path.
func writeEdgeListFile(t testing.TB, path string, g *Directed) {
	t.Helper()
	if err := os.WriteFile(path, []byte(saveEdgeList(g)), 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeListRoundTrip(t *testing.T) {
	g := sampleDirected()
	back, err := loadEdgeList(strings.NewReader(saveEdgeList(g)))
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip dims = (%d,%d)", back.NumNodes(), back.NumEdges())
	}
	g.ForEdges(func(src, dst int64) {
		if !back.HasEdge(src, dst) {
			t.Fatalf("round trip lost %d->%d", src, dst)
		}
	})
}

func TestLoadEdgeListFormat(t *testing.T) {
	in := "# comment\n\n1\t2\n3 4\n  5   6  \n"
	g, err := loadEdgeList(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d", g.NumEdges())
	}
	if _, err := loadEdgeList(strings.NewReader("1\n")); err == nil {
		t.Fatal("single-field line accepted")
	}
	if _, err := loadEdgeList(strings.NewReader("a b\n")); err == nil {
		t.Fatal("non-integer accepted")
	}
}

func TestEdgeListFileRoundTrip(t *testing.T) {
	g := sampleDirected()
	path := t.TempDir() + "/edges.tsv"
	writeEdgeListFile(t, path, g)
	back, err := LoadEdgeListParallelFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatalf("file round trip edges = %d", back.NumEdges())
	}
}
