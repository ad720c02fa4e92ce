package graph

import (
	"bytes"
	"os"
	"strings"
	"testing"
	"testing/quick"
)

func TestBinaryRoundTrip(t *testing.T) {
	g := sampleDirected()
	g.AddNode(99) // isolated node survives
	var buf bytes.Buffer
	if err := SaveBinary(&buf, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	v, err := LoadBinary(&buf)
	if err != nil {
		t.Fatal(err)
	}
	back := FromView(v)
	if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip dims = (%d,%d)", back.NumNodes(), back.NumEdges())
	}
	g.ForEdges(func(src, dst int64) {
		if !back.HasEdge(src, dst) {
			t.Fatalf("lost edge %d->%d", src, dst)
		}
	})
	if !back.HasNode(99) {
		t.Fatal("lost isolated node")
	}
}

func TestBinaryRejectsGarbage(t *testing.T) {
	if _, err := LoadBinary(strings.NewReader("not a graph at all")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := LoadBinary(strings.NewReader("RN")); err == nil {
		t.Fatal("truncated magic accepted")
	}
	// Correct magic, truncated header.
	if _, err := LoadBinary(strings.NewReader("RNGO\x01\x00")); err == nil {
		t.Fatal("truncated header accepted")
	}
	// Wrong version.
	if _, err := LoadBinary(strings.NewReader("RNGO\x63\x00\x00\x00")); err == nil {
		t.Fatal("future version accepted")
	}
}

func TestBinaryTruncatedBody(t *testing.T) {
	g := sampleDirected()
	var buf bytes.Buffer
	if err := SaveBinary(&buf, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	for _, cut := range []int{len(data) - 1, len(data) / 2, 20} {
		if _, err := LoadBinary(bytes.NewReader(data[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
}

func TestBinaryFileRoundTrip(t *testing.T) {
	g := sampleDirected()
	path := t.TempDir() + "/g.rngo"
	if err := SaveBinaryFile(path, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	back, err := LoadFileAuto(path)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumEdges() != g.NumEdges() {
		t.Fatal("file round trip edges")
	}
}

// TestBinaryRejectsMangledBuffers corrupts a valid binary graph in targeted
// ways — absurd counts, over-declared degrees, out-of-range edge targets —
// and requires a clean error (no panic, no huge allocation) for each.
func TestBinaryRejectsMangledBuffers(t *testing.T) {
	g := sampleDirected()
	var buf bytes.Buffer
	if err := SaveBinary(&buf, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Offsets into the fixed-size header: magic[0:4] version[4:8]
	// nodeCount[8:16] edgeCount[16:24], then the first node record:
	// id[24:32] degree[32:36].
	cases := []struct {
		name    string
		mangle  func(b []byte)
		wantSub string
	}{
		{"absurd node count", func(b []byte) {
			for i := 8; i < 16; i++ {
				b[i] = 0xff
			}
		}, "implausible node count"},
		{"absurd edge count", func(b []byte) {
			for i := 16; i < 24; i++ {
				b[i] = 0xff
			}
		}, "implausible edge count"},
		{"node count beyond stream", func(b []byte) {
			b[8], b[9] = 0xff, 0xff // claims 65535 nodes; stream has far fewer
		}, ""},
		{"degree beyond edge budget", func(b []byte) {
			b[32], b[33] = 0xff, 0xff // first node claims degree 65535
		}, "unclaimed"},
		{"edge count vs vectors mismatch", func(b []byte) {
			b[16]++ // one more edge than the vectors hold
		}, "vectors hold"},
		{"edge to unknown node", func(b []byte) {
			// First neighbor id lives at [36:44]; point it at a node id
			// that does not exist.
			b[36], b[37] = 0x7f, 0x7f
		}, "unknown node"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mangled := append([]byte(nil), good...)
			tc.mangle(mangled)
			_, err := LoadBinary(bytes.NewReader(mangled))
			if err == nil {
				t.Fatal("mangled buffer accepted")
			}
			if tc.wantSub != "" && !strings.Contains(err.Error(), tc.wantSub) {
				t.Fatalf("error %q does not mention %q", err, tc.wantSub)
			}
		})
	}
}

func TestLoadFileAuto(t *testing.T) {
	g := sampleDirected()
	dir := t.TempDir()

	binPath := dir + "/g.rngo"
	if err := SaveBinaryFile(binPath, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	fromBin, err := LoadFileAuto(binPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromBin.NumEdges() != g.NumEdges() {
		t.Fatalf("binary auto-load edges = %d, want %d", fromBin.NumEdges(), g.NumEdges())
	}

	txtPath := dir + "/g.txt"
	writeEdgeListFile(t, txtPath, g)
	fromTxt, err := LoadFileAuto(txtPath)
	if err != nil {
		t.Fatal(err)
	}
	if fromTxt.NumEdges() != g.NumEdges() {
		t.Fatalf("edge-list auto-load edges = %d, want %d", fromTxt.NumEdges(), g.NumEdges())
	}

	if _, err := LoadFileAuto(dir + "/missing"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestBinaryRoundTripProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		g := NewDirected()
		for _, e := range edges {
			g.AddEdge(int64(e[0]%32), int64(e[1]%32))
		}
		var buf bytes.Buffer
		if err := SaveBinary(&buf, BuildView(g)); err != nil {
			return false
		}
		v, err := LoadBinary(&buf)
		if err != nil {
			return false
		}
		back := FromView(v)
		if back.NumNodes() != g.NumNodes() || back.NumEdges() != g.NumEdges() {
			return false
		}
		ok := true
		g.ForEdges(func(src, dst int64) {
			if !back.HasEdge(src, dst) {
				ok = false
			}
		})
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// goldenDirected is the RNGO golden fixture: a self-loop and an isolated
// node beside ordinary edges.
func goldenDirected() *Directed {
	g := sampleDirected()
	g.AddEdge(20, 20)
	g.AddNode(99)
	return g
}

// TestBinaryGolden holds the RNGO codec to bytes an earlier encoder wrote:
// the fixture encodes to exactly those bytes, and they decode to a view
// equal to the fixture's.
func TestBinaryGolden(t *testing.T) {
	golden, err := os.ReadFile("testdata/directed.rngo")
	if err != nil {
		t.Fatal(err)
	}
	g := goldenDirected()
	var buf bytes.Buffer
	if err := SaveBinary(&buf, BuildView(g)); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), golden) {
		t.Fatalf("RNGO encoding differs from the golden bytes:\n got %x\nwant %x", buf.Bytes(), golden)
	}
	back, err := LoadBinary(bytes.NewReader(golden))
	if err != nil {
		t.Fatal(err)
	}
	if err := identicalViews(back, BuildView(g)); err != nil {
		t.Fatal(err)
	}
}
