package graph

import (
	"bytes"
	"os"
	"slices"
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
	if err := back.Validate(); err != nil {
		t.Fatal(err)
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

func sampleUndirectedBinary() *Undirected {
	u := NewUndirectedCap(0)
	u.AddEdge(1, 2)
	u.AddEdge(2, 3)
	u.AddEdge(3, 1)
	u.AddEdge(4, 4) // self-loop survives
	u.AddNode(99)   // isolated node survives
	return u
}

func TestBinaryUndirectedRoundTrip(t *testing.T) {
	u := sampleUndirectedBinary()
	var buf bytes.Buffer
	if err := SaveBinaryUndirected(&buf, u); err != nil {
		t.Fatal(err)
	}
	back, err := LoadBinaryUndirected(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if back.NumNodes() != u.NumNodes() || back.NumEdges() != u.NumEdges() {
		t.Fatalf("round trip dims = (%d,%d), want (%d,%d)",
			back.NumNodes(), back.NumEdges(), u.NumNodes(), u.NumEdges())
	}
	u.ForEdges(func(src, dst int64) {
		if !back.HasEdge(src, dst) {
			t.Fatalf("lost edge {%d,%d}", src, dst)
		}
	})
	if !back.HasNode(99) {
		t.Fatal("lost isolated node")
	}
	if err := back.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestBinaryUndirectedRejectsCorruption(t *testing.T) {
	u := sampleUndirectedBinary()
	var buf bytes.Buffer
	if err := SaveBinaryUndirected(&buf, u); err != nil {
		t.Fatal(err)
	}
	good := buf.Bytes()
	// Directed magic must not load as undirected and vice versa.
	if _, err := LoadBinaryUndirected(strings.NewReader("RNGO\x01\x00\x00\x00")); err == nil {
		t.Fatal("directed magic accepted as undirected")
	}
	for _, cut := range []int{2, 6, 20, len(good) - 1} {
		if _, err := LoadBinaryUndirected(bytes.NewReader(good[:cut])); err == nil {
			t.Fatalf("truncation at %d accepted", cut)
		}
	}
	mangled := append([]byte(nil), good...)
	for i := 8; i < 16; i++ {
		mangled[i] = 0xff
	}
	if _, err := LoadBinaryUndirected(bytes.NewReader(mangled)); err == nil {
		t.Fatal("absurd node count accepted")
	}
	mangled = append([]byte(nil), good...)
	mangled[16]++ // header edge count no longer matches the vectors
	if _, err := LoadBinaryUndirected(bytes.NewReader(mangled)); err == nil {
		t.Fatal("edge count mismatch accepted")
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

	// An undirected binary file must produce a clear mismatch error, not a
	// baffling text-parse failure.
	u := sampleUndirectedBinary()
	uPath := dir + "/u.rngu"
	f, err := os.Create(uPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveBinaryUndirected(f, u); err != nil {
		t.Fatal(err)
	}
	f.Close()
	_, err = LoadFileAuto(uPath)
	if err == nil || !strings.Contains(err.Error(), "undirected") {
		t.Fatalf("undirected binary through LoadFileAuto: %v", err)
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
// node beside ordinary edges. sampleUndirectedBinary is the RNGU one.
func goldenDirected() *Directed {
	g := sampleDirected()
	g.AddEdge(20, 20)
	g.AddNode(99)
	return g
}

// TestBinaryGolden holds both graph codecs to bytes an earlier encoder
// wrote: each fixture encodes to exactly those bytes, and they decode to a
// graph equal to the fixture.
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

	rngu, err := os.ReadFile("testdata/undirected.rngu")
	if err != nil {
		t.Fatal(err)
	}
	u := sampleUndirectedBinary()
	buf.Reset()
	if err := SaveBinaryUndirected(&buf, u); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(buf.Bytes(), rngu) {
		t.Fatalf("RNGU encoding differs from the golden bytes:\n got %x\nwant %x", buf.Bytes(), rngu)
	}
	ub, err := LoadBinaryUndirected(bytes.NewReader(rngu))
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(ub.Nodes(), u.Nodes()) || ub.NumEdges() != u.NumEdges() {
		t.Fatalf("RNGU decodes to %d nodes, %d edges; want %d, %d", ub.NumNodes(), ub.NumEdges(), u.NumNodes(), u.NumEdges())
	}
	for _, id := range u.Nodes() {
		if !slices.Equal(ub.Neighbors(id), u.Neighbors(id)) {
			t.Fatalf("RNGU neighbors of %d = %v, want %v", id, ub.Neighbors(id), u.Neighbors(id))
		}
	}
}
