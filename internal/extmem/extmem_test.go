package extmem

import (
	"bytes"
	"encoding/binary"
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ringo/internal/frame"
	"ringo/internal/gen"
	"ringo/internal/graph"
	"ringo/internal/xhash"
)

// testView builds a directed view with the awkward shapes the format must
// preserve: isolated nodes, ids left unused by deleted nodes, and a node
// with no out-edges but in-edges.
func testView(t testing.TB) *graph.View {
	t.Helper()
	g := gen.GNM(400, 3000, 7)
	deleted := func(id int64) bool { return id < 40 && id%3 == 0 }
	var srcs, dsts, nodes []int64
	for u, id := range g.IDs() {
		if deleted(id) {
			continue
		}
		nodes = append(nodes, id)
		for _, x := range g.Out(int32(u)) {
			if !deleted(g.ID(x)) {
				srcs, dsts = append(srcs, id), append(dsts, g.ID(x))
			}
		}
	}
	for id := int64(400); id < 410; id++ {
		nodes = append(nodes, id) // isolated
	}
	v, err := graph.BuildViewCols(srcs, dsts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return v
}

// testUView is testView's shapes on an undirected preferential-attachment
// graph.
func testUView(t testing.TB) *graph.UView {
	t.Helper()
	g := gen.BarabasiAlbert(300, 3, 11)
	deleted := func(id int64) bool { return id < 30 && id%4 == 0 }
	var srcs, dsts, nodes []int64
	for u, id := range g.IDs() {
		if deleted(id) {
			continue
		}
		nodes = append(nodes, id)
		for _, x := range g.Adj(int32(u)) {
			if !deleted(g.ID(x)) {
				srcs, dsts = append(srcs, id), append(dsts, g.ID(x))
			}
		}
	}
	for id := int64(300); id < 308; id++ {
		nodes = append(nodes, id)
	}
	v, err := graph.BuildViewCols(srcs, dsts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	return graph.ProjectUView(v)
}

func saveTemp(t testing.TB, v *graph.View) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.rngm")
	if err := SaveMapped(path, v); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	return path
}

func sameView(t *testing.T, want, got *graph.View) {
	t.Helper()
	if !slices.Equal(want.IDs(), got.IDs()) {
		t.Fatalf("id vectors differ")
	}
	if want.NumEdges() != got.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", want.NumEdges(), got.NumEdges())
	}
	for i := 0; i < want.NumNodes(); i++ {
		u := int32(i)
		if !slices.Equal(want.Out(u), got.Out(u)) {
			t.Fatalf("out vector of dense %d differs", i)
		}
		if !slices.Equal(want.In(u), got.In(u)) {
			t.Fatalf("in vector of dense %d differs", i)
		}
	}
	for _, id := range want.IDs() {
		wi, _ := want.Index(id)
		gi, ok := got.Index(id)
		if !ok || wi != gi {
			t.Fatalf("Index(%d) = %d,%v; want %d,true", id, gi, ok, wi)
		}
	}
	if _, ok := got.Index(1 << 40); ok {
		t.Fatalf("Index hit on absent id")
	}
}

func TestRoundTripDirected(t *testing.T) {
	v := testView(t)
	path := saveTemp(t, v)
	g, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if g.Kind() != "directed" || g.View() == nil || g.UView() != nil {
		t.Fatalf("wrong shape: kind=%q view=%v uview=%v", g.Kind(), g.View() != nil, g.UView() != nil)
	}
	if mmapSupported != g.Mapped() {
		t.Fatalf("Mapped() = %v, platform support = %v", g.Mapped(), mmapSupported)
	}
	if g.Bytes() <= 0 {
		t.Fatalf("Bytes() = %d", g.Bytes())
	}
	sameView(t, v, g.View())
}

func TestRoundTripUndirected(t *testing.T) {
	u := testUView(t)
	path := filepath.Join(t.TempDir(), "u.rngm")
	if err := SaveMappedUndirected(path, u); err != nil {
		t.Fatalf("SaveMappedUndirected: %v", err)
	}
	g, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer g.Close()
	if g.Kind() != "undirected" || g.UView() == nil {
		t.Fatalf("wrong shape: kind=%q", g.Kind())
	}
	got := g.UView()
	if !slices.Equal(u.IDs(), got.IDs()) {
		t.Fatalf("id vectors differ")
	}
	if u.NumEdges() != got.NumEdges() {
		t.Fatalf("edge counts differ: %d vs %d", u.NumEdges(), got.NumEdges())
	}
	for i := 0; i < u.NumNodes(); i++ {
		if !slices.Equal(u.Adj(int32(i)), got.Adj(int32(i))) {
			t.Fatalf("adjacency of dense %d differs", i)
		}
	}
}

func TestRoundTripEmpty(t *testing.T) {
	g, err := graph.BuildViewCols(nil, nil, nil)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "empty.rngm")
	if err := SaveMapped(path, g); err != nil {
		t.Fatalf("SaveMapped: %v", err)
	}
	m, err := Open(path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer m.Close()
	if m.NumNodes() != 0 || m.NumEdges() != 0 {
		t.Fatalf("empty image decoded to %d nodes, %d edges", m.NumNodes(), m.NumEdges())
	}
}

func TestFallbackMatchesMapped(t *testing.T) {
	v := testView(t)
	path := saveTemp(t, v)
	g, err := Read(path)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	defer g.Close()
	if g.Mapped() {
		t.Fatalf("fallback image reports Mapped()")
	}
	sameView(t, v, g.View())
}

func TestOpenMappedWithoutSupportNamesError(t *testing.T) {
	if mmapSupported {
		t.Skip("platform has mmap; the gate is exercised on !(linux||darwin) builds")
	}
	_, err := OpenMapped(saveTemp(t, testView(t)))
	if !errors.Is(err, ErrNoMmap) {
		t.Fatalf("err = %v, want ErrNoMmap", err)
	}
}

// fixChecksums recomputes the section checksums and header checksum after a
// test mutates payload or table bytes, so corruption tests can target one
// specific validation layer at a time.
func fixChecksums(data []byte) {
	nsections := int(binary.LittleEndian.Uint64(data[32:]))
	for i := 0; i < nsections; i++ {
		ent := data[fixedHeaderLen+i*sectionEntryLen:]
		off := binary.LittleEndian.Uint64(ent)
		length := binary.LittleEndian.Uint64(ent[8:])
		if off+length <= uint64(len(data)) {
			binary.LittleEndian.PutUint64(ent[16:], xhash.Checksum64(data[off:off+length]))
		}
	}
	hdr := headerLen(nsections)
	binary.LittleEndian.PutUint64(data[hdr-8:], xhash.Checksum64(data[:hdr-8]))
}

func TestOpenRejectsCorruption(t *testing.T) {
	v := testView(t)
	good, err := os.ReadFile(saveTemp(t, v))
	if err != nil {
		t.Fatal(err)
	}

	cases := []struct {
		name   string
		mutate func(b []byte) []byte
		want   string
	}{
		{"empty file", func(b []byte) []byte { return nil }, "empty file"},
		{"truncated header", func(b []byte) []byte { return b[:20] }, "truncated header"},
		{"bad magic", func(b []byte) []byte { b[0] = 'X'; return b }, "not a mapped graph"},
		{"bad version", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[4:], 99)
			fixChecksums(b)
			return b
		}, "unsupported RNGM version 99"},
		{"bad kind", func(b []byte) []byte {
			binary.LittleEndian.PutUint32(b[8:], 7)
			return b
		}, "unknown graph kind"},
		{"absurd node count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[16:], 1<<50)
			fixChecksums(b)
			return b
		}, "implausible header counts"},
		{"wrong section count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[32:], 2)
			return b
		}, "claims 2 sections"},
		{"header bit rot", func(b []byte) []byte { b[17] ^= 1; return b }, "header checksum mismatch"},
		{"lying edge count", func(b []byte) []byte {
			binary.LittleEndian.PutUint64(b[24:], binary.LittleEndian.Uint64(b[24:])+1)
			fixChecksums(b)
			return b
		}, "disagrees with header counts"},
		{"misaligned section offset", func(b []byte) []byte {
			ent := b[fixedHeaderLen:]
			binary.LittleEndian.PutUint64(ent, binary.LittleEndian.Uint64(ent)+8)
			fixChecksums(b)
			return b
		}, "misaligned or out of range"},
		{"overlapping sections", func(b []byte) []byte {
			// Point section 1 at section 0's offset.
			e0 := binary.LittleEndian.Uint64(b[fixedHeaderLen:])
			binary.LittleEndian.PutUint64(b[fixedHeaderLen+sectionEntryLen:], e0)
			fixChecksums(b)
			return b
		}, "overlaps preceding bytes"},
		{"section past file end", func(b []byte) []byte { return b[:len(b)-16] }, "extends past file end"},
		{"payload bit rot", func(b []byte) []byte {
			b[len(b)-1] ^= 1
			hdr := headerLen(5)
			binary.LittleEndian.PutUint64(b[hdr-8:], xhash.Checksum64(b[:hdr-8]))
			return b
		}, "checksum mismatch"},
		{"neighbor out of range", func(b []byte) []byte {
			// Last int32 of the final section is an in-neighbor index.
			binary.LittleEndian.PutUint32(b[len(b)-4:], 1<<30)
			fixChecksums(b)
			return b
		}, "outside [0,"},
		{"unsorted neighbors", func(b []byte) []byte {
			// Reverse a node's in-vector by swapping its first two entries
			// (dense node picked so its in-degree is >= 2 and ascending).
			ent := b[fixedHeaderLen+4*sectionEntryLen:]
			off := binary.LittleEndian.Uint64(ent)
			for at := off; at+8 <= off+binary.LittleEndian.Uint64(ent[8:]); at += 4 {
				a := binary.LittleEndian.Uint32(b[at:])
				c := binary.LittleEndian.Uint32(b[at+4:])
				if a < c {
					binary.LittleEndian.PutUint32(b[at:], c)
					binary.LittleEndian.PutUint32(b[at+4:], a)
					break
				}
			}
			fixChecksums(b)
			return b
		}, "not sorted"},
	}

	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			mutated := tc.mutate(slices.Clone(good))
			path := filepath.Join(t.TempDir(), "bad.rngm")
			if err := os.WriteFile(path, mutated, 0o644); err != nil {
				t.Fatal(err)
			}
			g, err := Open(path)
			if err == nil {
				g.Close()
				t.Fatalf("Open accepted corrupt image")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// TestOpenRejectsInconsistentCSR: images whose every checksum is valid and
// whose arrays are each well formed, but whose in-vectors are not the
// transpose of the out-vectors or whose undirected arena is not symmetric,
// are refused with the edge named.
func TestOpenRejectsInconsistentCSR(t *testing.T) {
	i32 := func(s ...int32) []byte { return frame.Image(s) }
	i64 := func(s ...int64) []byte { return frame.Image(s) }
	ids := i64(1, 2, 3)
	for _, tc := range []struct {
		name string
		kind uint32
		secs [][]byte
		want string
	}{
		// 1->2 stored forward, but backward as 3<-1.
		{"in is not out's transpose", kindDirected,
			[][]byte{ids, i64(0, 1, 1, 1), i64(0, 0, 0, 1), i32(1), i32(0)},
			"edge 1->2 has no matching reverse entry"},
		// 1->2 and 2->3 forward, but backward both under 2, as 2<-1, 2<-2.
		{"in splits at the wrong node", kindDirected,
			[][]byte{ids, i64(0, 1, 2, 2), i64(0, 0, 2, 2), i32(1, 2), i32(0, 1)},
			"edge 2->3 has no matching reverse entry"},
		// {1,2} in 1's vector only.
		{"asymmetric arena", kindUndirected,
			[][]byte{ids, i64(0, 1, 1, 1), i32(1)},
			"edge 1->2 has no matching reverse entry"},
		// {1,2} in 2's vector only.
		{"asymmetric arena, back half", kindUndirected,
			[][]byte{ids, i64(0, 0, 1, 1), i32(0)},
			"edge 2->1 has no matching reverse entry"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.rngm")
			e := uint64(len(tc.secs[len(tc.secs)-1]) / 4)
			if err := save(path, tc.kind, 3, e, tc.secs); err != nil {
				t.Fatal(err)
			}
			g, err := Open(path)
			if err == nil {
				g.Close()
				t.Fatal("Open accepted an inconsistent image")
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want substring %q", err, tc.want)
			}
		})
	}
}

// FuzzOpenMapped feeds arbitrary bytes to the mapped loader: it must reject
// or serve them without panicking, and anything it serves must satisfy the
// view invariants it claims to validate.
func FuzzOpenMapped(f *testing.F) {
	dirBytes, err := os.ReadFile(saveTemp(f, testView(f)))
	if err != nil {
		f.Fatal(err)
	}
	u := testUView(f)
	upath := filepath.Join(f.TempDir(), "u.rngm")
	if err := SaveMappedUndirected(upath, u); err != nil {
		f.Fatal(err)
	}
	undirBytes, err := os.ReadFile(upath)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(dirBytes)
	f.Add(undirBytes)
	f.Add(dirBytes[:len(dirBytes)/2])
	f.Add([]byte(Magic))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.rngm")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		g, err := Open(path)
		if err != nil {
			return
		}
		defer g.Close()
		// Whatever the loader accepted must be traversable end to end.
		if v := g.View(); v != nil {
			for i := 0; i < v.NumNodes(); i++ {
				for _, w := range v.Out(int32(i)) {
					_ = v.In(w)
				}
			}
		}
		if uv := g.UView(); uv != nil {
			for i := 0; i < uv.NumNodes(); i++ {
				for _, w := range uv.Adj(int32(i)) {
					_ = uv.Deg(w)
				}
			}
		}
	})
}

// TestMappedGolden holds both RNGM variants to bytes an earlier writer
// produced for small graphs with a self-loop and an isolated node: each
// view saves to exactly those bytes, and the bytes open to an equal view.
func TestMappedGolden(t *testing.T) {
	v, err := graph.BuildViewCols([]int64{1, 2, 3, 2}, []int64{2, 3, 1, 2}, []int64{9})
	if err != nil {
		t.Fatal(err)
	}
	ud, err := graph.BuildViewCols([]int64{1, 2, 3}, []int64{2, 3, 3}, []int64{9})
	if err != nil {
		t.Fatal(err)
	}
	uv := graph.ProjectUView(ud)
	dir := t.TempDir()
	for _, tc := range []struct {
		golden string
		save   func(path string) error
		check  func(m *Graph)
	}{
		{"testdata/directed.rngm", func(p string) error { return SaveMapped(p, v) },
			func(m *Graph) { sameView(t, v, m.View()) }},
		{"testdata/undirected.rngm", func(p string) error { return SaveMappedUndirected(p, uv) },
			func(m *Graph) {
				got := m.UView()
				if got == nil || !slices.Equal(got.IDs(), uv.IDs()) || got.NumEdges() != uv.NumEdges() {
					t.Fatalf("undirected golden opens to a different graph")
				}
				for i := 0; i < uv.NumNodes(); i++ {
					if !slices.Equal(got.Adj(int32(i)), uv.Adj(int32(i))) {
						t.Fatalf("adjacency of dense %d differs", i)
					}
				}
			}},
	} {
		want, err := os.ReadFile(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, filepath.Base(tc.golden))
		if err := tc.save(path); err != nil {
			t.Fatal(err)
		}
		if got, err := os.ReadFile(path); err != nil || !bytes.Equal(got, want) {
			t.Fatalf("%s: saved image differs from the golden bytes (%v)", tc.golden, err)
		}
		m, err := Open(tc.golden)
		if err != nil {
			t.Fatal(err)
		}
		tc.check(m)
		m.Close()
	}
}

// TestOpenRefusesVersion1: a version-1 image, whose checksums were
// byte-serial FNV-1a, fails by its version even behind valid checksums.
func TestOpenRefusesVersion1(t *testing.T) {
	b, err := os.ReadFile(saveTemp(t, testView(t)))
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint32(b[4:], 1)
	fixChecksums(b)
	path := filepath.Join(t.TempDir(), "v1.rngm")
	if err := os.WriteFile(path, b, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "unsupported RNGM version 1") {
		t.Fatalf("version-1 image: error %v", err)
	}
}

// TestSniff: an image sniffs as Magic, any other file as its first four
// bytes, and a file that is missing or shorter than a magic as "".
func TestSniff(t *testing.T) {
	dir := t.TempDir()
	write := func(name, body string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	for _, tc := range []struct{ path, want string }{
		{saveTemp(t, testView(t)), Magic},
		{write("text", "1\t2\n3\t4\n"), "1\t2\n"},
		{write("short", "RNG"), ""},
		{filepath.Join(dir, "missing"), ""},
	} {
		if got := Sniff(tc.path); got != tc.want {
			t.Errorf("Sniff(%s) = %q, want %q", filepath.Base(tc.path), got, tc.want)
		}
	}
}
