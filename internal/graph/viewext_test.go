package graph

import (
	"slices"
	"testing"
)

func TestViewFromArraysRoundTrip(t *testing.T) {
	v := BuildView(randomDirected(t, 200, 1500, 1))
	ids, outOff, inOff, out, in := v.ViewParts()
	got, err := ViewFromArrays(ids, outOff, inOff, out, in, nil)
	if err != nil {
		t.Fatalf("ViewFromArrays rejected a valid view: %v", err)
	}
	for i := 0; i < v.NumNodes(); i++ {
		if !slices.Equal(v.Out(int32(i)), got.Out(int32(i))) || !slices.Equal(v.In(int32(i)), got.In(int32(i))) {
			t.Fatalf("adjacency of dense %d differs", i)
		}
	}
	// The reconstructed view has no hash map; Index must still resolve
	// every id (binary search) and miss absent ones.
	for _, id := range ids {
		wi, _ := v.Index(id)
		gi, ok := got.Index(id)
		if !ok || wi != gi {
			t.Fatalf("Index(%d) = %d,%v; want %d,true", id, gi, ok, wi)
		}
	}
	if _, ok := got.Index(-5); ok {
		t.Fatalf("Index hit on absent id")
	}
}

func TestViewFromArraysRejectsBadShapes(t *testing.T) {
	v := BuildView(randomDirected(t, 50, 300, 2))
	ids, outOff, inOff, out, in := v.ViewParts()

	badIDs := slices.Clone(ids)
	badIDs[3] = badIDs[2]
	if _, err := ViewFromArrays(badIDs, outOff, inOff, out, in, nil); err == nil {
		t.Fatalf("accepted non-ascending ids")
	}

	badOff := slices.Clone(outOff)
	badOff[0] = 1
	if _, err := ViewFromArrays(ids, badOff, inOff, out, in, nil); err == nil {
		t.Fatalf("accepted offset vector not starting at 0")
	}

	badOut := slices.Clone(out)
	badOut[0] = int32(len(ids)) // out of range
	if _, err := ViewFromArrays(ids, outOff, inOff, badOut, in, nil); err == nil {
		t.Fatalf("accepted out-of-range neighbor")
	}

	if _, err := ViewFromArrays(ids, outOff[:len(outOff)-1], inOff, out, in, nil); err == nil {
		t.Fatalf("accepted short offset vector")
	}
}

func TestProjectUView(t *testing.T) {
	g := randomDirected(t, 150, 900, 3)
	// A few isolated nodes and deletions so the projection sees empty
	// vectors and renumbered dense indices.
	for i := int64(150); i < 160; i++ {
		g.AddNode(i)
	}
	for i := int64(0); i < 30; i += 3 {
		g.DelNode(i)
	}
	v := BuildView(g)
	u := ProjectUView(v)

	if !slices.Equal(v.IDs(), u.IDs()) {
		t.Fatalf("projection changed the id space")
	}
	for i := 0; i < v.NumNodes(); i++ {
		want := map[int32]bool{}
		for _, w := range v.Out(int32(i)) {
			want[w] = true
		}
		for _, w := range v.In(int32(i)) {
			want[w] = true
		}
		adj := u.Adj(int32(i))
		if len(adj) != len(want) {
			t.Fatalf("dense %d: projected degree %d, want %d", i, len(adj), len(want))
		}
		if !slices.IsSorted(adj) {
			t.Fatalf("dense %d: projected adjacency not sorted", i)
		}
		for _, w := range adj {
			if !want[w] {
				t.Fatalf("dense %d: projected neighbor %d not in out/in union", i, w)
			}
		}
	}
}

// csrBytes and csrArrays carry small CSR arrays through the fuzzer, one
// signed byte per entry; id -128 stands for the reserved id.
func csrBytes[T int32 | int64](s []T) []byte {
	b := make([]byte, len(s))
	for i, x := range s {
		b[i] = byte(int8(x))
		if int64(x) == ReservedNodeID {
			b[i] = 0x80
		}
	}
	return b
}

func csrArrays[T int32 | int64](b []byte) []T {
	s := make([]T, len(b))
	for i, x := range b {
		s[i] = T(int8(x))
	}
	return s
}

// FuzzViewFromArrays holds the validation of stored CSR arrays to the
// builders: arrays ViewFromArrays accepts are exactly the view
// BuildViewCols makes of their own out-edges and ids, and an arena
// UViewFromArrays accepts is exactly the view buildUView makes of a
// per-edge graph of its edges. So no accepted array set can hold an
// in-vector that is not the out-vectors' transpose, an asymmetric arena,
// unsorted or repeated neighbors, or the reserved id.
func FuzzViewFromArrays(f *testing.F) {
	add := func(ids, outOff, inOff []int64, out, in []int32) {
		f.Add(csrBytes(ids), csrBytes(outOff), csrBytes(inOff), csrBytes(out), csrBytes(in))
	}
	g := NewDirected()
	for _, e := range [][2]int64{{-3, 4}, {4, -3}, {4, 4}, {4, 9}, {9, -3}} {
		g.AddEdge(e[0], e[1])
	}
	g.AddNode(0)
	add(BuildView(g).ViewParts())
	u := NewUndirectedCap(0)
	for _, e := range [][2]int64{{1, 2}, {2, 3}, {3, 3}, {-5, 1}} {
		u.AddEdge(e[0], e[1])
	}
	u.AddNode(7)
	ids, off, arena := buildUView(u).UViewParts()
	add(ids, off, off, arena, arena)
	// 1->2 forward but 3<-1 backward.
	add([]int64{1, 2, 3}, []int64{0, 1, 1, 1}, []int64{0, 0, 0, 1}, []int32{1}, []int32{0})
	// A repeated edge, in both directions.
	add([]int64{1, 2}, []int64{0, 2, 2}, []int64{0, 0, 2}, []int32{1, 1}, []int32{0, 0})
	add([]int64{ReservedNodeID, 2}, []int64{0, 1, 1}, []int64{0, 0, 1}, []int32{1}, []int32{0})
	add(nil, []int64{0}, []int64{0}, nil, nil)
	f.Fuzz(func(t *testing.T, idb, outOffb, inOffb, outb, inb []byte) {
		ids := csrArrays[int64](idb)
		for i, b := range idb {
			if b == 0x80 {
				ids[i] = ReservedNodeID
			}
		}
		outOff, inOff := csrArrays[int64](outOffb), csrArrays[int64](inOffb)
		out, in := csrArrays[int32](outb), csrArrays[int32](inb)

		if v, err := ViewFromArrays(ids, outOff, inOff, out, in, nil); err == nil {
			var srcs, dsts []int64
			for u := range int32(v.NumNodes()) {
				for _, w := range v.Out(u) {
					srcs, dsts = append(srcs, ids[u]), append(dsts, ids[w])
				}
			}
			ref, err := BuildViewCols(srcs, dsts, ids)
			if err != nil {
				t.Fatalf("accepted arrays BuildViewCols rejects: %v", err)
			}
			rids, routOff, rinOff, rout, rin := ref.ViewParts()
			if !slices.Equal(ids, rids) || !slices.Equal(outOff, routOff) || !slices.Equal(inOff, rinOff) ||
				!slices.Equal(out, rout) || !slices.Equal(in, rin) {
				t.Fatalf("accepted arrays %v %v %v %v %v, BuildViewCols of their edges gives %v %v %v %v %v",
					ids, outOff, inOff, out, in, rids, routOff, rinOff, rout, rin)
			}
		}

		if uv, err := UViewFromArrays(ids, outOff, out, nil); err == nil {
			ref := NewUndirectedCap(0)
			for _, id := range ids {
				ref.AddNode(id)
			}
			for u := range int32(uv.NumNodes()) {
				for _, w := range uv.Adj(u) {
					ref.AddEdge(ids[u], ids[w])
				}
			}
			rids, roff, rarena := buildUView(ref).UViewParts()
			if !slices.Equal(ids, rids) || !slices.Equal(outOff, roff) || !slices.Equal(out, rarena) {
				t.Fatalf("accepted arena %v %v %v, buildUView of its edges gives %v %v %v", ids, outOff, out, rids, roff, rarena)
			}
		}
	})
}
