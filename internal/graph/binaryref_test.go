package graph

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"testing"

	"ringo/internal/frame"
)

// The hash-of-nodes RNGO decoder LoadBinary replaced, kept as its oracle:
// a map from id to record, the in-vectors rebuilt from the out-vectors,
// the per-node vectors adopted by a bulk assembly and the result checked
// by Validate. Records out of ascending id order pass it whenever the
// rebuilt in-vectors still come out sorted, where LoadBinary rejects them
// all; on ascending ids the two accept the same bytes and build the same
// graph (FuzzLoadBinary).

// LoadBinaryHash is the reference decoder; it is exported to this
// package's external tests, where BenchmarkLoadBinary times it.
func LoadBinaryHash(r io.Reader) (*Directed, error) {
	a, err := loadRecords(r)
	if err != nil {
		return nil, err
	}
	ids := a.ids
	outs := make([][]int64, len(ids))
	for i := range outs {
		outs[i] = a.vec(i)
	}
	idx := make(map[int64]int, len(ids))
	for i, id := range ids {
		if id == tombstone {
			return nil, fmt.Errorf("graph: node id %d reserved", int64(tombstone))
		}
		idx[id] = i
	}
	inDeg := make([]int, len(ids))
	held := uint64(0)
	for i, out := range outs {
		held += uint64(len(out))
		for _, dst := range out {
			j, ok := idx[dst]
			if !ok {
				return nil, fmt.Errorf("graph: edge %d->%d targets unknown node", ids[i], dst)
			}
			inDeg[j]++
		}
	}
	if held != a.edges {
		return nil, fmt.Errorf("graph: header claims %d edges, vectors hold %d", a.edges, held)
	}
	ins := make([][]int64, len(ids))
	for j, d := range inDeg {
		if d > 0 {
			ins[j] = make([]int64, 0, d)
		}
	}
	for i, id := range ids {
		for _, dst := range outs[i] {
			j := idx[dst]
			ins[j] = append(ins[j], id)
		}
	}
	// Sorted in-vectors only when the records come in ascending id order;
	// Validate rejects the rest.
	g, err := buildDirectedBulk(ids, ins, outs)
	if err != nil {
		return nil, err
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("graph: binary file inconsistent: %w", err)
	}
	return g, nil
}

// buildDirectedBulk assembles a directed graph from per-node pre-sorted
// adjacency vectors. ids must be duplicate-free, and in/out[i] must be the
// sorted, duplicate-free neighbor vectors of ids[i]; the total edge count
// is taken from the out-vectors. The vectors are adopted, not copied.
func buildDirectedBulk(ids []int64, in, out [][]int64) (*Directed, error) {
	if len(ids) != len(in) || len(ids) != len(out) {
		return nil, fmt.Errorf("graph: bulk build length mismatch: %d ids, %d in, %d out",
			len(ids), len(in), len(out))
	}
	g := NewDirectedCap(len(ids))
	for _, id := range ids {
		if !g.AddNode(id) {
			return nil, fmt.Errorf("graph: bulk build duplicate node %d", id)
		}
	}
	for i, id := range ids {
		g.setAdjBulk(id, in[i], out[i])
	}
	return g, nil
}

// Validate checks the structural invariants of a directed graph: adjacency
// vectors sorted and duplicate-free, in/out vectors mutually consistent,
// and the edge count correct. Tests and property checks call it after
// mutation sequences.
func (g *Directed) Validate() error {
	var edges int64
	for s, id := range g.ids {
		if id == tombstone {
			continue
		}
		if got, ok := g.idx[id]; !ok || got != int32(s) {
			return fmt.Errorf("graph: node %d slot mapping broken", id)
		}
		for i, v := range g.outAdj[s] {
			if i > 0 && g.outAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d out-vector not strictly sorted", id)
			}
			ds, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", id, v)
			}
			if _, found := binarySearch(g.inAdj[ds], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from in-vector", id, v)
			}
		}
		for i, v := range g.inAdj[s] {
			if i > 0 && g.inAdj[s][i-1] >= v {
				return fmt.Errorf("graph: node %d in-vector not strictly sorted", id)
			}
			ss, ok := g.idx[v]
			if !ok {
				return fmt.Errorf("graph: edge %d->%d points at missing node", v, id)
			}
			if _, found := binarySearch(g.outAdj[ss], id); !found {
				return fmt.Errorf("graph: edge %d->%d missing from out-vector", v, id)
			}
		}
		edges += int64(len(g.outAdj[s]))
	}
	if edges != g.nEdges {
		return fmt.Errorf("graph: edge count %d, vectors hold %d", g.nEdges, edges)
	}
	return nil
}

// rngo encodes records the way SaveBinary lays them out, in the order
// given, so a test can write node records SaveBinary never would.
func rngo(edges int, recs ...[]int64) []byte {
	var buf bytes.Buffer
	fw := frame.NewWriter(&buf)
	fw.Header(binaryMagic, binaryVersion)
	fw.U64(uint64(len(recs)))
	fw.U64(uint64(edges))
	for _, r := range recs {
		fw.U64(uint64(r[0]))
		fw.U32(uint32(len(r) - 1))
		fw.Int64s(r[1:])
	}
	if err := fw.Flush(); err != nil {
		panic(err)
	}
	return buf.Bytes()
}

// FuzzLoadBinary holds LoadBinary to the hash reference: on records in
// ascending id order both accept or both reject the bytes, and an
// accepted view thaws to the reference graph and equals its BuildView
// array for array; records out of ascending order are rejected.
func FuzzLoadBinary(f *testing.F) {
	golden, err := os.ReadFile("testdata/directed.rngo")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(golden)
	f.Add(golden[:len(golden)/2])
	f.Add(rngo(0))
	f.Add(rngo(3, []int64{-4, -4, 9}, []int64{0}, []int64{9, -4}))
	f.Add(rngo(2, []int64{5, 1}, []int64{1, 5}))             // descending ids
	f.Add(rngo(2, []int64{1, 1}, []int64{1}))                // repeated id
	f.Add(rngo(2, []int64{1, 3, 2}, []int64{2}, []int64{3})) // unsorted vector
	f.Add(rngo(2, []int64{1, 2, 2}, []int64{2}))             // repeated neighbor
	f.Add(rngo(1, []int64{1, 7}))                            // unknown target
	f.Add(rngo(1, []int64{tombstone, 1}, []int64{1}))        // reserved node
	f.Add(rngo(1, []int64{1, tombstone}))                    // reserved target
	f.Add(rngo(2, []int64{1, 2}, []int64{2, 1}, []int64{3})) // isolated node
	f.Fuzz(func(t *testing.T, data []byte) {
		v, err := LoadBinary(bytes.NewReader(data))
		if a, ferr := loadRecords(bytes.NewReader(data)); ferr == nil && checkIDs(a.ids) != nil {
			if err == nil {
				t.Fatal("records out of ascending id order accepted")
			}
			return
		}
		ref, refErr := LoadBinaryHash(bytes.NewReader(data))
		if (err == nil) != (refErr == nil) {
			t.Fatalf("decoders disagree: view %v, hash %v", err, refErr)
		}
		if err != nil {
			return
		}
		if err := sameDirected(FromView(v), ref); err != nil {
			t.Fatalf("thawed view != reference: %v", err)
		}
		if err := identicalViews(v, BuildView(ref)); err != nil {
			t.Fatalf("view != BuildView(reference): %v", err)
		}
	})
}

func binarySearch(a []int64, v int64) (int, bool) {
	lo, hi := 0, len(a)
	for lo < hi {
		mid := (lo + hi) / 2
		if a[mid] < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo, lo < len(a) && a[lo] == v
}
