package graph

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"
)

// perEdgeDirected is the reference the bulk builders answer to: one
// AddEdge per column pair, then one AddNode per declared node.
func perEdgeDirected(srcs, dsts, nodes []int64) *Directed {
	g := NewDirected()
	for i := range srcs {
		g.AddEdge(srcs[i], dsts[i])
	}
	for _, id := range nodes {
		g.AddNode(id)
	}
	return g
}

// identicalViews compares two views array for array, capacities included, so
// View.Bytes agrees too.
func identicalViews(a, b *View) error {
	for _, c := range []struct {
		name string
		x, y []int64
	}{{"ids", a.ids, b.ids}, {"outOff", a.outOff, b.outOff}, {"inOff", a.inOff, b.inOff}} {
		if !slices.Equal(c.x, c.y) {
			return fmt.Errorf("%s differ: %v vs %v", c.name, c.x, c.y)
		}
	}
	if !slices.Equal(a.out, b.out) || !slices.Equal(a.in, b.in) {
		return fmt.Errorf("arrays differ: out %v / %v, in %v / %v", a.out, b.out, a.in, b.in)
	}
	if a.Bytes() != b.Bytes() {
		return fmt.Errorf("bytes differ: %d vs %d", a.Bytes(), b.Bytes())
	}
	return nil
}

// checkBuildViewCols holds BuildViewCols and its thaw to the per-edge
// reference: the view equals BuildView of the reference, and FromView is
// a valid graph with the reference's node set and vectors, its slots in
// ascending id order.
func checkBuildViewCols(t *testing.T, srcs, dsts, nodes []int64) {
	t.Helper()
	v, err := BuildViewCols(srcs, dsts, nodes)
	if slices.Contains(slices.Concat(srcs, dsts, nodes), ReservedNodeID) {
		want := fmt.Sprintf("graph: node id %d reserved", int64(ReservedNodeID))
		if err == nil || err.Error() != want {
			t.Fatalf("reserved id: got error %v, want %q", err, want)
		}
		if len(nodes) == 0 {
			if _, err := BuildDirectedCols(srcs, dsts); err == nil || err.Error() != want {
				t.Fatalf("reserved id: BuildDirectedCols error %v, want %q", err, want)
			}
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	ref := perEdgeDirected(srcs, dsts, nodes)
	if err := identicalViews(v, BuildView(ref)); err != nil {
		t.Fatalf("BuildViewCols != BuildView(per-edge): %v", err)
	}
	g := FromView(v)
	if err := g.Validate(); err != nil {
		t.Fatalf("FromView: %v", err)
	}
	if err := sameDirected(g, ref); err != nil {
		t.Fatalf("FromView != per-edge graph: %v", err)
	}
	if !slices.Equal(g.ids, v.ids) {
		t.Fatal("FromView slots are not in ascending id order")
	}
}

func TestBuildViewColsMatchesPerEdge(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	cases := map[string]func() int64{
		"dense":    func() int64 { return rng.Int63n(300) },                              // bitmap arm
		"negative": func() int64 { return rng.Int63n(300) - 150 },                        // bitmap arm across zero
		"sparse":   func() int64 { return rng.Int63() - rng.Int63() },                    // sort arm
		"extremes": func() int64 { return []int64{-1 << 62, 3, 1<<63 - 1}[rng.Intn(3)] }, // widest span
	}
	for name, id := range cases {
		t.Run(name, func(t *testing.T) {
			for _, m := range []int{0, 1, 2, 17, 1000, 5000} {
				srcs, dsts := make([]int64, m), make([]int64, m)
				for i := range srcs {
					srcs[i], dsts[i] = id(), id()
					switch rng.Intn(8) {
					case 0:
						dsts[i] = srcs[i] // self-loop
					case 1:
						if i > 0 {
							srcs[i], dsts[i] = srcs[i-1], dsts[i-1] // duplicate
						}
					}
				}
				checkBuildViewCols(t, srcs, dsts, nil)
				// Declared nodes inside the edge span (most of them
				// endpoints, some repeated) and outside it, on both sides:
				// the outside ones widen the span past the bitmap arm's
				// bound at the small sizes.
				nodes := make([]int64, m/4+3)
				for i := range nodes {
					switch rng.Intn(4) {
					case 0:
						nodes[i] = -1000 - rng.Int63n(50)
					case 1:
						nodes[i] = 1000 + rng.Int63n(50)
					default:
						nodes[i] = id()
					}
				}
				checkBuildViewCols(t, srcs, dsts, nodes)
			}
		})
	}
	checkBuildViewCols(t, nil, nil, []int64{5, -5, 5})
	checkBuildViewCols(t, []int64{1, ReservedNodeID}, []int64{2, 3}, nil)
	checkBuildViewCols(t, []int64{1, 2}, []int64{ReservedNodeID, 3}, nil)
	checkBuildViewCols(t, []int64{1, 2}, []int64{2, 3}, []int64{4, ReservedNodeID})
	if _, err := BuildViewCols([]int64{1}, nil, nil); err == nil {
		t.Fatal("column length mismatch accepted")
	}
}
