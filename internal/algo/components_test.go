package algo

import (
	"maps"
	"slices"
	"testing"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

// wccBFS is the weak-component oracle: a breadth-first search over both
// edge directions from each unlabelled node in ascending id order, so
// components are numbered by their smallest node id, as WCCView numbers
// them by their first dense index. It returns the labels by node id, the
// count and the largest size.
func wccBFS(srcs, dsts, nodes []int64) (label map[int64]int, count, maxSize int) {
	adj := map[int64][]int64{}
	for _, id := range nodes {
		if _, ok := adj[id]; !ok {
			adj[id] = nil
		}
	}
	for i := range srcs {
		adj[srcs[i]] = append(adj[srcs[i]], dsts[i])
		adj[dsts[i]] = append(adj[dsts[i]], srcs[i])
	}
	label = map[int64]int{}
	for _, root := range slices.Sorted(maps.Keys(adj)) {
		if _, seen := label[root]; seen {
			continue
		}
		label[root] = count
		queue := []int64{root}
		for head := 0; head < len(queue); head++ {
			for _, w := range adj[queue[head]] {
				if _, seen := label[w]; !seen {
					label[w] = count
					queue = append(queue, w)
				}
			}
		}
		count++
		maxSize = max(maxSize, len(queue))
	}
	return label, count, maxSize
}

// checkWCC holds WCCView of the columns' view to wccBFS: same labels,
// count and largest size.
func checkWCC(t *testing.T, srcs, dsts, nodes []int64) {
	t.Helper()
	v, err := graph.BuildViewCols(srcs, dsts, nodes)
	if err != nil {
		t.Fatal(err)
	}
	got := WCCView(v)
	label, count, maxSize := wccBFS(srcs, dsts, nodes)
	if got.Count != count || got.MaxSize != maxSize || !maps.Equal(got.Label(), label) {
		t.Fatalf("WCCView: %d components, largest %d, labels %v; BFS: %d, %d, %v",
			got.Count, got.MaxSize, got.Label(), count, maxSize, label)
	}
}

// TestWCCMatchesBFS runs the oracle on R-MAT graphs large enough for deep
// union-find trees, with declared isolated nodes beside them.
func TestWCCMatchesBFS(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		srcs, dsts := gen.RMATEdges(12, 3000, 0.57, 0.19, 0.19, seed)
		checkWCC(t, srcs, dsts, []int64{-1, 1 << 20, srcs[0]})
	}
}

// FuzzWCC holds WCCView to the BFS oracle on arbitrary small graphs: one
// byte per endpoint (so self-loops, duplicate and reversed arcs are
// common) and one per declared isolated node.
func FuzzWCC(f *testing.F) {
	f.Add([]byte{}, []byte{})
	f.Add([]byte{1, 2, 2, 2, 5, 4, 9, 9}, []byte{3, 7})
	f.Add([]byte{0, 1, 1, 2, 2, 3, 3, 0, 10, 11, 12, 12, 40, 11}, []byte{20, 0, 11})
	f.Add([]byte{9, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 3, 2, 2, 1}, []byte{})
	f.Fuzz(func(t *testing.T, edges, isolated []byte) {
		var srcs, dsts, nodes []int64
		for ; len(edges) >= 2; edges = edges[2:] {
			srcs = append(srcs, int64(edges[0])-64)
			dsts = append(dsts, int64(edges[1])-64)
		}
		for _, b := range isolated {
			nodes = append(nodes, int64(b)-64)
		}
		checkWCC(t, srcs, dsts, nodes)
	})
}

// BenchmarkWCCView times the `algo G wcc` kernel on the cold-pipeline's
// graph (R-MAT 2^12, 25 000 edges) and the warm-read's (2^16, 400 000).
func BenchmarkWCCView(b *testing.B) {
	for _, sz := range []struct {
		name  string
		scale int
		edges int64
	}{{"cold", 12, 25_000}, {"warm", 16, 400_000}} {
		srcs, dsts := gen.RMATEdges(sz.scale, sz.edges, 0.57, 0.19, 0.19, 1)
		v, err := graph.BuildViewCols(srcs, dsts, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.Run(sz.name, func(b *testing.B) {
			for b.Loop() {
				WCCView(v)
			}
		})
	}
}
