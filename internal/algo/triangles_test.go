package algo

import (
	"maps"
	"math"
	"runtime"
	"slices"
	"testing"
	"testing/quick"

	"ringo/internal/gen"
	"ringo/internal/graph"
)

func TestTrianglesKnownCounts(t *testing.T) {
	for n, want := range map[int]int64{3: 1, 4: 4, 5: 10, 6: 20} {
		if got := TrianglesView(gen.Complete(n)); got != want {
			t.Fatalf("K%d: Triangles = %d, want %d", n, got, want)
		}
	}
}

func TestTrianglesPathHasNone(t *testing.T) {
	var path [][2]int64
	for i := int64(0); i < 10; i++ {
		path = append(path, [2]int64{i, i + 1})
	}
	if got := TrianglesView(undirected(path)); got != 0 {
		t.Fatalf("path triangles = %d", got)
	}
}

func TestTrianglesIgnoreSelfLoops(t *testing.T) {
	if got := TrianglesView(undirected(append(clique(3), [2]int64{0, 0}))); got != 1 {
		t.Fatalf("triangles with self-loop = %d, want 1", got)
	}
}

func TestNodeTrianglesSumIsThreeTimesTotal(t *testing.T) {
	g := undirected(append(clique(5), [2]int64{10, 11})) // isolated edge, no triangles
	per := NodeTrianglesView(g)
	var sum int64
	for _, c := range per {
		sum += c
	}
	total := TrianglesView(g)
	if sum != 3*total {
		t.Fatalf("sum of per-node counts %d != 3×%d", sum, total)
	}
	if per[10] != 0 || per[11] != 0 {
		t.Fatal("isolated edge nodes have triangles")
	}
	// In K5, every node is in C(4,2) = 6 triangles.
	if per[0] != 6 {
		t.Fatalf("K5 node triangle count = %d, want 6", per[0])
	}
}

func TestTrianglesMatchBruteForceProperty(t *testing.T) {
	f := func(edges [][2]int8) bool {
		var wide [][2]int64
		var src, dst []int64
		for _, e := range edges {
			a, b := int64(e[0]%12), int64(e[1]%12)
			wide = append(wide, [2]int64{a, b})
			src, dst = append(src, a), append(dst, b)
		}
		return TrianglesView(undirected(wide)) == bruteTriangles3(src, dst).total
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 120}); err != nil {
		t.Fatal(err)
	}
}

func TestClusteringCoefficientComplete(t *testing.T) {
	if cc := ClusteringCoefficientView(gen.Complete(6)); !approxEq(cc, 1, 1e-12) {
		t.Fatalf("clustering of K6 = %v, want 1", cc)
	}
}

func TestClusteringCoefficientStarIsZero(t *testing.T) {
	var star [][2]int64
	for i := int64(1); i <= 6; i++ {
		star = append(star, [2]int64{0, i})
	}
	if cc := ClusteringCoefficientView(undirected(star)); cc != 0 {
		t.Fatalf("clustering of star = %v", cc)
	}
}

func TestClusteringCoefficientTrianglePlusTail(t *testing.T) {
	// Triangle {0,1,2} plus tail 2-3. Nodes 0,1 have cc 1; node 2 has
	// cc = 1/3 (one of three neighbor pairs connected); node 3 deg 1 → 0.
	g := undirected([][2]int64{{0, 1}, {1, 2}, {0, 2}, {2, 3}})
	want := (1.0 + 1.0 + 1.0/3.0 + 0.0) / 4.0
	if cc := ClusteringCoefficientView(g); !approxEq(cc, want, 1e-12) {
		t.Fatalf("clustering = %v, want %v", cc, want)
	}
}

func TestClusteringEmptyGraph(t *testing.T) {
	if cc := ClusteringCoefficientView(undirected(nil)); cc != 0 {
		t.Fatalf("clustering of empty graph = %v", cc)
	}
}

// triangleRef is what the brute-force reference finds for the triangle
// kernels.
type triangleRef struct {
	total      int64
	perNode    map[int64]int64
	clustering float64
	motifs     MotifCounts
}

// bruteTriangles3 enumerates every node triple of the directed arc list
// src[i]->dst[i] in id order: a triple is a triangle when each pair is
// joined by an arc either way (self-loops join nothing), cyclic for each
// complete orientation a->b->c->a or a->c->b->a, and transitive when it has
// neither. Wedges are the neighbor pairs of every node less the closed ones.
func bruteTriangles3(src, dst []int64) triangleRef {
	at := map[int64]int{}
	for i := range src {
		at[src[i]], at[dst[i]] = 0, 0
	}
	ids := slices.Sorted(maps.Keys(at))
	for i, id := range ids {
		at[id] = i
	}
	n := len(ids)
	arc := make([]bool, n*n)
	for i := range src {
		arc[at[src[i]]*n+at[dst[i]]] = true
	}
	has := func(a, b int) bool { return arc[a*n+b] }
	joined := func(a, b int) bool { return a != b && (has(a, b) || has(b, a)) }
	ref := triangleRef{perNode: make(map[int64]int64, n)}
	per, deg := make([]int64, n), make([]int64, n)
	for a := 0; a < n; a++ {
		for b := a + 1; b < n; b++ {
			if !joined(a, b) {
				continue
			}
			deg[a]++
			deg[b]++
			for c := b + 1; c < n; c++ {
				if !joined(a, c) || !joined(b, c) {
					continue
				}
				ref.total++
				per[a]++
				per[b]++
				per[c]++
				cycles := 0
				if has(a, b) && has(b, c) && has(c, a) {
					cycles++
				}
				if has(a, c) && has(c, b) && has(b, a) {
					cycles++
				}
				ref.motifs.CyclicTriangles += int64(cycles)
				if cycles == 0 {
					ref.motifs.TransTriangles++
				}
			}
		}
	}
	var triples int64
	for i, id := range ids {
		ref.perNode[id] = per[i]
		triples += deg[i] * (deg[i] - 1) / 2
		if deg[i] >= 2 {
			ref.clustering += float64(2*per[i]) / float64(deg[i]*(deg[i]-1))
		}
	}
	if n > 0 {
		ref.clustering /= float64(n)
	}
	ref.motifs.Wedges = triples - 3*ref.total
	return ref
}

// checkTriangleKernels holds TrianglesView, NodeTrianglesView,
// ClusteringCoefficientView and CountMotifsView over the arc list to the
// brute-force reference at each worker count.
func checkTriangleKernels(t *testing.T, src, dst []int64, procs ...int) {
	t.Helper()
	v, err := graph.BuildViewCols(src, dst, nil)
	if err != nil {
		t.Fatal(err)
	}
	uv := graph.ProjectUView(v)
	want := bruteTriangles3(src, dst)
	old := runtime.GOMAXPROCS(1)
	defer runtime.GOMAXPROCS(old)
	for _, p := range procs {
		runtime.GOMAXPROCS(p)
		if got := TrianglesView(uv); got != want.total {
			t.Fatalf("procs=%d: TrianglesView = %d, want %d", p, got, want.total)
		}
		if got := NodeTrianglesView(uv); !maps.Equal(got, want.perNode) {
			t.Fatalf("procs=%d: NodeTrianglesView = %v, want %v", p, got, want.perNode)
		}
		if got := ClusteringCoefficientView(uv); math.Abs(got-want.clustering) > 1e-12 {
			t.Fatalf("procs=%d: ClusteringCoefficientView = %v, want %v", p, got, want.clustering)
		}
		if got := CountMotifsView(v); got != want.motifs {
			t.Fatalf("procs=%d: CountMotifsView = %+v, want %+v", p, got, want.motifs)
		}
	}
}

// TestTriangleKernelsMatchBruteForce runs the kernels on graphs of more
// than one 1024-node chunk, so the dynamic chunks spread over the workers.
func TestTriangleKernelsMatchBruteForce(t *testing.T) {
	src, dst := gen.RMATEdges(12, 12000, 0.57, 0.19, 0.19, 3)
	checkTriangleKernels(t, src, dst, 1, 2, 4)
	// Reciprocal arcs and self-loops on every tenth node.
	for i := range 1200 {
		src = append(src, dst[i], int64(i*10))
		dst = append(dst, src[i], int64(i*10))
	}
	checkTriangleKernels(t, src, dst, 1, 4)
}

// FuzzTriangles decodes each byte pair into an arc between two of 16 node
// ids, self-loops and duplicate arcs included, and holds the four triangle
// kernels to the brute-force triple enumeration at one and four workers.
func FuzzTriangles(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{1, 2, 2, 3, 3, 1, 1, 1, 2, 1})
	f.Add([]byte{0, 1, 1, 2, 0, 2, 2, 3, 3, 0, 1, 3, 4, 4, 1, 0, 1, 0})
	f.Fuzz(func(t *testing.T, data []byte) {
		var src, dst []int64
		for ; len(data) >= 2; data = data[2:] {
			src = append(src, int64(data[0]%16))
			dst = append(dst, int64(data[1]%16))
		}
		checkTriangleKernels(t, src, dst, 1, 4)
	})
}

// BenchmarkClusteringView is the `clustering` verb's kernel at the
// update-query workload's graph size.
func BenchmarkClusteringView(b *testing.B) {
	uv := graph.ProjectUView(rmatGraph(15, 200000, 1))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if cc := ClusteringCoefficientView(uv); cc <= 0 {
			b.Fatal(cc)
		}
	}
}

// BenchmarkCountMotifsView is the `motifs` verb's kernel, projection
// included, at the update-query workload's graph size.
func BenchmarkCountMotifsView(b *testing.B) {
	v := rmatGraph(15, 200000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if mc := CountMotifsView(v); mc.Wedges <= 0 {
			b.Fatal(mc)
		}
	}
}
