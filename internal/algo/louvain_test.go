package algo

import (
	"testing"

	"ringo/internal/gen"
)

func TestLouvainSeparatesCliques(t *testing.T) {
	g := twoCliques(6)
	comm, q := LouvainView(g, 10)
	for i := int64(1); i < 6; i++ {
		if comm[i] != comm[0] {
			t.Fatalf("clique A split: %v", comm)
		}
		if comm[100+i] != comm[100] {
			t.Fatalf("clique B split: %v", comm)
		}
	}
	if comm[0] == comm[100] {
		t.Fatal("cliques merged")
	}
	if q < 0.3 {
		t.Fatalf("modularity = %v, want > 0.3", q)
	}
}

func TestLouvainRingOfCliques(t *testing.T) {
	// Four 5-cliques in a ring, bridged by single edges: the canonical
	// Louvain test — each clique is one community.
	const k = 5
	base := func(c int) int64 { return int64(100 * c) }
	var edges [][2]int64
	for c := 0; c < 4; c++ {
		for _, e := range clique(k) {
			edges = append(edges, [2]int64{base(c) + e[0], base(c) + e[1]})
		}
		edges = append(edges, [2]int64{base(c), base((c+1)%4) + 1})
	}
	comm, q := LouvainView(undirected(edges), 10)
	labels := map[int]bool{}
	for c := 0; c < 4; c++ {
		l := comm[base(c)]
		labels[l] = true
		for i := int64(1); i < k; i++ {
			if comm[base(c)+i] != l {
				t.Fatalf("clique %d split", c)
			}
		}
	}
	if len(labels) != 4 {
		t.Fatalf("found %d communities, want 4", len(labels))
	}
	if q < 0.5 {
		t.Fatalf("modularity = %v", q)
	}
}

func TestLouvainBeatsOrMatchesLabelPropagation(t *testing.T) {
	g := gen.BarabasiAlbert(400, 3, 1)
	_, ql := LouvainView(g, 10)
	lp := LabelPropagationView(g, 20, 1)
	qlp := ModularityView(g, lp)
	if ql+1e-9 < qlp {
		t.Fatalf("Louvain modularity %v below label propagation %v", ql, qlp)
	}
}

func TestLouvainDegenerateInputs(t *testing.T) {
	comm, q := LouvainView(undirected(nil), 5)
	if len(comm) != 0 || q != 0 {
		t.Fatal("empty graph")
	}
	// Edgeless graph: every node its own community.
	comm, _ = LouvainView(undirected(nil, 1, 2), 5)
	if comm[1] == comm[2] {
		t.Fatal("isolated nodes merged")
	}
}

func TestLouvainDeterministic(t *testing.T) {
	g := twoCliques(5)
	a, qa := LouvainView(g, 10)
	b, qb := LouvainView(g, 10)
	if qa != qb {
		t.Fatal("modularity differs across runs")
	}
	for id, c := range a {
		if b[id] != c {
			t.Fatal("labels differ across runs")
		}
	}
}

func TestGreedyColoringProper(t *testing.T) {
	g := gen.Complete(5)
	color, k := GreedyColoring(g)
	if k != 5 {
		t.Fatalf("K5 colors = %d", k)
	}
	for u, id := range g.IDs() {
		for _, x := range g.Adj(int32(u)) {
			if x != int32(u) && color[id] == color[g.ID(x)] {
				t.Fatalf("edge %d-%d monochromatic", id, g.ID(x))
			}
		}
	}
	// A path is 2-colorable and Welsh-Powell achieves it.
	var path [][2]int64
	for i := int64(0); i < 10; i++ {
		path = append(path, [2]int64{i, i + 1})
	}
	if _, k = GreedyColoring(undirected(path)); k != 2 {
		t.Fatalf("path colors = %d", k)
	}
	if _, k := GreedyColoring(undirected(nil)); k != 0 {
		t.Fatal("empty graph colors != 0")
	}
}

func TestMaximalMatching(t *testing.T) {
	edges := [][2]int64{{1, 2}, {2, 3}, {3, 4}}
	p := undirected(edges)
	m := MaximalMatching(p)
	// Validity: no shared endpoints.
	used := map[int64]bool{}
	for _, e := range m {
		if used[e[0]] || used[e[1]] {
			t.Fatalf("matching shares endpoint: %v", m)
		}
		used[e[0]], used[e[1]] = true, true
		if !p.HasEdge(e[0], e[1]) {
			t.Fatalf("matched non-edge %v", e)
		}
	}
	// Maximality: every edge touches a matched node.
	for _, e := range edges {
		if !used[e[0]] && !used[e[1]] {
			t.Fatalf("matching not maximal: edge %d-%d free", e[0], e[1])
		}
	}
}

func TestIndependentSetGreedy(t *testing.T) {
	g := undirected(append(clique(4), [2]int64{9, 9})) // self-loop node can never join
	is := IndependentSetGreedy(g)
	if len(is) != 1 {
		t.Fatalf("K4 independent set = %v", is)
	}
	// Independence.
	for i := 0; i < len(is); i++ {
		for j := i + 1; j < len(is); j++ {
			if g.HasEdge(is[i], is[j]) {
				t.Fatal("set not independent")
			}
		}
	}
	// Star: all leaves are independent.
	star := undirected([][2]int64{{0, 1}, {0, 2}, {0, 3}, {0, 4}, {0, 5}})
	if is := IndependentSetGreedy(star); len(is) != 5 {
		t.Fatalf("star independent set = %v", is)
	}
}
