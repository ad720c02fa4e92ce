package algo

import (
	"testing"

	"ringo/internal/graph"
)

func TestLouvainSeparatesCliques(t *testing.T) {
	g := twoCliques(6)
	comm, q := LouvainView(uviewOf(g), 10)
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
	g := graph.NewUndirectedCap(0)
	const k = 5
	base := func(c int) int64 { return int64(100 * c) }
	for c := 0; c < 4; c++ {
		for i := int64(0); i < k; i++ {
			for j := i + 1; j < k; j++ {
				g.AddEdge(base(c)+i, base(c)+j)
			}
		}
	}
	for c := 0; c < 4; c++ {
		g.AddEdge(base(c), base((c+1)%4)+1)
	}
	comm, q := LouvainView(uviewOf(g), 10)
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
	g := barabasiForTest(400, 3)
	_, ql := LouvainView(uviewOf(g), 10)
	lp := LabelPropagationView(uviewOf(g), 20, 1)
	qlp := ModularityView(uviewOf(g), lp)
	if ql+1e-9 < qlp {
		t.Fatalf("Louvain modularity %v below label propagation %v", ql, qlp)
	}
}

func TestLouvainDegenerateInputs(t *testing.T) {
	comm, q := LouvainView(uviewOf(graph.NewUndirectedCap(0)), 5)
	if len(comm) != 0 || q != 0 {
		t.Fatal("empty graph")
	}
	// Edgeless graph: every node its own community.
	iso := graph.NewUndirectedCap(0)
	iso.AddNode(1)
	iso.AddNode(2)
	comm, _ = LouvainView(uviewOf(iso), 5)
	if comm[1] == comm[2] {
		t.Fatal("isolated nodes merged")
	}
}

func TestLouvainDeterministic(t *testing.T) {
	g := twoCliques(5)
	a, qa := LouvainView(uviewOf(g), 10)
	b, qb := LouvainView(uviewOf(g), 10)
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
	g := completeUndirected(5)
	color, k := GreedyColoring(g)
	if k != 5 {
		t.Fatalf("K5 colors = %d", k)
	}
	g.ForEdges(func(u, v int64) {
		if u != v && color[u] == color[v] {
			t.Fatalf("edge %d-%d monochromatic", u, v)
		}
	})
	// A path is 2-colorable and Welsh-Powell achieves it.
	p := graph.NewUndirectedCap(0)
	for i := int64(0); i < 10; i++ {
		p.AddEdge(i, i+1)
	}
	_, k = GreedyColoring(p)
	if k != 2 {
		t.Fatalf("path colors = %d", k)
	}
	if _, k := GreedyColoring(graph.NewUndirectedCap(0)); k != 0 {
		t.Fatal("empty graph colors != 0")
	}
}

func TestMaximalMatching(t *testing.T) {
	p := graph.NewUndirectedCap(0)
	p.AddEdge(1, 2)
	p.AddEdge(2, 3)
	p.AddEdge(3, 4)
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
	p.ForEdges(func(u, v int64) {
		if !used[u] && !used[v] {
			t.Fatalf("matching not maximal: edge %d-%d free", u, v)
		}
	})
}

func TestIndependentSetGreedy(t *testing.T) {
	g := completeUndirected(4)
	g.AddEdge(9, 9) // self-loop node can never join
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
	star := graph.NewUndirectedCap(0)
	for i := int64(1); i <= 5; i++ {
		star.AddEdge(0, i)
	}
	if is := IndependentSetGreedy(star); len(is) != 5 {
		t.Fatalf("star independent set = %v", is)
	}
}
