// Socialnetwork is an interactive-style exploration session over a
// LiveJournal-like social graph: the kind of trial-and-error analysis the
// paper's §4.2 performance demo runs on a big-memory machine, here at
// laptop scale. It reports degree structure, connectivity, cores,
// triangles, distances and communities — each produced by one engine call.
package main

import (
	"flag"
	"fmt"
	"log"
	"time"

	"ringo"
)

func timed[T any](label string, fn func() T) T {
	start := time.Now()
	v := fn()
	fmt.Printf("  [%s took %v]\n", label, time.Since(start).Round(time.Millisecond))
	return v
}

func main() {
	scale := flag.Int("scale", 15, "log2 of the node id space")
	edges := flag.Int64("edges", 500_000, "number of edge rows")
	flag.Parse()

	fmt.Printf("building a LiveJournal-like graph (2^%d ids, %d edge rows)...\n", *scale, *edges)
	tbl := ringo.GenRMATTable(*scale, *edges, 7)
	g, err := ringo.ToGraph(tbl, "src", "dst")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n\n", g.NumNodes(), g.NumEdges())

	fmt.Println("degree structure:")
	outStats := ringo.GetOutDegreeStats(g)
	inStats := ringo.GetInDegreeStats(g)
	fmt.Printf("  out-degree min/mean/max: %d / %.1f / %d\n", outStats.Min, outStats.Mean, outStats.Max)
	fmt.Printf("  in-degree  min/mean/max: %d / %.1f / %d\n", inStats.Min, inStats.Mean, inStats.Max)
	hub, hubDeg, _ := ringo.MaxNode(g)
	fmt.Printf("  biggest hub: node %d with out-degree %d\n\n", hub, hubDeg)

	fmt.Println("connectivity:")
	wcc := timed("WCC", func() ringo.Components { return ringo.GetWCC(g) })
	scc := timed("SCC", func() ringo.Components { return ringo.GetSCC(g) })
	fmt.Printf("  %d weak components (largest %d, %.1f%% of nodes)\n",
		wcc.Count, wcc.MaxSize, 100*float64(wcc.MaxSize)/float64(g.NumNodes()))
	fmt.Printf("  %d strong components (largest %d)\n\n", scc.Count, scc.MaxSize)

	u := ringo.AsUndirected(g)
	fmt.Println("cohesion:")
	tri := timed("triangles", func() int64 { return ringo.CountTriangles(u) })
	cc := timed("clustering", func() float64 { return ringo.GetClusteringCoefficient(u) })
	core3 := timed("3-core", func() *ringo.UGraph { return ringo.GetKCore(u, 3) })
	fmt.Printf("  %d triangles, average clustering coefficient %.4f\n", tri, cc)
	fmt.Printf("  3-core: %d of %d nodes\n\n", core3.NumNodes(), g.NumNodes())

	fmt.Println("distances:")
	diam := timed("diameter (8 BFS samples)", func() int { return ringo.GetApproxDiameter(g, 8, 1) })
	fmt.Printf("  approximate diameter: %d\n\n", diam)

	fmt.Println("influence (PageRank, 10 iterations):")
	pr := timed("pagerank", func() ringo.Scores { return ringo.GetPageRank(g) })
	for i, s := range ringo.TopK(pr, 5) {
		fmt.Printf("  %d. node %-8d rank %.5f\n", i+1, s.ID, s.Score)
	}
	fmt.Println()

	fmt.Println("communities (label propagation):")
	comm := timed("label propagation", func() map[int64]int { return ringo.GetCommunities(u, 10, 3) })
	sizes := map[int]int{}
	for _, c := range comm {
		sizes[c]++
	}
	fmt.Printf("  %d communities, modularity %.4f\n",
		len(sizes), ringo.GetModularity(u, comm))
}
