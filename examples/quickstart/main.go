// Quickstart walks the full Ringo analytics loop of Figure 2 in the paper:
// raw data arrives as a relational table, graph construction operations
// shape it, the sort-first conversion builds an optimized graph object,
// graph algorithms run on it, and the results land back in tables for
// further relational analysis.
package main

import (
	"fmt"
	"log"

	"ringo"
)

func main() {
	// 1. Raw input: an edge log as a relational table. In a real workflow
	// this would come from ringo.LoadTableTSV; here a generator with the
	// skew of a social graph stands in.
	edges := ringo.GenRMATTable(14, 200_000, 42)
	fmt.Printf("raw edge table: %d rows\n", edges.NumRows())

	// 2. Table manipulation: drop self-loops before building the graph.
	src, err := edges.IntCol("src")
	if err != nil {
		log.Fatal(err)
	}
	dst, err := edges.IntCol("dst")
	if err != nil {
		log.Fatal(err)
	}
	clean := edges.SelectFunc(func(row int) bool { return src[row] != dst[row] })
	fmt.Printf("after removing self-loops: %d rows\n", clean.NumRows())

	// 3. Convert to the optimized graph representation (sort-first, §2.4).
	g, err := ringo.ToGraph(clean, "src", "dst")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph: %d nodes, %d edges\n", g.NumNodes(), g.NumEdges())

	// 4. Graph analytics.
	pr := ringo.GetPageRank(g)
	wcc := ringo.GetWCC(g)
	tri := ringo.CountTriangles(ringo.AsUndirected(g))
	fmt.Printf("analytics: %d weak components (largest %d), %d triangles\n",
		wcc.Count, wcc.MaxSize, tri)

	// 5. Results back into tables, joined and aggregated relationally.
	ranks, err := ringo.TableFromMap(pr, "node", "rank")
	if err != nil {
		log.Fatal(err)
	}
	comps, err := ringo.TableFromIntMap(wcc.Label(), "node", "component")
	if err != nil {
		log.Fatal(err)
	}
	joined, err := ringo.Join(ranks, comps, "node", "node")
	if err != nil {
		log.Fatal(err)
	}
	perComp, err := joined.Aggregate([]string{"component"}, ringo.Sum, "rank", "mass")
	if err != nil {
		log.Fatal(err)
	}
	if err := perComp.OrderBy(true, "mass"); err != nil {
		log.Fatal(err)
	}
	compCol, _ := perComp.IntCol("component")
	massCol, _ := perComp.FloatCol("mass")
	fmt.Println("top components by PageRank mass:")
	for i := 0; i < 3 && i < perComp.NumRows(); i++ {
		fmt.Printf("  component %d: %.4f\n", compCol[i], massCol[i])
	}

	// 6. And the loop closes: the graph exports back to a table.
	back, err := ringo.ToTable(g, "src", "dst")
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("graph exported back to a %d-row edge table\n", back.NumRows())
}
