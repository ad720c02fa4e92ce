package core

import (
	"fmt"
	"maps"
	"os"
	"path/filepath"
	"slices"
	"time"

	"ringo/internal/algo"
	"ringo/internal/conv"
	"ringo/internal/extmem"
	"ringo/internal/graph"
)

// ExtMem benchmarks the beyond-RAM storage tier against the in-heap
// baseline on one dataset: warm-start (RNGS snapshot decode vs RNGM map),
// the same kernels over the heap view and the mapped view, and the memory
// the two tiers keep resident. Results are cross-checked — the mapped runs
// must produce exactly the in-heap answers — so the table doubles as an
// end-to-end equivalence check on real data shapes.
func ExtMem(s Spec) (Report, error) {
	r := Report{
		Title:  "ExtMem: mmap-backed CSR graphs vs in-heap decode",
		Header: []string{"Measurement", "Dataset", "In-heap", "Mapped", "Ratio"},
	}
	g, err := conv.ToDirected(s.CachedEdgeTable(), "src", "dst")
	if err != nil {
		return Report{}, err
	}
	dir, err := os.MkdirTemp("", "ringo-extmem-*")
	if err != nil {
		return Report{}, err
	}
	defer os.RemoveAll(dir)

	// Warm start: decode the RNGS snapshot vs map the RNGM image.
	ws := NewWorkspace()
	ws.Set("g", Object{Graph: g})
	snapPath := filepath.Join(dir, "ws.rngs")
	if err := ws.SnapshotFile(snapPath); err != nil {
		return Report{}, err
	}
	v := graph.BuildView(g)
	mapPath := filepath.Join(dir, "g.rngm")
	if err := extmem.SaveMapped(mapPath, v); err != nil {
		return Report{}, err
	}

	var restoreErr error
	decode := Timed(func() {
		fresh := NewWorkspace()
		restoreErr = fresh.RestoreFile(snapPath)
	})
	if restoreErr != nil {
		return Report{}, restoreErr
	}
	var mg *extmem.Graph
	var openErr error
	mapped := Timed(func() { mg, openErr = extmem.Open(mapPath) })
	if openErr != nil {
		return Report{}, openErr
	}
	defer mg.Close()
	mv := mg.View()
	r.Rows = append(r.Rows, []string{"Warm start (restore)", s.Name,
		decode.Round(time.Millisecond).String(), mapped.Round(time.Microsecond).String(),
		fmt.Sprintf("%.0fx", decode.Seconds()/mapped.Seconds())})

	// The same kernels over the heap view and the mapped view (what
	// loadgraph then pagerank runs), checked answer for answer.
	var prHeap, prMapped algo.Scores
	prHeapT := Timed(func() { prHeap = algo.PageRankView(v, algo.DefaultDamping, 10) })
	prMappedT := Timed(func() { prMapped = algo.PageRankView(mv, algo.DefaultDamping, 10) })
	if !slices.Equal(prHeap, prMapped) {
		return Report{}, fmt.Errorf("core: PageRankView over the mapped view diverged from the heap view on %s", s.Name)
	}
	r.Rows = append(r.Rows, []string{"PageRank (10 iter)", s.Name,
		prHeapT.Round(time.Millisecond).String(), prMappedT.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1fx", prMappedT.Seconds()/prHeapT.Seconds())})

	src := v.ID(0)
	var bfsHeap, bfsMapped map[int64]int
	bfsHeapT := Timed(func() { bfsHeap = algo.BFSView(v, src, algo.Out) })
	bfsMappedT := Timed(func() { bfsMapped = algo.BFSView(mv, src, algo.Out) })
	if !maps.Equal(bfsHeap, bfsMapped) {
		return Report{}, fmt.Errorf("core: BFSView over the mapped view diverged from the heap view on %s", s.Name)
	}
	r.Rows = append(r.Rows, []string{"BFS (out)", s.Name,
		bfsHeapT.Round(time.Millisecond).String(), bfsMappedT.Round(time.Millisecond).String(),
		fmt.Sprintf("%.1fx", bfsMappedT.Seconds()/bfsHeapT.Seconds())})

	r.Rows = append(r.Rows, []string{"Graph bytes resident", s.Name,
		MB(v.Bytes()), MB(0) + " heap (" + MB(mg.Bytes()) + " file-backed)", "—"})

	r.Notes = append(r.Notes,
		"warm start: decode rebuilds every adjacency vector and hash map; map validates checksums and aliases the file in place",
		"analytics: the heap kernels run unchanged over the mapped view, reading edges through the page cache; answers are verified equal")
	return r, nil
}
