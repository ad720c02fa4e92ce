// Command ringo-bench regenerates the tables of the Ringo paper's
// evaluation (Perez et al., SIGMOD 2015, §3) on synthetic stand-in
// datasets.
//
// Usage:
//
//	ringo-bench [-table all|1|2|3|4|5|6|footprint|ingest|script|obs|extmem|filter|cluster|incr] [-lj 0.02] [-tw 0.002] [-filter-rows 10000000]
//
// -lj and -tw scale the LiveJournal and Twitter2010 stand-ins (1.0 = the
// paper's full sizes of 69M and 1.5B edge rows; defaults are laptop-sized).
// Absolute timings depend on the host; each report's notes record the
// shape comparisons against the paper's numbers.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"ringo/internal/core"
)

func main() {
	tableSel := flag.String("table", "all", "which table to regenerate: all, 1-6, footprint, ingest, script, obs, extmem, filter, cluster, incr")
	ljScale := flag.Float64("lj", 0.02, "LiveJournal stand-in scale factor (1.0 = 69M edge rows)")
	twScale := flag.Float64("tw", 0.002, "Twitter2010 stand-in scale factor (1.0 = 1.5B edge rows)")
	filterRows := flag.Int64("filter-rows", 10_000_000, "row count for the table-filter report")
	flag.Parse()

	lj := core.LJSim(*ljScale)
	tw := core.TWSim(*twScale)
	specs := []core.Spec{lj, tw}

	fmt.Printf("ringo-bench: GOMAXPROCS=%d, lj-sim=%d edge rows (2^%d ids), tw-sim=%d edge rows (2^%d ids)\n\n",
		runtime.GOMAXPROCS(0), lj.Edges, lj.RMATScale, tw.Edges, tw.RMATScale)

	run := func(name string, fn func() (core.Report, error)) {
		r, err := fn()
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringo-bench: %s: %v\n", name, err)
			os.Exit(1)
		}
		r.Print(os.Stdout)
	}

	want := func(name string) bool { return *tableSel == "all" || *tableSel == name }

	if want("1") {
		core.Table1().Print(os.Stdout)
	}
	if want("2") {
		run("table 2", func() (core.Report, error) { return core.Table2(specs) })
	}
	if want("3") {
		run("table 3", func() (core.Report, error) { return core.Table3(specs) })
	}
	if want("4") {
		run("table 4", func() (core.Report, error) { return core.Table4(specs) })
	}
	if want("5") {
		run("table 5", func() (core.Report, error) { return core.Table5(specs) })
	}
	if want("6") {
		run("table 6", func() (core.Report, error) { return core.Table6(lj) })
	}
	if want("footprint") {
		run("footprint", func() (core.Report, error) { return core.Footprint(tw) })
	}
	if want("ingest") {
		run("ingest", func() (core.Report, error) { return core.Ingest(specs) })
	}
	if want("script") {
		run("script", ScriptBatch)
	}
	if want("obs") {
		run("obs", func() (core.Report, error) { return core.ObsOverhead(lj) })
	}
	if want("extmem") {
		run("extmem", func() (core.Report, error) { return core.ExtMem(lj) })
	}
	if want("filter") {
		run("filter", func() (core.Report, error) { return core.TableFilter(*filterRows) })
	}
	if want("cluster") {
		run("cluster", ClusterFanout)
	}
	if want("incr") {
		run("incr", func() (core.Report, error) { return core.Incr(lj) })
	}
}
