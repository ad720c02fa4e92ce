// Command ringo-bench regenerates the tables of the Ringo paper's
// evaluation (Perez et al., SIGMOD 2015, §3) on synthetic stand-in
// datasets.
//
// Usage:
//
//	ringo-bench [-table all|1|2|3|4|5|6|footprint] [-lj 0.02] [-tw 0.002]
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
	"strings"

	"ringo/internal/core"
)

// report is one table -table selects, built from the LiveJournal and
// Twitter2010 stand-ins.
type report struct {
	name string
	run  func(lj, tw core.Spec) (core.Report, error)
}

// reports are the tables in the order "all" prints them. The usage line
// above spells the same names; main_test.go holds the two together.
var reports = []report{
	{"1", func(_, _ core.Spec) (core.Report, error) { return core.Table1(), nil }},
	{"2", func(lj, tw core.Spec) (core.Report, error) { return core.Table2([]core.Spec{lj, tw}) }},
	{"3", func(lj, tw core.Spec) (core.Report, error) { return core.Table3([]core.Spec{lj, tw}) }},
	{"4", func(lj, tw core.Spec) (core.Report, error) { return core.Table4([]core.Spec{lj, tw}) }},
	{"5", func(lj, tw core.Spec) (core.Report, error) { return core.Table5([]core.Spec{lj, tw}) }},
	{"6", func(lj, _ core.Spec) (core.Report, error) { return core.Table6(lj) }},
	{"footprint", func(_, tw core.Spec) (core.Report, error) { return core.Footprint(tw) }},
}

// tableChoices is the -table value syntax: "all|1|...|footprint".
func tableChoices() string {
	names := []string{"all"}
	for _, r := range reports {
		names = append(names, r.name)
	}
	return strings.Join(names, "|")
}

// selectReports returns the reports -table sel names, or an error naming
// the valid tables.
func selectReports(sel string) ([]report, error) {
	if sel == "all" {
		return reports, nil
	}
	for _, r := range reports {
		if r.name == sel {
			return []report{r}, nil
		}
	}
	return nil, fmt.Errorf("unknown table %q: want one of %s", sel, tableChoices())
}

func main() {
	tableSel := flag.String("table", "all", "which table to regenerate: "+tableChoices())
	ljScale := flag.Float64("lj", 0.02, "LiveJournal stand-in scale factor (1.0 = 69M edge rows)")
	twScale := flag.Float64("tw", 0.002, "Twitter2010 stand-in scale factor (1.0 = 1.5B edge rows)")
	flag.Parse()
	selected, err := selectReports(*tableSel)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ringo-bench: %v\n", err)
		os.Exit(2)
	}

	lj := core.LJSim(*ljScale)
	tw := core.TWSim(*twScale)
	fmt.Printf("ringo-bench: GOMAXPROCS=%d, lj-sim=%d edge rows (2^%d ids), tw-sim=%d edge rows (2^%d ids)\n\n",
		runtime.GOMAXPROCS(0), lj.Edges, lj.RMATScale, tw.Edges, tw.RMATScale)
	for _, r := range selected {
		rep, err := r.run(lj, tw)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ringo-bench: table %s: %v\n", r.name, err)
			os.Exit(1)
		}
		rep.Print(os.Stdout)
	}
}
