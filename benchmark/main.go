// Command benchmark is the repository's yardstick: four pinned analyst
// workloads driven over the HTTP session path of internal/server, six
// end-to-end metrics per workload, and a depth-replay trace that splits a
// request's cost by module. README.md in this directory describes the
// workloads, the metrics and how they are expected to interact.
//
// The driver's contract (BENCHMARK.json at the repository root) runs
//
//	bash benchmark/run.sh --workload W --seed N --seconds S --trace 0|1
//
// once per measurement and reads the last line of standard output. The
// other modes are for people: -all runs every workload in a child process
// each and writes a result file, -compare judges two result files.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
)

func main() { os.Exit(cli(os.Args[1:], os.Stdout, os.Stderr)) }

func cli(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	fs.SetOutput(stderr)
	workload := fs.String("workload", "", "workload to run once: cold-pipeline, table-explore, warm-read or update-query")
	seed := fs.Int64("seed", 1, "seed of the generated inputs and op streams")
	seconds := fs.Float64("seconds", 30, "cuts the measured phase short; the frozen op counts take about 19 s")
	trace := fs.Int("trace", 0, "1: replay the ops at every depth and report the per-layer metrics instead")
	traceOut := fs.String("trace-out", "benchmark/out/trace.json", "where a traced run writes its spans")
	smoke := fs.Bool("smoke", false, "tiny inputs and 20 ops per client")
	all := fs.Bool("all", false, "run every workload (or only -workload), each run in a child process, and write -out")
	runs := fs.Int("runs", 10, "with -all: timed runs per workload, on seeds seed, seed+1, ...")
	out := fs.String("out", "benchmark/out/result.json", "with -all: the result file")
	compare := fs.Bool("compare", false, "compare two result files: -compare old.json new.json")
	spec := fs.String("spec", "BENCHMARK.json", "with -compare: where the metrics' bounds are read from")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var err error
	switch {
	case *compare:
		var regressed bool
		if fs.NArg() != 2 {
			err = fmt.Errorf("-compare takes two result files")
		} else if regressed, err = compareFiles(stdout, *spec, fs.Arg(0), fs.Arg(1)); regressed {
			return 1
		}
	case *all:
		err = runAll(stdout, *out, *workload, *seed, *runs, *seconds, *smoke)
	default:
		cfg := config{workload: *workload, seed: *seed, seconds: *seconds, trace: *trace != 0, sizes: fullSizes, traceOut: *traceOut,
			log: func(format string, a ...any) { fmt.Fprintf(stdout, format+"\n", a...) }}
		if *smoke {
			cfg.sizes = smokeSizes
		}
		var res result
		if res, err = run(cfg); err == nil {
			err = printResult(stdout, res)
		}
	}
	if err != nil {
		fmt.Fprintln(stderr, "benchmark:", err)
		return 1
	}
	return 0
}

// printResult prints every metric by name with its unit, then the result
// as one JSON object on the last line.
func printResult(w io.Writer, res result) error {
	for _, name := range sortedKeys(res.Metrics) {
		fmt.Fprintf(w, "%-32s %14.4f %s\n", name, res.Metrics[name].Value, res.Metrics[name].Unit)
	}
	b, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}
