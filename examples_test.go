package ringo_test

import (
	"bytes"
	"flag"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

var updateGoldens = flag.Bool("update", false, "rewrite examples/*/testdata/output.golden from the examples' output")

// maskTimings replaces the rest of every line containing " took " — a wall
// time, the one part of an example's output that differs between runs —
// with "…", so the output compares across runs and machines.
func maskTimings(out []byte) []byte {
	lines := strings.SplitAfter(string(out), "\n")
	for i, ln := range lines {
		if before, _, ok := strings.Cut(ln, " took "); ok {
			lines[i] = before + " took …\n"
		}
	}
	return []byte(strings.Join(lines, ""))
}

// TestExamplesMatchGoldens builds every program under examples/, runs each
// with no arguments from its own directory, and requires it to exit 0 and
// print exactly its testdata/output.golden, wall times masked
// (maskTimings). With -update it rewrites the goldens instead.
func TestExamplesMatchGoldens(t *testing.T) {
	goBin, err := exec.LookPath("go")
	if err != nil {
		t.Skip("no go command on PATH to build the examples with")
	}
	bin := t.TempDir()
	build := exec.Command(goBin, "build", "-o", bin, "./examples/...")
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("go build ./examples/...: %v\n%s", err, out)
	}
	dirs, err := filepath.Glob("examples/*/main.go")
	if err != nil || len(dirs) == 0 {
		t.Fatalf("no examples found (%v)", err)
	}
	for _, main := range dirs {
		dir := filepath.Dir(main)
		name := filepath.Base(dir)
		t.Run(name, func(t *testing.T) {
			run := exec.Command(filepath.Join(bin, name))
			run.Dir = dir
			var stderr bytes.Buffer
			run.Stderr = &stderr
			out, err := run.Output()
			if err != nil {
				t.Fatalf("%s: %v\n%s", name, err, stderr.Bytes())
			}
			got := maskTimings(out)
			golden := filepath.Join(dir, "testdata", "output.golden")
			if *updateGoldens {
				if err := os.MkdirAll(filepath.Dir(golden), 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(golden, got, 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("%v (run the test with -update to write it)", err)
			}
			if !bytes.Equal(got, want) {
				t.Fatalf("%s output differs from %s:\n--- got\n%s\n--- want\n%s", name, golden, got, want)
			}
		})
	}
}
