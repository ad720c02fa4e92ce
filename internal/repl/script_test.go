package repl

import (
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"
)

// replacesWorkspace reports whether a script step swaps out the entire
// workspace, the per-step test the server applies.
func replacesWorkspace(st Step) bool { return ReplacesWorkspace(st.Cmd) }

func TestParseScript(t *testing.T) {
	src := `
# build a graph
@echo
@time

gen rmat E 8 100 1
tograph G E src dst   # not a comment: comments are whole lines

algo G wcc
quit
pagerank PR G
`
	s, err := ParseScript(src)
	if err != nil {
		t.Fatal(err)
	}
	if !s.Echo || !s.Time || s.Continue {
		t.Errorf("directives: echo=%v time=%v continue=%v", s.Echo, s.Time, s.Continue)
	}
	// quit ends the script: pagerank after it must not be a step.
	want := []string{
		"gen rmat E 8 100 1",
		"tograph G E src dst   # not a comment: comments are whole lines",
		"algo G wcc",
	}
	if len(s.Steps) != len(want) {
		t.Fatalf("got %d steps, want %d: %+v", len(s.Steps), len(want), s.Steps)
	}
	for i, cmd := range want {
		if s.Steps[i].Cmd != cmd {
			t.Errorf("step %d: got %q, want %q", i, s.Steps[i].Cmd, cmd)
		}
	}
	// Line numbers point into the original text (1-based).
	if s.Steps[0].LineNo != 6 || s.Steps[2].LineNo != 9 {
		t.Errorf("line numbers: %+v", s.Steps)
	}
}

func TestParseScriptErrors(t *testing.T) {
	if _, err := ParseScript("ls\n@loop\n"); err == nil || !strings.Contains(err.Error(), "line 2") {
		t.Errorf("unknown directive: got %v", err)
	}
	if _, err := ParseScript("@echo on\n"); err == nil || !strings.Contains(err.Error(), "no arguments") {
		t.Errorf("directive with argument: got %v", err)
	}
	// Empty scripts parse fine; they just have no steps.
	s, err := ParseScript("# nothing\n\n")
	if err != nil || len(s.Steps) != 0 {
		t.Errorf("empty script: %v, %+v", err, s)
	}
}

func TestScriptClassification(t *testing.T) {
	ro, _ := ParseScript("ls\nalgo G wcc\ntop PR")
	if !ro.ReadOnly() || ro.TouchesFiles() != -1 || slices.ContainsFunc(ro.Steps, replacesWorkspace) {
		t.Error("read-only script misclassified")
	}
	mut, _ := ParseScript("ls\ngen rmat E 8 100 1")
	if mut.ReadOnly() {
		t.Error("mutating script classified read-only")
	}
	files, _ := ParseScript("gen rmat E 8 100 1\nsave E /tmp/x\nloadgraph G /tmp/y")
	if got := files.TouchesFiles(); got != 1 {
		t.Errorf("TouchesFiles: got step %d, want 1", got)
	}
	repl, _ := ParseScript("ls\nrestore /tmp/x")
	if !slices.ContainsFunc(repl.Steps, replacesWorkspace) {
		t.Error("restore script not classified workspace-replacing")
	}
}

func TestEvalScript(t *testing.T) {
	e := New(nil)
	s, err := ParseScript("gen rmat E 8 100 1\ntograph G E src dst\nalgo G wcc\nls")
	if err != nil {
		t.Fatal(err)
	}
	sr := e.EvalScript(s)
	if sr.OK != 4 || sr.Failed != 0 || sr.Skipped != 0 {
		t.Fatalf("accounting: %+v", sr)
	}
	if err := sr.Err(); err != nil {
		t.Fatal(err)
	}
	for i, st := range sr.Steps {
		if st.Result == nil {
			t.Errorf("step %d: no result", i)
		}
		if st.ElapsedNS <= 0 {
			t.Errorf("step %d: no timing", i)
		}
	}
	if sr.ElapsedNS <= 0 {
		t.Error("no aggregate timing")
	}
	if _, err := e.Workspace().Graph("G"); err != nil {
		t.Errorf("script did not build G: %v", err)
	}
}

func TestEvalScriptStopsOnError(t *testing.T) {
	e := New(nil)
	s, _ := ParseScript("gen rmat E 8 100 1\nshow NOPE\nls\nls")
	sr := e.EvalScript(s)
	if sr.OK != 1 || sr.Failed != 1 || sr.Skipped != 2 {
		t.Fatalf("accounting: ok=%d failed=%d skipped=%d", sr.OK, sr.Failed, sr.Skipped)
	}
	err := sr.Err()
	if err == nil {
		t.Fatal("want error")
	}
	// The error names the 1-based step and its source line.
	if !strings.Contains(err.Error(), "step 2 (line 2)") {
		t.Errorf("error does not name the step: %v", err)
	}
}

func TestEvalScriptContinue(t *testing.T) {
	e := New(nil)
	s, _ := ParseScript("@continue\nshow NOPE\ngen rmat E 8 100 1\nshow ALSONOPE\nls")
	sr := e.EvalScript(s)
	if sr.OK != 2 || sr.Failed != 2 || sr.Skipped != 0 {
		t.Fatalf("accounting: ok=%d failed=%d skipped=%d", sr.OK, sr.Failed, sr.Skipped)
	}
	if err := sr.Err(); err == nil || !strings.Contains(err.Error(), "step 1") {
		t.Errorf("Err should still report the first failure: %v", err)
	}
}

// TestAlgoUnknownNameAnyGraphKind runs an unknown algorithm name over a
// heap graph, a mapped graph and a table: both graphs answer "unknown
// algorithm" (the mapped one as it answers wcc), the table its kind.
func TestAlgoUnknownNameAnyGraphKind(t *testing.T) {
	path := filepath.Join(t.TempDir(), "g.rngm")
	s, err := ParseScript(`@continue
gen rmat E 8 200 1
tograph G E src dst
save G ` + path + `
mapgraph M ` + path + `
algo M wcc
algo G nope
algo M nope
algo E nope
algo X nope`)
	if err != nil {
		t.Fatal(err)
	}
	sr := New(nil).EvalScript(s)
	want := []string{"", "", "", "", "",
		`unknown algorithm "nope"`,
		`unknown algorithm "nope"`,
		`"E" is a table, not a graph`,
		`no object named "X"`,
	}
	if len(sr.Steps) != len(want) {
		t.Fatalf("ran %d steps, want %d", len(sr.Steps), len(want))
	}
	for i, st := range sr.Steps {
		if !strings.Contains(st.Error, want[i]) || (want[i] == "") != (st.Error == "") {
			t.Errorf("%s: error %q, want %q", st.Cmd, st.Error, want[i])
		}
	}
}

func TestSourceVerb(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "analysis.rng")
	script := "# demo\ngen rmat E 8 100 1\ntograph G E src dst\nalgo G triangles\n"
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(nil)
	r, err := e.Eval("source " + path)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Rows) != 3 {
		t.Fatalf("rows: %+v", r.Rows)
	}
	if r.Rows[0][2] != "ok" || !strings.Contains(r.Rows[0][3], "E: 100 rows") {
		t.Errorf("row 0: %+v", r.Rows[0])
	}
	if !strings.Contains(r.Message, "3 steps ok") {
		t.Errorf("message: %q", r.Message)
	}
	if _, err := e.Workspace().Graph("G"); err != nil {
		t.Errorf("source did not build G: %v", err)
	}

	// A failing step surfaces as an Eval error naming the step, after the
	// earlier steps have taken effect.
	bad := filepath.Join(dir, "bad.rng")
	if err := os.WriteFile(bad, []byte("gen rmat E2 8 100 1\nshow NOPE\nls\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("source " + bad); err == nil || !strings.Contains(err.Error(), "step 2 (line 2)") {
		t.Errorf("source of failing script: %v", err)
	}
	if _, ok := e.Workspace().Get("E2"); !ok {
		t.Error("steps before the failure should have executed")
	}
}

// TestSourceVerbContinue: an @continue script ran to completion by
// design, so source reports its failures in the rows (status "error") and
// the summary instead of discarding the result with an error return.
func TestSourceVerbContinue(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cont.rng")
	script := "@continue\nshow NOPE\ngen rmat E 8 100 1\nls\n"
	if err := os.WriteFile(path, []byte(script), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(nil)
	r, err := e.Eval("source " + path)
	if err != nil {
		t.Fatalf("@continue script must not error the command: %v", err)
	}
	if len(r.Rows) != 3 || r.Rows[0][2] != "error" || r.Rows[1][2] != "ok" {
		t.Fatalf("rows: %+v", r.Rows)
	}
	if !strings.Contains(r.Message, "2 steps ok, 1 failed") {
		t.Errorf("message: %q", r.Message)
	}
}

func TestSourceNestingBounded(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "self.rng")
	if err := os.WriteFile(path, []byte("source "+path+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	e := New(nil)
	_, err := e.Eval("source " + path)
	if err == nil || !strings.Contains(err.Error(), "nesting") {
		t.Fatalf("self-sourcing script: %v", err)
	}
	if e.sourceDepth != 0 {
		t.Errorf("sourceDepth not restored: %d", e.sourceDepth)
	}
}

func TestRenderScript(t *testing.T) {
	e := New(nil)
	s, _ := ParseScript("@echo\n@time\ngen rmat E 8 100 1\nshow NOPE\nls")
	sr := e.EvalScript(s)
	var b strings.Builder
	RenderScript(&b, sr)
	out := b.String()
	for _, want := range []string{
		"ringo> gen rmat E 8 100 1",
		"E: 100 rows",
		"# step 1:",
		"error: ",
		"1 step(s) skipped after failure",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

// TestSourceVerbProperties pins source's verb-table classification: a
// script may mutate, touch files and restore, so hosts must assume all
// three.
func TestSourceVerbProperties(t *testing.T) {
	if ReadOnly("source f.rng") {
		t.Error("source must not be read-only")
	}
	if !TouchesFiles("source f.rng") {
		t.Error("source must be file-gated")
	}
	if !ReplacesWorkspace("source f.rng") {
		t.Error("source must be treated as workspace-replacing")
	}
}
