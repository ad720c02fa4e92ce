package repl

import (
	"os"
	"sort"
	"strings"
	"testing"
)

// verbNames returns the names of every command the engine evaluates, sorted.
func verbNames() []string {
	out := make([]string, 0, len(verbs))
	for name := range verbs {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// frontendVerbs are documented commands the engine never sees: the
// terminal shell consumes them before Eval.
var frontendVerbs = map[string]bool{"quit": true}

// TestCommandsDocCoversEveryVerb is the drift gate for docs/COMMANDS.md:
// every verb the engine evaluates must have a "### <verb>" section, and
// every documented section must be a live verb (or a known front-end
// command). Adding a verb without documenting it — or documenting one that
// no longer exists — fails here.
func TestCommandsDocCoversEveryVerb(t *testing.T) {
	data, err := os.ReadFile("../../docs/COMMANDS.md")
	if err != nil {
		t.Fatalf("docs/COMMANDS.md missing: %v", err)
	}
	documented := map[string]bool{}
	for _, line := range strings.Split(string(data), "\n") {
		if name, ok := strings.CutPrefix(line, "### "); ok {
			documented[strings.TrimSpace(name)] = true
		}
	}
	for _, v := range verbNames() {
		if !documented[v] {
			t.Errorf("verb %q is not documented in docs/COMMANDS.md (add a %q section)", v, "### "+v)
		}
	}
	known := map[string]bool{}
	for _, v := range verbNames() {
		known[v] = true
	}
	for name := range documented {
		if !known[name] && !frontendVerbs[name] {
			t.Errorf("docs/COMMANDS.md documents %q, which is not a verb the engine evaluates", name)
		}
	}
}

// TestHelpTextCoversEveryVerb keeps the interactive help synopsis honest
// the same way.
func TestHelpTextCoversEveryVerb(t *testing.T) {
	for _, v := range verbNames() {
		if !strings.Contains(HelpText, "\n  "+v+" ") && !strings.Contains(HelpText, "\n  "+v+"\n") {
			t.Errorf("verb %q missing from HelpText", v)
		}
	}
}

// TestVerbTableProperties pins the dispatch-table invariants the
// front-ends rely on.
func TestVerbTableProperties(t *testing.T) {
	if !ReadOnly("algo G wcc") || !ReadOnly("") || !ReadOnly("nonsense x") {
		t.Error("read-only classification wrong")
	}
	if ReadOnly("pagerank PR G") || ReadOnly("restore f") {
		t.Error("mutating verb classified read-only")
	}
	for _, cmd := range []string{"load t f c:int", "loadgraph g f", "save g f", "snapshot f", "restore f"} {
		if !TouchesFiles(cmd) {
			t.Errorf("%q should touch files", cmd)
		}
	}
	if TouchesFiles("algo G wcc") || TouchesFiles("") {
		t.Error("non-file verb classified as file-touching")
	}
	if !ReplacesWorkspace("restore f") || ReplacesWorkspace("rm x") || ReplacesWorkspace("") {
		t.Error("workspace-replace classification wrong")
	}
	// Every replaces verb must also be mutating and file-touching today;
	// a new exception should be a conscious choice.
	for name, v := range verbs {
		if v.replaces && !v.mutates {
			t.Errorf("verb %q replaces the workspace but is not marked mutating", name)
		}
		if v.run == nil {
			t.Errorf("verb %q has no handler", name)
		}
	}
}

// TestAlgoUsageListsEveryAlgorithm holds the `algo` usage error to the
// analyses the verb runs: its synopsis must equal the docs/COMMANDS.md
// heading line, and every name it lists must run on a tiny graph rather
// than answer "unknown algorithm".
func TestAlgoUsageListsEveryAlgorithm(t *testing.T) {
	e := New(nil)
	_, err := e.Eval("algo G")
	if err == nil {
		t.Fatal(`"algo G" ran without an algorithm name`)
	}
	usage, ok := strings.CutPrefix(err.Error(), "usage: ")
	if !ok {
		t.Fatalf(`"algo G" error = %q, want a usage line`, err)
	}
	data, err := os.ReadFile("../../docs/COMMANDS.md")
	if err != nil {
		t.Fatalf("docs/COMMANDS.md missing: %v", err)
	}
	if !strings.Contains(string(data), "\n`"+usage+"`\n") {
		t.Errorf("usage %q is not the docs/COMMANDS.md algo line", usage)
	}
	_, names, ok := strings.Cut(usage, "<graph> ")
	if !ok {
		t.Fatalf("usage %q names no algorithms", usage)
	}
	if _, err := e.Eval("gen rmat E 6 120 3"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.Eval("tograph G E src dst"); err != nil {
		t.Fatal(err)
	}
	list := strings.Split(names, "|")
	if len(list) != 10 {
		t.Errorf("usage lists %d algorithms, want 10: %q", len(list), names)
	}
	for _, name := range list {
		if _, err := e.Eval("algo G " + name); err != nil {
			t.Errorf("algo G %s: %v", name, err)
		}
	}
}
