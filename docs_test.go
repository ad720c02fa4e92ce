package ringo_test

import (
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// docRef matches repo-relative markdown/file references worth checking:
// docs/*.md pages, root-level UPPERCASE.md files, and shipped example
// artifacts like examples/quickstart/analysis.rng.
var docRef = regexp.MustCompile(`(?:docs/[A-Za-z0-9_.-]+\.md|\b[A-Z][A-Z0-9_]*\.md\b|examples/[A-Za-z0-9_/.-]+\.rng)`)

// benchTableRef matches a `ringo-bench -table <name>` invocation in prose,
// which may wrap between the words; benchUsage matches the usage line in
// cmd/ringo-bench's doc comment that lists the tables -table accepts.
var (
	benchTableRef = regexp.MustCompile(`ringo-bench\s+-table\s+([A-Za-z0-9_-]+)`)
	benchUsage    = regexp.MustCompile(`ringo-bench \[-table ([^\]\s]+)\]`)
)

// TestDocReferencesResolve is the link check of the docs tree: every
// docs/*.md page, root doc file or shipped script referenced from
// README.md, doc.go or any docs/*.md must exist in the repository, and
// every `ringo-bench -table <name>` they spell must name a table on
// cmd/ringo-bench's usage line. This is what catches a renamed or
// never-written page or report that prose still points at (doc.go
// referenced DESIGN.md and EXPERIMENTS.md for several PRs after they
// stopped existing).
func TestDocReferencesResolve(t *testing.T) {
	harness, err := os.ReadFile("cmd/ringo-bench/main.go")
	if err != nil {
		t.Fatal(err)
	}
	usage := benchUsage.FindSubmatch(harness)
	if usage == nil {
		t.Fatal("cmd/ringo-bench/main.go has no `ringo-bench [-table ...]` usage line")
	}
	benchTables := strings.Split(string(usage[1]), "|")

	sources := []string{"README.md", "doc.go"}
	pages, err := filepath.Glob("docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	if len(pages) == 0 {
		t.Fatal("no docs/*.md pages found")
	}
	sources = append(sources, pages...)

	for _, src := range sources {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatalf("reading %s: %v", src, err)
		}
		for _, ref := range docRef.FindAllString(string(data), -1) {
			// A page naming itself or a sibling by bare name ("COMMANDS.md
			// is the verb reference") refers into docs/ when the file lives
			// there; try both roots.
			candidates := []string{ref}
			if !strings.Contains(ref, "/") {
				candidates = append(candidates, filepath.Join("docs", ref))
			}
			found := false
			for _, c := range candidates {
				if _, err := os.Stat(c); err == nil {
					found = true
					break
				}
			}
			if !found {
				t.Errorf("%s references %q, which does not exist", src, ref)
			}
		}
		for _, m := range benchTableRef.FindAllStringSubmatch(string(data), -1) {
			if !slices.Contains(benchTables, m[1]) {
				t.Errorf("%s runs `ringo-bench -table %s`; the usage line lists only %s",
					src, m[1], usage[1])
			}
		}
	}
}

// TestFormatsDocNamesEveryMagic keeps docs/FORMATS.md anchored to the
// codecs: each on-disk magic string must appear in the page, so adding or
// renaming a format without documenting its layout fails here.
func TestFormatsDocNamesEveryMagic(t *testing.T) {
	data, err := os.ReadFile("docs/FORMATS.md")
	if err != nil {
		t.Fatalf("docs/FORMATS.md missing: %v", err)
	}
	for _, magic := range []string{"RNGS", "RTBL", "RNGU", "RNGM", "# node "} {
		if !strings.Contains(string(data), magic) {
			t.Errorf("docs/FORMATS.md does not mention the %q format", magic)
		}
	}
}
