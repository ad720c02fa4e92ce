package main

import (
	"os"
	"regexp"
	"strings"
	"testing"
)

// TestSelectReports takes the table names from the usage line in the doc
// comment, so it also holds that line to the list -table accepts.
func TestSelectReports(t *testing.T) {
	src, err := os.ReadFile("main.go")
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`ringo-bench \[-table ([^\]\s]+)\]`).FindSubmatch(src)
	if m == nil {
		t.Fatal("main.go has no `ringo-bench [-table ...]` usage line")
	}
	if got, want := string(m[1]), tableChoices(); got != want {
		t.Errorf("usage line lists -table %s; the flag accepts %s", got, want)
	}
	for _, name := range strings.Split(string(m[1]), "|") {
		got, err := selectReports(name)
		switch {
		case err != nil:
			t.Errorf("selectReports(%q): %v", name, err)
		case name == "all" && len(got) != len(reports):
			t.Errorf(`selectReports("all") = %d reports, want %d`, len(got), len(reports))
		case name != "all" && (len(got) != 1 || got[0].name != name):
			t.Errorf("selectReports(%q) did not select that table alone", name)
		}
	}
	// incr names a report the harness no longer has.
	for _, bad := range []string{"incr", "nope", "", "ALL"} {
		_, err := selectReports(bad)
		if err == nil {
			t.Errorf("selectReports(%q) accepted an unknown table", bad)
		} else if !strings.Contains(err.Error(), tableChoices()) {
			t.Errorf("selectReports(%q) error %q does not name the valid tables", bad, err)
		}
	}
}
