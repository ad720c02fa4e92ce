package core_test

import (
	"fmt"
	"testing"

	"ringo/internal/core"
	"ringo/internal/repl"
)

// TestPaperTablesReportTheBoundGraph holds the paper harness to the
// product: on the tiny specs, the graph Table 2 counts and sizes is the
// view the tograph verb binds, and the results Tables 3 and 6 print are
// what the algo verbs print on that binding.
func TestPaperTablesReportTheBoundGraph(t *testing.T) {
	specs := []core.Spec{core.LJSim(0.002), core.TWSim(0.0001)}
	t2, err := core.Table2(specs)
	if err != nil {
		t.Fatal(err)
	}
	t3, err := core.Table3(specs)
	if err != nil {
		t.Fatal(err)
	}
	t6, err := core.Table6(specs[0])
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range specs {
		ws := core.NewWorkspace()
		ws.Set("E", core.Object{Table: s.CachedEdgeTable()})
		e := repl.New(ws)
		eval := func(cmd string) string {
			r, err := e.Eval(cmd)
			if err != nil {
				t.Fatalf("%s: %s: %v", s.Name, cmd, err)
			}
			return r.Message
		}
		eval("tograph G E src dst")
		v, err := ws.DirectedView("G")
		if err != nil {
			t.Fatal(err)
		}
		want := []string{fmt.Sprint(v.NumNodes()), fmt.Sprint(v.NumEdges()), core.MB(v.Bytes())}
		if row := t2.Rows[i]; row[2] != want[0] || row[3] != want[1] || row[5] != want[2] {
			t.Errorf("%s: Table 2 prints nodes, edges, graph size %v; the bound view has %v",
				s.Name, []string{row[2], row[3], row[5]}, want)
		}
		if got, want := t3.Rows[2*i+1][3], eval("algo G triangles"); got != want {
			t.Errorf("%s: Table 3 prints %q, the triangles verb %q", s.Name, got, want)
		}
		if i > 0 {
			continue // Table 6 runs on the LiveJournal stand-in only
		}
		if got, want := "3-core: "+t6.Rows[0][2], eval("algo G 3core"); got != want {
			t.Errorf("%s: Table 6 prints %q, the 3core verb %q", s.Name, got, want)
		}
		var count, largest, vcount, vlargest int
		if _, err := fmt.Sscanf(t6.Rows[2][2], "%d components, largest %d", &count, &largest); err != nil {
			t.Fatalf("Table 6 SCC cell %q: %v", t6.Rows[2][2], err)
		}
		msg := eval("algo G scc")
		if _, err := fmt.Sscanf(msg, "%d strong components, largest %d", &vcount, &vlargest); err != nil {
			t.Fatalf("scc verb %q: %v", msg, err)
		}
		if count != vcount || largest != vlargest {
			t.Errorf("%s: Table 6 SCC %d components, largest %d; the scc verb %q", s.Name, count, largest, msg)
		}
	}
}
