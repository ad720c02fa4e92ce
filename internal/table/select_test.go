package table

import (
	"slices"
	"testing"
	"testing/quick"
)

func TestSelectIntOps(t *testing.T) {
	tbl := postsTable(t)
	cases := []struct {
		op   CmpOp
		val  int64
		want int
	}{
		{EQ, 100, 2}, {NE, 100, 4}, {LT, 200, 2}, {LE, 200, 4}, {GT, 200, 2}, {GE, 200, 4},
	}
	for _, c := range cases {
		got, err := tbl.Select("UserId", c.op, c.val)
		if err != nil {
			t.Fatal(err)
		}
		if got.NumRows() != c.want {
			t.Fatalf("Select(UserId %v %d) = %d rows, want %d", c.op, c.val, got.NumRows(), c.want)
		}
	}
}

func TestSelectStringEqualityFastPath(t *testing.T) {
	tbl := postsTable(t)
	java, err := tbl.Select("Tag", EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	if java.NumRows() != 4 {
		t.Fatalf("Java rows = %d", java.NumRows())
	}
	// A constant that was never interned matches nothing under EQ...
	none, err := tbl.Select("Tag", EQ, "Haskell")
	if err != nil {
		t.Fatal(err)
	}
	if none.NumRows() != 0 {
		t.Fatalf("unseen EQ matched %d rows", none.NumRows())
	}
	// ...and everything under NE.
	all, err := tbl.Select("Tag", NE, "Haskell")
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 6 {
		t.Fatalf("unseen NE matched %d rows", all.NumRows())
	}
}

func TestSelectStringOrdering(t *testing.T) {
	tbl := postsTable(t)
	lt, err := tbl.Select("Tag", LT, "Java")
	if err != nil {
		t.Fatal(err)
	}
	if lt.NumRows() != 2 { // "Go" < "Java"
		t.Fatalf("Tag < Java rows = %d", lt.NumRows())
	}
}

func TestSelectFloat(t *testing.T) {
	tbl := postsTable(t)
	hi, err := tbl.Select("Score", GE, 3.0)
	if err != nil {
		t.Fatal(err)
	}
	if hi.NumRows() != 3 {
		t.Fatalf("Score >= 3 rows = %d", hi.NumRows())
	}
}

func TestSelectPreservesRowIDs(t *testing.T) {
	tbl := postsTable(t)
	sel, err := tbl.Select("Type", EQ, "answer")
	if err != nil {
		t.Fatal(err)
	}
	want := []int64{1, 3, 5}
	if len(sel.RowIDs()) != len(want) {
		t.Fatalf("rows = %d", sel.NumRows())
	}
	for i, id := range sel.RowIDs() {
		if id != want[i] {
			t.Fatalf("row id[%d] = %d, want %d", i, id, want[i])
		}
	}
}

// TestSelectChainKeepsRowIDs selects from selections, which compose their
// row positions over the one base: the original ids survive every step.
func TestSelectChainKeepsRowIDs(t *testing.T) {
	tbl := postsTable(t)
	java, err := tbl.Select("Tag", EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	if java.sel.Load() == nil {
		t.Fatal("a selection of 4 of 6 rows settled at once")
	}
	for _, step := range []struct {
		expr string
		want []int64
	}{
		{"Type = question", []int64{0, 4}},
		{"Score > 0", []int64{0, 1, 5}},
		{"Score > 0 and Type = answer", []int64{1, 5}},
	} {
		got, err := java.SelectExpr(step.expr)
		if err != nil {
			t.Fatal(err)
		}
		if s := got.sel.Load(); s != nil && &s.base.rowIDs[0] != &tbl.data.rowIDs[0] {
			t.Fatalf("%q: a selection of a selection does not read the root base", step.expr)
		}
		if ids := got.RowIDs(); !slices.Equal(ids, step.want) {
			t.Fatalf("%q: row ids %v, want %v", step.expr, ids, step.want)
		}
	}
	if ids := java.RowIDs(); !slices.Equal(ids, []int64{0, 1, 4, 5}) {
		t.Fatalf("settled selection has row ids %v", ids)
	}
}

// TestSelectInPlace filters a table in place the way the program does it:
// the name is rebound to its selection. Original ids survive each filter.
func TestSelectInPlace(t *testing.T) {
	tbl := postsTable(t)
	tbl, err := tbl.Select("Tag", EQ, "Java")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 4 {
		t.Fatalf("in-place filter kept %d rows, want 4", tbl.NumRows())
	}
	if ids := tbl.RowIDs(); !slices.Equal(ids, []int64{0, 1, 4, 5}) {
		t.Fatalf("row ids %v, want [0 1 4 5]", ids)
	}
	// A chained in-place filter still works.
	tbl, err = tbl.Select("Type", EQ, "question")
	if err != nil || tbl.NumRows() != 2 {
		t.Fatalf("second in-place filter = (%d rows, %v)", tbl.NumRows(), err)
	}
	if ids := tbl.RowIDs(); !slices.Equal(ids, []int64{0, 4}) {
		t.Fatalf("row ids %v, want [0 4]", ids)
	}
}

// TestSelectExprInPlace rebinds a table to the selection of an expression.
func TestSelectExprInPlace(t *testing.T) {
	tbl := postsTable(t)
	tbl, err := tbl.SelectExpr("Tag = Java and Score > 0")
	if err != nil {
		t.Fatal(err)
	}
	if tbl.NumRows() != 3 {
		t.Fatalf("in-place filter kept %d rows, want 3", tbl.NumRows())
	}
	if ids := tbl.RowIDs(); !slices.Equal(ids, []int64{0, 1, 5}) {
		t.Fatalf("row ids %v, want [0 1 5]", ids)
	}
}

func TestSelectErrors(t *testing.T) {
	tbl := postsTable(t)
	if _, err := tbl.Select("nope", EQ, 1); err == nil {
		t.Fatal("missing column accepted")
	}
	if _, err := tbl.Select("UserId", EQ, "str"); err == nil {
		t.Fatal("string constant on int column accepted")
	}
	if _, err := tbl.Select("Tag", EQ, 7); err == nil {
		t.Fatal("int constant on string column accepted")
	}
	if _, err := tbl.Select("Score", EQ, "x"); err == nil {
		t.Fatal("string constant on float column accepted")
	}
}

func TestSelectFunc(t *testing.T) {
	tbl := postsTable(t)
	users, _ := tbl.IntCol("UserId")
	sel := tbl.SelectFunc(func(row int) bool { return users[row]%200 == 0 })
	if sel.NumRows() != 3 {
		t.Fatalf("SelectFunc rows = %d", sel.NumRows())
	}
}

func TestSelectEmptyTable(t *testing.T) {
	tbl := mustTable(t, Schema{{"a", Int}})
	sel, err := tbl.Select("a", EQ, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.NumRows() != 0 {
		t.Fatal("select on empty table returned rows")
	}
}

// Property: Select(EQ,v) and Select(NE,v) partition the table.
func TestSelectPartitionProperty(t *testing.T) {
	f := func(vals []int8, v int8) bool {
		tbl := MustNew(Schema{{"x", Int}})
		for _, x := range vals {
			if err := tbl.AppendRow(int64(x)); err != nil {
				return false
			}
		}
		eq, err1 := tbl.Select("x", EQ, int64(v))
		ne, err2 := tbl.Select("x", NE, int64(v))
		if err1 != nil || err2 != nil {
			return false
		}
		return eq.NumRows()+ne.NumRows() == tbl.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: LT + GE also partition, and selected rows all satisfy the
// predicate.
func TestSelectThresholdProperty(t *testing.T) {
	f := func(vals []int16, v int16) bool {
		tbl := MustNew(Schema{{"x", Int}})
		for _, x := range vals {
			if err := tbl.AppendRow(int64(x)); err != nil {
				return false
			}
		}
		lt, _ := tbl.Select("x", LT, int64(v))
		ge, _ := tbl.Select("x", GE, int64(v))
		if lt.NumRows()+ge.NumRows() != tbl.NumRows() {
			return false
		}
		col, _ := lt.IntCol("x")
		for _, x := range col {
			if x >= int64(v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestSelectLargeParallelPath(t *testing.T) {
	// Enough rows that the two-pass parallel select spans multiple ranges.
	tbl := MustNew(Schema{{"x", Int}})
	const n = 50_000
	for i := 0; i < n; i++ {
		if err := tbl.AppendRow(i % 97); err != nil {
			t.Fatal(err)
		}
	}
	sel, err := tbl.Select("x", EQ, 13)
	if err != nil {
		t.Fatal(err)
	}
	want := 0
	for i := 0; i < n; i++ {
		if i%97 == 13 {
			want++
		}
	}
	if sel.NumRows() != want {
		t.Fatalf("parallel select = %d rows, want %d", sel.NumRows(), want)
	}
	// Output preserves input order.
	col, _ := sel.IntCol("x")
	for _, x := range col {
		if x != 13 {
			t.Fatal("wrong value selected")
		}
	}
	ids := sel.RowIDs()
	for i := 1; i < len(ids); i++ {
		if ids[i-1] >= ids[i] {
			t.Fatal("selected rows out of input order")
		}
	}
}
