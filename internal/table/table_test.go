package table

import (
	"testing"
)

func mustTable(t *testing.T, schema Schema) *Table {
	t.Helper()
	tbl, err := New(schema)
	if err != nil {
		t.Fatal(err)
	}
	return tbl
}

func mustAppend(t *testing.T, tbl *Table, rows ...[]any) {
	t.Helper()
	for _, r := range rows {
		if err := tbl.AppendRow(r...); err != nil {
			t.Fatal(err)
		}
	}
}

// postsTable builds a small StackOverflow-like table used across tests,
// mirroring the paper's §4.1 demo schema.
func postsTable(t *testing.T) *Table {
	tbl := mustTable(t, Schema{
		{"PostId", Int}, {"UserId", Int}, {"Type", String}, {"Tag", String}, {"Score", Float},
	})
	mustAppend(t, tbl,
		[]any{1, 100, "question", "Java", 3.0},
		[]any{2, 200, "answer", "Java", 5.0},
		[]any{3, 300, "question", "Go", 1.0},
		[]any{4, 100, "answer", "Go", 2.5},
		[]any{5, 200, "question", "Java", 0.0},
		[]any{6, 400, "answer", "Java", 4.0},
	)
	return tbl
}

func TestNewRejectsBadSchemas(t *testing.T) {
	if _, err := New(nil); err == nil {
		t.Fatal("empty schema accepted")
	}
	if _, err := New(Schema{{"", Int}}); err == nil {
		t.Fatal("empty column name accepted")
	}
	if _, err := New(Schema{{"a", Int}, {"a", Float}}); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if _, err := New(Schema{{"a", Type(99)}}); err == nil {
		t.Fatal("invalid type accepted")
	}
}

func TestAppendRowAndAccessors(t *testing.T) {
	tbl := postsTable(t)
	if tbl.NumRows() != 6 || tbl.NumCols() != 5 {
		t.Fatalf("dims = (%d,%d)", tbl.NumRows(), tbl.NumCols())
	}
	if got := tbl.IntAt(tbl.ColIndex("PostId"), 2); got != 3 {
		t.Fatalf("IntAt = %d", got)
	}
	if got := tbl.StrAt(tbl.ColIndex("Type"), 1); got != "answer" {
		t.Fatalf("StrAt = %q", got)
	}
	if got := tbl.FloatAt(tbl.ColIndex("Score"), 3); got != 2.5 {
		t.Fatalf("FloatAt = %v", got)
	}
	if got := tbl.Value(tbl.ColIndex("Tag"), 0); got != "Java" {
		t.Fatalf("Value = %v", got)
	}
}

func TestAppendRowTypeErrors(t *testing.T) {
	tbl := mustTable(t, Schema{{"a", Int}, {"b", String}})
	if err := tbl.AppendRow(1); err == nil {
		t.Fatal("wrong arity accepted")
	}
	if err := tbl.AppendRow("x", "y"); err == nil {
		t.Fatal("string into int column accepted")
	}
	if err := tbl.AppendRow(1, 2); err == nil {
		t.Fatal("int into string column accepted")
	}
}

func TestRowIDsPersistentAndDense(t *testing.T) {
	tbl := postsTable(t)
	ids := tbl.RowIDs()
	for i, id := range ids {
		if id != int64(i) {
			t.Fatalf("row %d has id %d", i, id)
		}
	}
}

func TestColIndexAndType(t *testing.T) {
	tbl := postsTable(t)
	if tbl.ColIndex("nope") != -1 {
		t.Fatal("found absent column")
	}
	typ, err := tbl.ColType("Score")
	if err != nil || typ != Float {
		t.Fatalf("ColType = (%v,%v)", typ, err)
	}
	if _, err := tbl.ColType("nope"); err == nil {
		t.Fatal("ColType missing column did not error")
	}
}

func TestProjectPreservesRowIDs(t *testing.T) {
	tbl := postsTable(t)
	p, err := tbl.Project("UserId", "Tag")
	if err != nil {
		t.Fatal(err)
	}
	if p.NumCols() != 2 || p.NumRows() != tbl.NumRows() {
		t.Fatalf("dims = (%d,%d)", p.NumRows(), p.NumCols())
	}
	for i, id := range p.RowIDs() {
		if id != tbl.RowIDs()[i] {
			t.Fatal("Project changed row ids")
		}
	}
	if p.StrAt(1, 0) != "Java" {
		t.Fatalf("projected value = %q", p.StrAt(1, 0))
	}
	if _, err := tbl.Project("nope"); err == nil {
		t.Fatal("Project on missing column did not error")
	}
	if _, err := tbl.Project(); err == nil {
		t.Fatal("Project with no columns did not error")
	}
}

func TestCloneIsDeep(t *testing.T) {
	tbl := postsTable(t)
	c := tbl.Clone()
	mustAppend(t, c, []any{7, 500, "answer", "Rust", 1.0})
	if tbl.NumRows() != 6 {
		t.Fatal("clone append mutated original")
	}
	if c.NumRows() != 7 {
		t.Fatalf("clone rows = %d", c.NumRows())
	}
	if c.StrAt(c.ColIndex("Tag"), 6) != "Rust" {
		t.Fatal("clone lost appended value")
	}
}

func TestAddColumns(t *testing.T) {
	tbl := postsTable(t)
	if err := tbl.AddIntColumn("Views", []int64{1, 2, 3, 4, 5, 6}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.AddFloatColumn("Rank", make([]float64, 6)); err != nil {
		t.Fatal(err)
	}
	if tbl.NumCols() != 7 {
		t.Fatalf("cols = %d", tbl.NumCols())
	}
	if err := tbl.AddIntColumn("Views", make([]int64, 6)); err == nil {
		t.Fatal("duplicate column accepted")
	}
	if err := tbl.AddIntColumn("Short", make([]int64, 2)); err == nil {
		t.Fatal("length mismatch accepted")
	}
}

func TestBytesGrows(t *testing.T) {
	tbl := mustTable(t, Schema{{"a", Int}, {"s", String}})
	empty := tbl.Bytes()
	for i := 0; i < 1000; i++ {
		mustAppend(t, tbl, []any{i, "some-string"})
	}
	if tbl.Bytes() <= empty {
		t.Fatal("Bytes did not grow")
	}
}

func TestColAggregatesHelpers(t *testing.T) {
	tbl := postsTable(t)
	sum, err := tbl.ColSumInt("UserId")
	if err != nil {
		t.Fatal(err)
	}
	if sum != 100+200+300+100+200+400 {
		t.Fatalf("ColSumInt = %d", sum)
	}
	min, max, err := tbl.ColMinMaxFloat("Score")
	if err != nil {
		t.Fatal(err)
	}
	if min != 0.0 || max != 5.0 {
		t.Fatalf("min/max = %v/%v", min, max)
	}
	if _, _, err := mustTable(t, Schema{{"a", Int}}).ColMinMaxFloat("a"); err == nil {
		t.Fatal("min/max of empty table did not error")
	}
	if _, err := tbl.ColSumInt("Tag"); err == nil {
		t.Fatal("ColSumInt on string column accepted")
	}
}

func TestIntColFloatColAccessors(t *testing.T) {
	tbl := postsTable(t)
	if _, err := tbl.IntCol("Score"); err == nil {
		t.Fatal("IntCol on float column accepted")
	}
	col, err := tbl.IntCol("UserId")
	if err != nil || len(col) != 6 {
		t.Fatalf("IntCol = (%d,%v)", len(col), err)
	}
	fcol, err := tbl.FloatCol("Score")
	if err != nil || len(fcol) != 6 {
		t.Fatalf("FloatCol = (%d,%v)", len(fcol), err)
	}
	if _, err := tbl.FloatCol("UserId"); err == nil {
		t.Fatal("FloatCol on int column accepted")
	}
}

func TestHead(t *testing.T) {
	tbl := postsTable(t)
	h := tbl.Head(2)
	if h.NumRows() != 2 {
		t.Fatalf("Head rows = %d", h.NumRows())
	}
	if h.RowIDs()[1] != tbl.RowIDs()[1] {
		t.Fatal("Head changed row ids")
	}
	if tbl.Head(100).NumRows() != 6 {
		t.Fatal("Head beyond length wrong")
	}
}
