package table

import "testing"

// FuzzSelectExpr drives the expression lexer, parser and both execution
// backends with arbitrary strings and requires them to agree: the compiled
// closure and the vectorized bitmap evaluator either both reject the
// expression, or both accept it and select exactly the same rows. This is
// the contract that lets SelectExpr route through the vectorized backend
// without changing what any caller observes, and it hardens the parser
// against the truncated/dangling inputs a fixed corpus misses.
func FuzzSelectExpr(f *testing.F) {
	seeds := []string{
		"",
		"Tag = Java",
		"Tag = Java and Score > 1",
		"not (Tag = Go) or Type = question",
		"Tag = Java or Tag = Go or Tag = C",
		"Tag = Java or Tag = Haskell",
		"UserId >= 200 and UserId <= 300",
		"Score >= 2.5",
		"Tag = 'Java' AND NOT Type = answer",
		"Tag < Java",
		"(Tag = Java",
		"Tag = Java and",
		"Tag = Java or",
		"Tag =",
		"= Java",
		"not",
		"Tag ! Java",
		"Tag = 'unterminated",
		"Missing = 1",
		"UserId = notanint",
		"Tag = Java) and (Type = question",
		"a\x00b = 1",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, expr string) {
		if len(expr) > 1<<12 {
			t.Skip("outsized expression")
		}
		tbl := fuzzPostsTable(t)
		pred, cerr := tbl.compileExpr(expr)
		vec, verr := tbl.SelectExpr(expr)
		if (cerr == nil) != (verr == nil) {
			t.Fatalf("paths disagree on acceptance of %q: closure=%v vectorized=%v", expr, cerr, verr)
		}
		if cerr != nil {
			return
		}
		want := tbl.SelectFunc(pred)
		if vec.NumRows() != want.NumRows() {
			t.Fatalf("%q: vectorized %d rows, closure %d", expr, vec.NumRows(), want.NumRows())
		}
		vids, wids := vec.RowIDs(), want.RowIDs()
		for i := range vids {
			if vids[i] != wids[i] {
				t.Fatalf("%q: row id[%d] = %d, closure %d", expr, i, vids[i], wids[i])
			}
		}
	})
}

// fuzzPostsTable is postsTable without the *testing.T helper plumbing, so
// the fuzz target can construct its fixture per execution (fuzz workers run
// in parallel; sharing one table would race on nothing but still reads
// cleaner built fresh — it is 6 rows).
func fuzzPostsTable(t *testing.T) *Table {
	tbl := MustNew(Schema{
		{"PostId", Int}, {"UserId", Int}, {"Type", String}, {"Tag", String}, {"Score", Float},
	})
	for _, row := range [][]any{
		{1, 100, "question", "Java", 3.0},
		{2, 200, "answer", "Java", 5.0},
		{3, 300, "question", "Go", 1.0},
		{4, 100, "answer", "Go", 2.5},
		{5, 200, "question", "Java", 0.0},
		{6, 400, "answer", "Java", 4.0},
	} {
		if err := tbl.AppendRow(row...); err != nil {
			t.Fatal(err)
		}
	}
	return tbl
}
