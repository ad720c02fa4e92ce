package table

import (
	"testing"
	"testing/quick"
)

func TestSelectExprPaperSyntax(t *testing.T) {
	tbl := postsTable(t)
	// The exact form from the paper: ringo.Select(P, 'Tag=Java').
	java, err := tbl.SelectExpr("Tag=Java")
	if err != nil {
		t.Fatal(err)
	}
	if java.NumRows() != 4 {
		t.Fatalf("Tag=Java rows = %d", java.NumRows())
	}
	q, err := tbl.SelectExpr("Type=question")
	if err != nil {
		t.Fatal(err)
	}
	if q.NumRows() != 3 {
		t.Fatalf("Type=question rows = %d", q.NumRows())
	}
}

func TestSelectExprConnectives(t *testing.T) {
	tbl := postsTable(t)
	cases := []struct {
		expr string
		want int
	}{
		{"Tag = Java and Type = question", 2},
		{"Tag = Java or Tag = Go", 6},
		{"not Tag = Java", 2},
		{"Score >= 3 and Score <= 5", 3},
		{"(Tag = Go or Tag = Java) and Type = answer", 3},
		{"UserId < 200 or UserId > 300", 3},
		{"not (Tag = Java and Type = question)", 4},
		{"Score != 0", 5},
	}
	for _, c := range cases {
		got, err := tbl.SelectExpr(c.expr)
		if err != nil {
			t.Fatalf("%q: %v", c.expr, err)
		}
		if got.NumRows() != c.want {
			t.Fatalf("%q: %d rows, want %d", c.expr, got.NumRows(), c.want)
		}
	}
}

func TestSelectExprQuotedValues(t *testing.T) {
	tbl := mustTable(t, Schema{{"name", String}})
	mustAppend(t, tbl, []any{"big cat"}, []any{"dog"}, []any{"3"})
	got, err := tbl.SelectExpr(`name = 'big cat'`)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("quoted value rows = %d", got.NumRows())
	}
	// A numeric-looking value compares as a string against string columns.
	got, err = tbl.SelectExpr(`name = 3`)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("numeric string rows = %d", got.NumRows())
	}
	got, err = tbl.SelectExpr(`"name" = "dog"`)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumRows() != 1 {
		t.Fatalf("double-quoted rows = %d", got.NumRows())
	}
}

func TestSelectExprNumericCoercion(t *testing.T) {
	tbl := postsTable(t)
	// Int constant against a float column and vice versa.
	if _, err := tbl.SelectExpr("Score > 2"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.SelectExpr("UserId = 100"); err != nil {
		t.Fatal(err)
	}
	if _, err := tbl.SelectExpr("UserId = 1.5"); err == nil {
		t.Fatal("float constant on int column accepted")
	}
}

// selectExprInPlace filters t in place with a predicate expression through
// the compaction SelectInPlace uses, reporting the number of rows kept.
func selectExprInPlace(t *Table, expr string) (int, error) {
	node, err := t.parseExpr(expr)
	if err != nil {
		return 0, err
	}
	return t.compactBitmap(t.evalNode(node)), nil
}

func TestSelectExprInPlace(t *testing.T) {
	tbl := postsTable(t)
	n, err := selectExprInPlace(tbl, "Tag = Java and Score > 0")
	if err != nil {
		t.Fatal(err)
	}
	if n != 3 || tbl.NumRows() != 3 {
		t.Fatalf("in-place kept %d", n)
	}
}

func TestSelectExprErrors(t *testing.T) {
	tbl := postsTable(t)
	for _, expr := range []string{
		"",
		"Tag",
		"Tag =",
		"= Java",
		"Missing = x",
		"Tag ~ Java",
		"(Tag = Java",
		"Tag = Java) extra",
		"Tag = Java Type = question", // missing connective
		"Tag = 'unterminated",
		"Tag ! Java",
		"and Tag = Java",
		"Tag = Java and",
		"Tag = Java or",
		"Tag = Java and not",
		"Tag = Java and (",
		"(",
		")",
		"not",
		"not not",
	} {
		if _, err := tbl.SelectExpr(expr); err == nil {
			t.Fatalf("expression %q accepted", expr)
		}
	}
}

func TestSelectExprCaseInsensitiveKeywords(t *testing.T) {
	tbl := postsTable(t)
	got, err := tbl.SelectExpr("Tag = Java AND NOT Type = question OR Tag = Go")
	if err != nil {
		t.Fatal(err)
	}
	// (Java and not question) = 2 answers; or Go = 2 more.
	if got.NumRows() != 4 {
		t.Fatalf("rows = %d", got.NumRows())
	}
}

// Property: SelectExpr("x < v") matches Select(x, LT, v) for random data.
func TestSelectExprMatchesSelectProperty(t *testing.T) {
	f := func(vals []int16, v int16) bool {
		tbl := MustNew(Schema{{"x", Int}})
		for _, x := range vals {
			if err := tbl.AppendRow(int64(x)); err != nil {
				return false
			}
		}
		a, err1 := tbl.SelectExpr("x < " + itoa(int64(v)))
		b, err2 := tbl.Select("x", LT, int64(v))
		if err1 != nil || err2 != nil {
			return false
		}
		return a.NumRows() == b.NumRows()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Fatal(err)
	}
}

func itoa(n int64) string {
	if n == 0 {
		return "0"
	}
	neg := n < 0
	if neg {
		n = -n
	}
	var buf [20]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	if neg {
		i--
		buf[i] = '-'
	}
	return string(buf[i:])
}
