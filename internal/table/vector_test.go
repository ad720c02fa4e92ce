package table

import (
	"fmt"
	"math/rand"
	"testing"
)

// The vectorized bitmap backend (vector.go) and the per-row closure path
// (compileExpr + SelectFunc, closure_test.go) must be observationally
// identical: same rows, same order, same row ids, for any expression either
// accepts. These tests drive that equivalence with randomized tables and
// expression trees; the closure path is the oracle.

// equivTable builds a table whose columns exercise every leaf kind: small-
// range ints (negative values included), wider ints, fractional floats, and
// strings from a small vocabulary so equality, ordering and never-interned
// constants all occur.
func equivTable(tb testing.TB, rows int, rng *rand.Rand) *Table {
	tb.Helper()
	tbl := MustNew(Schema{{"a", Int}, {"b", Int}, {"f", Float}, {"s", String}})
	words := []string{"go", "java", "sql", "ml", "rust", "c"}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow(
			int64(rng.Intn(8)-2),
			int64(rng.Intn(100)),
			float64(rng.Intn(40))/4,
			words[rng.Intn(len(words))],
		); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

var equivOps = []string{"=", "!=", "<", "<=", ">", ">="}

// equivExpr generates a random predicate over equivTable's columns. Depth
// bounds the tree; OR-of-equality chains on one column are generated
// explicitly so the fused membership-scan path is exercised, including
// chains with never-interned string constants.
func equivExpr(rng *rand.Rand, depth int) string {
	if depth <= 0 || rng.Intn(3) == 0 {
		switch rng.Intn(4) {
		case 0:
			return fmt.Sprintf("a %s %d", equivOps[rng.Intn(len(equivOps))], rng.Intn(10)-4)
		case 1:
			return fmt.Sprintf("b %s %d", equivOps[rng.Intn(len(equivOps))], rng.Intn(120)-10)
		case 2:
			return fmt.Sprintf("f %s %.2f", equivOps[rng.Intn(len(equivOps))], float64(rng.Intn(48)-4)/4)
		default:
			words := []string{"go", "java", "sql", "ml", "rust", "c", "haskell", "zz"}
			return fmt.Sprintf("s %s %s", equivOps[rng.Intn(len(equivOps))], words[rng.Intn(len(words))])
		}
	}
	switch rng.Intn(4) {
	case 0:
		return "not (" + equivExpr(rng, depth-1) + ")"
	case 1:
		return "(" + equivExpr(rng, depth-1) + ") and (" + equivExpr(rng, depth-1) + ")"
	case 2:
		return "(" + equivExpr(rng, depth-1) + ") or (" + equivExpr(rng, depth-1) + ")"
	default:
		// An IN-list: 2-4 equalities on one column, the fusion trigger.
		if rng.Intn(2) == 0 {
			words := []string{"go", "java", "sql", "ml", "rust", "haskell"}
			expr := "s = " + words[rng.Intn(len(words))]
			for n := rng.Intn(3) + 1; n > 0; n-- {
				expr += " or s = " + words[rng.Intn(len(words))]
			}
			return expr
		}
		expr := fmt.Sprintf("a = %d", rng.Intn(10)-4)
		for n := rng.Intn(3) + 1; n > 0; n-- {
			expr += fmt.Sprintf(" or a = %d", rng.Intn(10)-4)
		}
		return expr
	}
}

// sameSelection fails unless got and want selected exactly the same rows in
// the same order, checked by persistent row id and by cell values.
func sameSelection(t *testing.T, got, want *Table, ctx string) {
	t.Helper()
	if got.NumRows() != want.NumRows() {
		t.Fatalf("%s: %d rows vs %d", ctx, got.NumRows(), want.NumRows())
	}
	gids, wids := got.RowIDs(), want.RowIDs()
	for i := range gids {
		if gids[i] != wids[i] {
			t.Fatalf("%s: row id[%d] = %d, want %d", ctx, i, gids[i], wids[i])
		}
	}
	ga, _ := got.IntCol("a")
	wa, _ := want.IntCol("a")
	for i := range ga {
		if ga[i] != wa[i] {
			t.Fatalf("%s: a[%d] = %d, want %d", ctx, i, ga[i], wa[i])
		}
	}
}

func TestVectorizedMatchesClosureRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for iter := 0; iter < 60; iter++ {
		tbl := equivTable(t, 100+rng.Intn(2000), rng)
		expr := equivExpr(rng, 3)
		pred, cerr := tbl.compileExpr(expr)
		vec, verr := tbl.SelectExpr(expr)
		if (cerr == nil) != (verr == nil) {
			t.Fatalf("paths disagree on acceptance of %q: closure=%v vectorized=%v", expr, cerr, verr)
		}
		if cerr != nil {
			continue
		}
		sameSelection(t, vec, tbl.SelectFunc(pred), fmt.Sprintf("expr %q", expr))
	}
}

// TestOrEqFusionMatchesClosure pins the IN-list fusion cases by hand:
// chains that fuse, chains that must not (mixed columns, mixed operators,
// floats), and chains where some or all constants were never interned.
func TestOrEqFusionMatchesClosure(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	tbl := equivTable(t, 4000, rng)
	for _, expr := range []string{
		"a = 1 or a = 3",
		"a = 1 or a = 3 or a = -2 or a = 7",
		"s = go or s = sql",
		"s = go or s = haskell",          // one constant never interned
		"s = haskell or s = zz",          // all constants never interned
		"a = 1 or b = 1",                 // mixed columns: no fusion
		"a = 1 or a != 3",                // mixed operators: no fusion
		"f = 1.25 or f = 2.5",            // floats: no fusion
		"a = 1 or a = 3 or s = go",       // mixed columns across the chain
		"(a = 1 or a = 3) and s != java", // fused chain under a connective
		"not (s = go or s = java or s = c)",
		"a = 1 or a = 1 or a = 1",     // duplicate constants
		"a = 1000000 or a = -1000000", // wide span: list-compare fallback
	} {
		pred, err := tbl.compileExpr(expr)
		if err != nil {
			t.Fatalf("compile %q: %v", expr, err)
		}
		vec, err := tbl.SelectExpr(expr)
		if err != nil {
			t.Fatalf("vectorized %q: %v", expr, err)
		}
		sameSelection(t, vec, tbl.SelectFunc(pred), fmt.Sprintf("expr %q", expr))
	}
}

// TestSelectChainMatchesConjunction checks that filtering a selection —
// a leaf scan through its row positions, composed over the base — keeps
// exactly the rows one filter by the conjunction keeps.
func TestSelectChainMatchesConjunction(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for iter := 0; iter < 20; iter++ {
		tbl := equivTable(t, 1500, rng)
		first, second := equivExpr(rng, 2), equivExpr(rng, 2)
		want, err := tbl.SelectExpr("(" + first + ") and (" + second + ")")
		if err != nil {
			continue // a rejected expression is covered above
		}
		step, err := tbl.SelectExpr(first)
		if err != nil {
			t.Fatal(err)
		}
		got, err := step.SelectExpr(second)
		if err != nil {
			t.Fatalf("%q over a selection: %v", second, err)
		}
		sameSelection(t, got, want, fmt.Sprintf("%q then %q", first, second))
		got, err = step.Select("a", GE, int64(2))
		if err != nil {
			t.Fatal(err)
		}
		want, _ = tbl.SelectExpr("(" + first + ") and a >= 2")
		sameSelection(t, got, want, fmt.Sprintf("%q then a >= 2", first))
	}
}

// benchTable is the shared fixture for the selection benchmarks: ~1% of
// rows match k = 7, the regime where the scan cost dominates the gather.
func benchTable(b *testing.B, rows int) *Table {
	b.Helper()
	rng := rand.New(rand.NewSource(42))
	tbl := MustNew(Schema{{"k", Int}, {"s", String}})
	words := []string{"go", "java", "sql", "ml"}
	for i := 0; i < rows; i++ {
		if err := tbl.AppendRow(int64(rng.Intn(128)), words[rng.Intn(len(words))]); err != nil {
			b.Fatal(err)
		}
	}
	return tbl
}

const benchRows = 1 << 17

// BenchmarkSelectRow is the per-row closure path over the bench fixture.
func BenchmarkSelectRow(b *testing.B) {
	tbl := benchTable(b, benchRows)
	pred, err := tbl.compileExpr("k = 7")
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tbl.SelectFunc(pred)
	}
}

// BenchmarkSelectVec is the same predicate through the column-at-a-time
// bitmap backend.
func BenchmarkSelectVec(b *testing.B) {
	tbl := benchTable(b, benchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := tbl.SelectExpr("k = 7"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSelectIndexed is the warm equality-index path: lookup a stored
// bitmap and gather, no scan.
func BenchmarkSelectIndexed(b *testing.B) {
	tbl := benchTable(b, benchRows)
	idx, err := BuildEqIndex(tbl, "k", 0)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm, ok := idx.Lookup(tbl, EQ, int64(7))
		if !ok {
			b.Fatal("index not servable")
		}
		if _, err := tbl.SelectBitmap(bm); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGroupBy guards the single-column group-by fast path.
func BenchmarkGroupBy(b *testing.B) {
	tbl := benchTable(b, benchRows)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := tbl.Group("k"); err != nil {
			b.Fatal(err)
		}
	}
}
