package table

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"slices"
	"sync"
	"testing"

	"ringo/internal/bitmap"
)

// A selection (Select, SelectExpr, SelectBitmap, SelectFunc) copies no cell
// until a verb needs every column. These tests hold every reader of a
// selection — in place or after settling — to the same reader over a table
// that was settled after every step of the same chain.

// chainFloats are the Float cells a chain table draws from: NaN, both
// zeros and both infinities among ordinary values.
var chainFloats = []float64{0, math.Copysign(0, -1), 1.5, -2, math.NaN(), math.Inf(1), math.Inf(-1), 3.25}

// chainTable decodes data into a table of equivTable's columns, four bytes
// a row.
func chainTable(tb testing.TB, data []byte) *Table {
	tb.Helper()
	tbl := MustNew(Schema{{"a", Int}, {"b", Int}, {"f", Float}, {"s", String}})
	words := []string{"go", "java", "sql", "ml", "rust", "c"}
	for i := 0; i+4 <= len(data); i += 4 {
		if err := tbl.AppendRow(int64(data[i]%8)-2, int64(data[i+1]), chainFloats[data[i+2]%8], words[data[i+3]%6]); err != nil {
			tb.Fatal(err)
		}
	}
	return tbl
}

// chainStep is one selection step of a chain: kind picks Select,
// SelectExpr, SelectBitmap or SelectFunc, and seed its arguments.
type chainStep struct {
	kind int
	seed int64
}

// apply runs the step over t. Its arguments depend only on the seed and
// t's row count, so a lazy and a settled t select the same rows.
func (s chainStep) apply(t *Table) (*Table, error) {
	rng := rand.New(rand.NewSource(s.seed))
	switch s.kind {
	case 0:
		ops := []CmpOp{EQ, NE, LT, LE, GT, GE}
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(3) {
		case 0:
			return t.Select("a", op, int64(rng.Intn(8)-3))
		case 1:
			return t.Select("f", op, chainFloats[rng.Intn(len(chainFloats))])
		default:
			return t.Select("s", op, []string{"go", "java", "ml", "zz"}[rng.Intn(4)])
		}
	case 1:
		return t.SelectExpr(equivExpr(rng, 2))
	case 2:
		bm := bitmap.New(t.NumRows())
		keep := rng.Intn(4) // keeps about keep/4 of the rows
		for row := range t.NumRows() {
			if rng.Intn(4) < keep {
				bm.Set(row)
			}
		}
		return t.SelectBitmap(bm)
	default:
		mod := int64(rng.Intn(3) + 2)
		return t.SelectFunc(func(row int) bool {
			return t.IntAt(1, row)%mod != 0 || math.IsNaN(t.FloatAt(2, row))
		}), nil
	}
}

// runChain applies steps to base. With settle set it settles the table
// after every step, which is the reference a lazy chain is held to.
func runChain(base *Table, steps []chainStep, settle bool) (*Table, error) {
	t := base
	for _, s := range steps {
		next, err := s.apply(t)
		if err != nil {
			return nil, err
		}
		if settle {
			next.settle()
		}
		t = next
	}
	return t, nil
}

// chainSteps decodes 1-3 steps from code and seed.
func chainSteps(code uint8, seed int64) []chainStep {
	steps := make([]chainStep, 1+int(code&3)%3)
	for k := range steps {
		steps[k] = chainStep{kind: int(code>>(2+2*k)) & 3, seed: seed + int64(k)}
	}
	return steps
}

// checkChain runs every consumer on a fresh lazy chain and on the same
// chain settled at each step, and fails on any difference.
func checkChain(t *testing.T, data []byte, steps []chainStep) {
	base := chainTable(t, data)
	mk := func(settle bool) *Table {
		out, err := runChain(base, steps, settle)
		if err != nil {
			t.Fatalf("%v: %v", steps, err)
		}
		return out
	}
	if _, err := runChain(base, steps, false); err != nil {
		if _, rerr := runChain(base, steps, true); rerr == nil {
			t.Fatalf("%v: the lazy chain fails (%v), the settled one does not", steps, err)
		}
		return
	}
	key := []string{"a", "f", "s"}[steps[0].seed&3%3]

	checkSame(t, "cells", mk(false), nil, mk(true), nil)
	tableOps := []struct {
		name string
		fn   func(x *Table) (*Table, error)
	}{
		{"join left", func(x *Table) (*Table, error) { return x.Join(base, key, key) }},
		{"join right", func(x *Table) (*Table, error) { return base.Join(x, key, key) }},
		{"self join", func(x *Table) (*Table, error) { return x.Join(x, key, key) }},
		{"left join left", func(x *Table) (*Table, error) { return x.LeftJoin(base, key, key, -7) }},
		{"left join right", func(x *Table) (*Table, error) { return base.LeftJoin(x, key, key, -7) }},
		{"project", func(x *Table) (*Table, error) { return x.Project("s", key, "b") }},
		{"aggregate", func(x *Table) (*Table, error) {
			return x.Aggregate([]string{key}, AggOp(steps[0].seed&7%6), "f", "")
		}},
		{"aggregate two keys", func(x *Table) (*Table, error) { return x.Aggregate([]string{"s", "a"}, Sum, "b", "") }},
		{"order", func(x *Table) (*Table, error) { return x, x.OrderBy(steps[0].seed&1 == 0, key, "b") }},
		{"head", func(x *Table) (*Table, error) { return x.Head(int(steps[0].seed&15) + 1), nil }},
		{"union", func(x *Table) (*Table, error) { return x.Union(base) }},
		{"union all", func(x *Table) (*Table, error) { return base.UnionAll(x) }},
		{"intersect", func(x *Table) (*Table, error) { return x.Intersect(base) }},
		{"minus", func(x *Table) (*Table, error) { return base.Minus(x) }},
		{"unique", func(x *Table) (*Table, error) { return x.Unique(key) }},
		{"append", func(x *Table) (*Table, error) { return x, x.AppendRow(int64(1), int64(2), 0.5, "go") }},
	}
	for _, op := range tableOps {
		got, gotErr := op.fn(mk(false))
		want, wantErr := op.fn(mk(true))
		checkSame(t, op.name, got, gotErr, want, wantErr)
	}

	gotIDs, gotN, gotErr := mk(false).Group(key)
	wantIDs, wantN, wantErr := mk(true).Group(key)
	if gotN != wantN || !slices.Equal(gotIDs, wantIDs) || (gotErr == nil) != (wantErr == nil) {
		t.Fatalf("Group(%s): %d groups %v (%v), want %d %v (%v)", key, gotN, gotIDs, gotErr, wantN, wantIDs, wantErr)
	}
	for _, col := range []string{"a", "b", "s"} {
		got, _ := mk(false).IntCol(col)
		want, _ := mk(true).IntCol(col)
		if !slices.Equal(got, want) {
			t.Fatalf("IntCol(%s) = %v, want %v", col, got, want)
		}
	}
	gotF, _ := mk(false).FloatCol("f")
	wantF, _ := mk(true).FloatCol("f")
	if !slices.EqualFunc(gotF, wantF, func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }) {
		t.Fatalf("FloatCol(f) = %v, want %v", gotF, wantF)
	}
	if got, want := mk(false).RowIDs(), mk(true).RowIDs(); !slices.Equal(got, want) {
		t.Fatalf("RowIDs = %v, want %v", got, want)
	}
	if got, want := mk(false).Bytes(), mk(true).Bytes(); got != want {
		t.Fatalf("Bytes = %d, want %d", got, want)
	}
	encodings := []struct {
		name string
		fn   func(x *Table, w *bytes.Buffer) error
	}{
		{"SaveTSV", func(x *Table, w *bytes.Buffer) error { return x.SaveTSV(w, true) }},
		{"EncodeBinary", func(x *Table, w *bytes.Buffer) error { return x.EncodeBinary(w) }},
	}
	for _, enc := range encodings {
		var got, want bytes.Buffer
		if err := enc.fn(mk(false), &got); err != nil {
			t.Fatal(err)
		}
		if err := enc.fn(mk(true), &want); err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got.Bytes(), want.Bytes()) {
			t.Fatalf("%s bytes differ", enc.name)
		}
	}

	// Mutating the base after selecting leaves the selection's cells as
	// they were.
	lazy := mk(false)
	want := mk(true)
	if err := base.AppendRow(int64(5), int64(6), math.Inf(1), "new"); err != nil {
		t.Fatal(err)
	}
	if err := base.OrderBy(true, "b", "a"); err != nil {
		t.Fatal(err)
	}
	if err := base.AddIntColumn("extra", make([]int64, base.NumRows())); err != nil {
		t.Fatal(err)
	}
	checkSame(t, "after mutating the base", lazy, nil, want, nil)
}

func FuzzSelectChain(f *testing.F) {
	rng := rand.New(rand.NewSource(5))
	for _, rows := range []int{0, 3, 20, 64} {
		data := make([]byte, 4*rows)
		rng.Read(data)
		for code := range 4 {
			f.Add(data, uint8(code*85+2), rng.Int63())
		}
	}
	f.Fuzz(func(t *testing.T, data []byte, code uint8, seed int64) {
		// 64 rows leave room for selections over 1/16 of their base,
		// which stay lazy, and keep an input cheap to minimize.
		checkChain(t, data[:min(len(data), 4*64)], chainSteps(code, seed))
	})
}

// TestSelectChainConsumers runs FuzzSelectChain's check over every
// combination of step kinds on a table big enough that selections stay
// lazy.
func TestSelectChainConsumers(t *testing.T) {
	data := make([]byte, 4*200)
	rand.New(rand.NewSource(9)).Read(data)
	for code := range 256 {
		t.Run(fmt.Sprint(code), func(t *testing.T) { checkChain(t, data, chainSteps(uint8(code), int64(code))) })
	}
}

// TestSelectionSurvivesBaseMutation mutates a base after selecting from
// it: the selection reads the columns it captured, so its cells, row ids
// and pool stay what they were when it was made, settled or not.
func TestSelectionSurvivesBaseMutation(t *testing.T) {
	for _, settleAfter := range []bool{false, true} {
		tbl := postsTable(t)
		sel, err := tbl.Select("Tag", EQ, "Java")
		if err != nil {
			t.Fatal(err)
		}
		want := sel.Clone()
		if err := tbl.AppendRow(int64(900), int64(900), "question", "Rust", 1.0); err != nil {
			t.Fatal(err)
		}
		if err := tbl.OrderBy(true, "Score"); err != nil {
			t.Fatal(err)
		}
		if err := tbl.AddIntColumn("X", make([]int64, tbl.NumRows())); err != nil {
			t.Fatal(err)
		}
		if settleAfter {
			sel.settle()
		}
		if d := diffTables(sel, want); d != "" {
			t.Fatalf("settled after the mutation %v: %s", settleAfter, d)
		}
		if _, ok := sel.pool.Lookup("Rust"); ok {
			t.Fatal("a string interned in the base reached the selection's pool")
		}
	}
}

// TestSmallSelectionSettles: a selection of at most 1/settleFraction of
// its base gathers at once and pins nothing; a larger one stays lazy.
func TestSmallSelectionSettles(t *testing.T) {
	tbl := chainTable(t, bytes.Repeat([]byte{0, 1, 2, 3, 1, 1, 2, 3}, 80)) // 160 rows, a alternating -2, -1
	small, err := tbl.SelectBitmap(bitmap.New(tbl.NumRows()))
	if err != nil {
		t.Fatal(err)
	}
	bm := bitmap.New(tbl.NumRows())
	for row := range tbl.NumRows() / settleFraction {
		bm.Set(row)
	}
	tenth, err := tbl.SelectBitmap(bm)
	if err != nil {
		t.Fatal(err)
	}
	half, err := tbl.Select("a", EQ, int64(-2))
	if err != nil {
		t.Fatal(err)
	}
	if small.sel.Load() != nil || tenth.sel.Load() != nil {
		t.Fatal("a selection of at most 1/16 of its base did not settle at once")
	}
	if half.sel.Load() == nil || half.NumRows() != 80 {
		t.Fatalf("a selection of %d of 160 rows settled at once", half.NumRows())
	}
}

// TestConcurrentReadersOfOneSelection runs the readers show, join and
// snapshot stand on — cell accessors, Join and EncodeBinary — concurrently
// on one unsettled selection, one of which settles it; run under -race.
func TestConcurrentReadersOfOneSelection(t *testing.T) {
	data := make([]byte, 4*256)
	rand.New(rand.NewSource(3)).Read(data)
	base := chainTable(t, data)
	steps := []chainStep{{kind: 1, seed: 4}}
	want, err := runChain(base, steps, true)
	if err != nil {
		t.Fatal(err)
	}
	var wantBin bytes.Buffer
	if err := want.EncodeBinary(&wantBin); err != nil {
		t.Fatal(err)
	}
	wantJoin, err := want.Join(base, "s", "s")
	if err != nil {
		t.Fatal(err)
	}
	for range 20 {
		sel, err := runChain(base, steps, false)
		if err != nil {
			t.Fatal(err)
		}
		if sel.sel.Load() == nil {
			t.Fatal("the selection settled at once")
		}
		var wg sync.WaitGroup
		errs := make(chan string, 12) // one slot for each of the 12 readers below
		for w := range 4 {
			wg.Add(3)
			go func() { // show
				defer wg.Done()
				for row := range sel.NumRows() {
					for c := range sel.NumCols() {
						if g, x := fmt.Sprint(sel.Value(c, row)), fmt.Sprint(want.Value(c, row)); g != x {
							errs <- fmt.Sprintf("reader %d: cell (%d,%d) = %s, want %s", w, row, c, g, x)
							return
						}
					}
				}
			}()
			go func() { // join
				defer wg.Done()
				got, err := sel.Join(base, "s", "s")
				if err != nil {
					errs <- err.Error()
				} else if d := diffTables(got, wantJoin); d != "" {
					errs <- "join: " + d
				}
			}()
			go func() { // snapshot
				defer wg.Done()
				var got bytes.Buffer
				if err := sel.EncodeBinary(&got); err != nil {
					errs <- err.Error()
				} else if !bytes.Equal(got.Bytes(), wantBin.Bytes()) {
					errs <- "EncodeBinary bytes differ"
				}
			}()
		}
		wg.Wait()
		close(errs)
		for e := range errs {
			t.Fatal(e)
		}
	}
}
