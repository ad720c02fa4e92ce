package table

import (
	"fmt"
	"math"
	"slices"
	"testing"
)

func TestGroupAssignsDenseIDs(t *testing.T) {
	tbl := postsTable(t)
	ids, groups, err := tbl.Group("Tag")
	if err != nil {
		t.Fatal(err)
	}
	if groups != 2 {
		t.Fatalf("groups = %d, want 2 (Java, Go)", groups)
	}
	// First occurrence order: Java=0, Go=1.
	want := []int{0, 0, 1, 1, 0, 0}
	for i, id := range ids {
		if id != want[i] {
			t.Fatalf("ids = %v, want %v", ids, want)
		}
	}
}

func TestGroupMultiColumn(t *testing.T) {
	tbl := postsTable(t)
	_, groups, err := tbl.Group("Tag", "Type")
	if err != nil {
		t.Fatal(err)
	}
	if groups != 4 { // (Java,q) (Java,a) (Go,q) (Go,a)
		t.Fatalf("groups = %d, want 4", groups)
	}
	if _, _, err := tbl.Group("nope"); err == nil {
		t.Fatal("group on missing column accepted")
	}
}

// TestGroupFloatKeys: Float values group as select's == compares them, 0
// and -0 together, except that every NaN (whatever its bits) forms one
// group — on the single-column path, the multi-column rowkey path, Unique
// and Aggregate alike.
func TestGroupFloatKeys(t *testing.T) {
	tbl := mustTable(t, Schema{{"x", Float}, {"c", Int}})
	mustAppend(t, tbl,
		[]any{0.0, 1}, []any{math.Copysign(0, -1), 1}, []any{math.NaN(), 1},
		[]any{math.Float64frombits(0xfff8_0000_0000_0123), 1}, []any{2.5, 1})
	want := []int{0, 0, 1, 1, 2}
	for _, cols := range [][]string{{"x"}, {"x", "c"}} {
		ids, groups, err := tbl.Group(cols...)
		if err != nil {
			t.Fatal(err)
		}
		if groups != 3 || fmt.Sprint(ids) != fmt.Sprint(want) {
			t.Fatalf("group %v = %v (%d groups), want %v", cols, ids, groups, want)
		}
		u, err := tbl.Unique(cols...)
		if err != nil {
			t.Fatal(err)
		}
		if fmt.Sprint(u.RowIDs()) != "[0 2 4]" {
			t.Fatalf("unique %v kept rows %v", cols, u.RowIDs())
		}
		agg, err := tbl.Aggregate(cols, Count, "", "n")
		if err != nil {
			t.Fatal(err)
		}
		if n, _ := agg.IntCol("n"); fmt.Sprint(n) != "[2 2 1]" {
			t.Fatalf("count by %v = %v", cols, n)
		}
	}
}

func TestGroupCol(t *testing.T) {
	tbl := postsTable(t)
	if err := tbl.GroupCol("TagGroup", "Tag"); err != nil {
		t.Fatal(err)
	}
	col, err := tbl.IntCol("TagGroup")
	if err != nil {
		t.Fatal(err)
	}
	if col[0] != 0 || col[2] != 1 {
		t.Fatalf("group column = %v", col)
	}
}

func TestAggregateCount(t *testing.T) {
	tbl := postsTable(t)
	agg, err := tbl.Aggregate([]string{"Tag"}, Count, "", "n")
	if err != nil {
		t.Fatal(err)
	}
	if agg.NumRows() != 2 {
		t.Fatalf("agg rows = %d", agg.NumRows())
	}
	got := map[string]int64{}
	n, _ := agg.IntCol("n")
	for row := 0; row < agg.NumRows(); row++ {
		got[agg.StrAt(0, row)] = n[row]
	}
	if got["Java"] != 4 || got["Go"] != 2 {
		t.Fatalf("counts = %v", got)
	}
}

func TestAggregateSumMinMaxMean(t *testing.T) {
	tbl := postsTable(t)
	sum, err := tbl.Aggregate([]string{"Tag"}, Sum, "Score", "s")
	if err != nil {
		t.Fatal(err)
	}
	s, _ := sum.FloatCol("s")
	got := map[string]float64{}
	for row := 0; row < sum.NumRows(); row++ {
		got[sum.StrAt(0, row)] = s[row]
	}
	if got["Java"] != 12.0 || got["Go"] != 3.5 {
		t.Fatalf("sums = %v", got)
	}

	mean, err := tbl.Aggregate([]string{"Tag"}, Mean, "Score", "m")
	if err != nil {
		t.Fatal(err)
	}
	m, _ := mean.FloatCol("m")
	for row := 0; row < mean.NumRows(); row++ {
		tag := mean.StrAt(0, row)
		if tag == "Java" && math.Abs(m[row]-3.0) > 1e-12 {
			t.Fatalf("Java mean = %v", m[row])
		}
	}

	mn, err := tbl.Aggregate([]string{"Tag"}, Min, "Score", "")
	if err != nil {
		t.Fatal(err)
	}
	v, _ := mn.FloatCol("min")
	for row := 0; row < mn.NumRows(); row++ {
		if mn.StrAt(0, row) == "Go" && v[row] != 1.0 {
			t.Fatalf("Go min = %v", v[row])
		}
	}

	mx, err := tbl.Aggregate([]string{"Tag"}, Max, "Score", "")
	if err != nil {
		t.Fatal(err)
	}
	vx, _ := mx.FloatCol("max")
	for row := 0; row < mx.NumRows(); row++ {
		if mx.StrAt(0, row) == "Java" && vx[row] != 5.0 {
			t.Fatalf("Java max = %v", vx[row])
		}
	}
}

func TestAggregateIntColumnStaysInt(t *testing.T) {
	tbl := postsTable(t)
	agg, err := tbl.Aggregate([]string{"Tag"}, Sum, "UserId", "total")
	if err != nil {
		t.Fatal(err)
	}
	typ, _ := agg.ColType("total")
	if typ != Int {
		t.Fatalf("sum of int column has type %v", typ)
	}
	vals, _ := agg.IntCol("total")
	got := map[string]int64{}
	for row := 0; row < agg.NumRows(); row++ {
		got[agg.StrAt(0, row)] = vals[row]
	}
	if got["Java"] != 100+200+200+400 {
		t.Fatalf("Java user sum = %d", got["Java"])
	}
}

func TestAggregateMeanOfIntIsFloat(t *testing.T) {
	tbl := postsTable(t)
	agg, err := tbl.Aggregate([]string{"Tag"}, Mean, "UserId", "m")
	if err != nil {
		t.Fatal(err)
	}
	typ, _ := agg.ColType("m")
	if typ != Float {
		t.Fatalf("mean of int column has type %v", typ)
	}
}

func TestAggregateFirstString(t *testing.T) {
	tbl := postsTable(t)
	agg, err := tbl.Aggregate([]string{"UserId"}, First, "Type", "FirstType")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	u, _ := agg.IntCol("UserId")
	for row := 0; row < agg.NumRows(); row++ {
		got[u[row]] = agg.StrAt(agg.ColIndex("FirstType"), row)
	}
	if got[100] != "question" || got[400] != "answer" {
		t.Fatalf("first types = %v", got)
	}
}

func TestAggregateErrors(t *testing.T) {
	tbl := postsTable(t)
	if _, err := tbl.Aggregate([]string{"Tag"}, Sum, "Type", "s"); err == nil {
		t.Fatal("sum over string column accepted")
	}
	if _, err := tbl.Aggregate([]string{"Tag"}, Sum, "nope", "s"); err == nil {
		t.Fatal("missing value column accepted")
	}
	if _, err := tbl.Aggregate([]string{"nope"}, Count, "", "n"); err == nil {
		t.Fatal("missing group column accepted")
	}
}

func TestUnique(t *testing.T) {
	tbl := postsTable(t)
	u, err := tbl.Unique("Tag")
	if err != nil {
		t.Fatal(err)
	}
	if u.NumRows() != 2 {
		t.Fatalf("unique tags = %d rows", u.NumRows())
	}
	// First-occurrence rows keep their ids.
	if u.RowIDs()[0] != 0 || u.RowIDs()[1] != 2 {
		t.Fatalf("unique row ids = %v", u.RowIDs())
	}
	// All columns distinct: no duplicate full rows in postsTable.
	all, err := tbl.Unique()
	if err != nil {
		t.Fatal(err)
	}
	if all.NumRows() != 6 {
		t.Fatalf("full unique = %d rows", all.NumRows())
	}
}

func TestOrderBy(t *testing.T) {
	tbl := postsTable(t)
	if err := tbl.OrderBy(false, "Score"); err != nil {
		t.Fatal(err)
	}
	s, _ := tbl.FloatCol("Score")
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not ascending: %v", s)
		}
	}
	// Row ids traveled with their rows: the 0.0 score row was PostId 5, id 4.
	if tbl.RowIDs()[0] != 4 {
		t.Fatalf("row ids after sort = %v", tbl.RowIDs())
	}
	if err := tbl.OrderBy(true, "Score"); err != nil {
		t.Fatal(err)
	}
	s, _ = tbl.FloatCol("Score")
	for i := 1; i < len(s); i++ {
		if s[i-1] < s[i] {
			t.Fatalf("not descending: %v", s)
		}
	}
}

// TestOrderByFloatNaN: a float column holding NaN sorts as cmp.Compare
// orders it — NaN below every number, so first ascending and last
// descending — and -0 ties with 0; tied rows keep their input order.
func TestOrderByFloatNaN(t *testing.T) {
	nan := math.NaN()
	for _, tc := range []struct {
		desc bool
		ids  []int64
	}{
		{false, []int64{1, 4, 3, 5, 2, 0}},
		{true, []int64{0, 2, 3, 5, 1, 4}},
	} {
		tbl := mustTable(t, Schema{{"x", Float}})
		mustAppend(t, tbl, []any{3.0}, []any{nan}, []any{1.0}, []any{0.0}, []any{nan}, []any{math.Copysign(0, -1)})
		if err := tbl.OrderBy(tc.desc, "x"); err != nil {
			t.Fatal(err)
		}
		if got := tbl.RowIDs(); !slices.Equal(got, tc.ids) {
			x, _ := tbl.FloatCol("x")
			t.Fatalf("desc=%v: row ids %v (x = %v), want %v", tc.desc, got, x, tc.ids)
		}
	}
}

func TestOrderByMultiColumnStable(t *testing.T) {
	tbl := postsTable(t)
	if err := tbl.OrderBy(false, "Tag", "UserId"); err != nil {
		t.Fatal(err)
	}
	tags := make([]string, tbl.NumRows())
	users, _ := tbl.IntCol("UserId")
	for i := range tags {
		tags[i] = tbl.StrAt(tbl.ColIndex("Tag"), i)
	}
	for i := 1; i < len(tags); i++ {
		if tags[i-1] > tags[i] {
			t.Fatalf("tags not sorted: %v", tags)
		}
		if tags[i-1] == tags[i] && users[i-1] > users[i] {
			t.Fatalf("users not sorted within tag: %v / %v", tags, users)
		}
	}
	if err := tbl.OrderBy(false); err == nil {
		t.Fatal("OrderBy with no columns accepted")
	}
	if err := tbl.OrderBy(false, "nope"); err == nil {
		t.Fatal("OrderBy on missing column accepted")
	}
}

func TestOrderByStringColumn(t *testing.T) {
	tbl := mustTable(t, Schema{{"w", String}})
	mustAppend(t, tbl, []any{"pear"}, []any{"apple"}, []any{"orange"})
	if err := tbl.OrderBy(false, "w"); err != nil {
		t.Fatal(err)
	}
	if tbl.StrAt(0, 0) != "apple" || tbl.StrAt(0, 2) != "pear" {
		t.Fatal("string sort wrong")
	}
}
