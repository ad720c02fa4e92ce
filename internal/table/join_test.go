package table

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func TestJoinBasicIntKeys(t *testing.T) {
	posts := postsTable(t)
	users := mustTable(t, Schema{{"UserId", Int}, {"Name", String}})
	mustAppend(t, users,
		[]any{100, "ada"},
		[]any{200, "bob"},
		[]any{999, "ghost"},
	)
	j, err := posts.Join(users, "UserId", "UserId")
	if err != nil {
		t.Fatal(err)
	}
	// posts has 2 rows for user 100 and 2 for 200; user 999 matches nothing.
	if j.NumRows() != 4 {
		t.Fatalf("join rows = %d, want 4", j.NumRows())
	}
	// Colliding key column names get -1/-2 suffixes (paper §4.1).
	if j.ColIndex("UserId-1") < 0 || j.ColIndex("UserId-2") < 0 {
		t.Fatalf("join columns = %v", j.ColNames())
	}
	// Key columns agree on every output row.
	l, _ := j.IntCol("UserId-1")
	r, _ := j.IntCol("UserId-2")
	for i := range l {
		if l[i] != r[i] {
			t.Fatalf("row %d: key mismatch %d vs %d", i, l[i], r[i])
		}
	}
	// Non-colliding columns keep their names.
	if j.ColIndex("Name") < 0 || j.ColIndex("Tag") < 0 {
		t.Fatalf("join columns = %v", j.ColNames())
	}
}

func TestJoinStringKeysAcrossPools(t *testing.T) {
	left := mustTable(t, Schema{{"Tag", String}, {"N", Int}})
	mustAppend(t, left, []any{"go", 1}, []any{"java", 2}, []any{"rust", 3})
	right := mustTable(t, Schema{{"Lang", String}, {"Year", Int}})
	// Different intern order on the right pool: ids differ, values must match.
	mustAppend(t, right, []any{"rust", 2010}, []any{"java", 1995}, []any{"python", 1991})
	j, err := left.Join(right, "Tag", "Lang")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 2 {
		t.Fatalf("join rows = %d, want 2", j.NumRows())
	}
	for row := 0; row < j.NumRows(); row++ {
		tag := j.StrAt(j.ColIndex("Tag"), row)
		lang := j.StrAt(j.ColIndex("Lang"), row)
		if tag != lang {
			t.Fatalf("row %d: %q joined with %q", row, tag, lang)
		}
	}
}

func TestJoinFloatKeys(t *testing.T) {
	left := mustTable(t, Schema{{"x", Float}})
	mustAppend(t, left, []any{1.5}, []any{2.5})
	right := mustTable(t, Schema{{"y", Float}})
	mustAppend(t, right, []any{2.5}, []any{3.5})
	j, err := left.Join(right, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 1 {
		t.Fatalf("float join rows = %d", j.NumRows())
	}

	// Keys compare as select's == does: -0 matches 0, NaN matches nothing
	// (not even a NaN with the same bits), and LeftJoin keeps the NaN row
	// unmatched.
	negZero := math.Copysign(0, -1)
	left = mustTable(t, Schema{{"x", Float}})
	mustAppend(t, left, []any{negZero}, []any{math.NaN()}, []any{2.5})
	right = mustTable(t, Schema{{"y", Float}})
	mustAppend(t, right, []any{math.NaN()}, []any{0.0}, []any{2.5})
	j, err = left.Join(right, "x", "y")
	if err != nil {
		t.Fatal(err)
	}
	x, _ := j.FloatCol("x")
	y, _ := j.FloatCol("y")
	if len(x) != 2 || !math.Signbit(x[0]) || y[0] != 0 || math.Signbit(y[0]) || x[1] != 2.5 || y[1] != 2.5 {
		t.Fatalf("float join = %v ⋈ %v", x, y)
	}
	lj, err := left.LeftJoin(right, "x", "y", 0)
	if err != nil {
		t.Fatal(err)
	}
	x, _ = lj.FloatCol("x")
	y, _ = lj.FloatCol("y")
	if len(x) != 3 || !math.IsNaN(x[1]) || !math.IsNaN(y[1]) || y[0] != 0 || y[2] != 2.5 {
		t.Fatalf("float left join = %v ⋈ %v", x, y)
	}
}

func TestJoinDuplicateKeysCrossProduct(t *testing.T) {
	left := mustTable(t, Schema{{"k", Int}, {"l", Int}})
	mustAppend(t, left, []any{1, 10}, []any{1, 11}, []any{2, 12})
	right := mustTable(t, Schema{{"k", Int}, {"r", Int}})
	mustAppend(t, right, []any{1, 20}, []any{1, 21})
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != 4 { // 2 left rows with k=1 × 2 right rows with k=1
		t.Fatalf("join rows = %d, want 4", j.NumRows())
	}
}

func TestJoinTypeMismatch(t *testing.T) {
	left := mustTable(t, Schema{{"k", Int}})
	right := mustTable(t, Schema{{"k", String}})
	if _, err := left.Join(right, "k", "k"); err == nil {
		t.Fatal("type-mismatched join accepted")
	}
	if _, err := left.Join(right, "missing", "k"); err == nil {
		t.Fatal("missing left column accepted")
	}
	if _, err := left.Join(right, "k", "missing"); err == nil {
		t.Fatal("missing right column accepted")
	}
}

func TestJoinProducesFreshRowIDs(t *testing.T) {
	posts := postsTable(t)
	qs, _ := posts.Select("Type", EQ, "question")
	as, _ := posts.Select("Type", EQ, "answer")
	j, err := qs.Join(as, "Tag", "Tag")
	if err != nil {
		t.Fatal(err)
	}
	for i, id := range j.RowIDs() {
		if id != int64(i) {
			t.Fatalf("join row id[%d] = %d", i, id)
		}
	}
}

func TestJoinStringPayloadRemap(t *testing.T) {
	// Right-side string payload columns must survive pool translation.
	left := mustTable(t, Schema{{"k", Int}})
	mustAppend(t, left, []any{1}, []any{2})
	right := mustTable(t, Schema{{"k", Int}, {"word", String}})
	mustAppend(t, right, []any{2, "two"}, []any{1, "one"}, []any{3, "three"})
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	got := map[int64]string{}
	kc, _ := j.IntCol("k-1")
	for row := 0; row < j.NumRows(); row++ {
		got[kc[row]] = j.StrAt(j.ColIndex("word"), row)
	}
	if got[1] != "one" || got[2] != "two" {
		t.Fatalf("payload remap wrong: %v", got)
	}
}

// Property: |A ⋈ B| on a key equals sum over keys of count_A(k)*count_B(k).
func TestJoinCardinalityProperty(t *testing.T) {
	f := func(ls, rs []uint8) bool {
		left := MustNew(Schema{{"k", Int}})
		for _, v := range ls {
			if err := left.AppendRow(int64(v % 16)); err != nil {
				return false
			}
		}
		right := MustNew(Schema{{"k", Int}})
		for _, v := range rs {
			if err := right.AppendRow(int64(v % 16)); err != nil {
				return false
			}
		}
		j, err := left.Join(right, "k", "k")
		if err != nil {
			return false
		}
		ca := map[int64]int{}
		lcol, _ := left.IntCol("k")
		for _, v := range lcol {
			ca[v]++
		}
		cb := map[int64]int{}
		rcol, _ := right.IntCol("k")
		for _, v := range rcol {
			cb[v]++
		}
		want := 0
		for k, n := range ca {
			want += n * cb[k]
		}
		return j.NumRows() == want
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestJoinLargeParallelPath(t *testing.T) {
	left := MustNew(Schema{{"k", Int}, {"v", Int}})
	const n = 40_000
	for i := 0; i < n; i++ {
		if err := left.AppendRow(i%1000, i); err != nil {
			t.Fatal(err)
		}
	}
	right := MustNew(Schema{{"k", Int}})
	for i := 0; i < 500; i++ {
		if err := right.AppendRow(i); err != nil {
			t.Fatal(err)
		}
	}
	j, err := left.Join(right, "k", "k")
	if err != nil {
		t.Fatal(err)
	}
	if j.NumRows() != n/2 {
		t.Fatalf("join rows = %d, want %d", j.NumRows(), n/2)
	}
}

// BenchmarkJoinSparseKeys is the map path of the join's key index: a
// 4 096-row build side of random 63-bit keys, far too wide to
// direct-address, probed by 2^20 random 63-bit left keys of which one in
// 16 is a build key, so probing rather than output dominates.
func BenchmarkJoinSparseKeys(b *testing.B) {
	r := rand.New(rand.NewSource(1))
	build := make([]int64, 4096)
	for i := range build {
		build[i] = r.Int63()
	}
	probe, vals := make([]int64, 1<<20), make([]int64, 1<<20)
	for i := range probe {
		probe[i], vals[i] = r.Int63(), int64(i)
		if i%16 == 0 {
			probe[i] = build[r.Intn(len(build))]
		}
	}
	left, err := FromIntColumns([]string{"k", "v"}, [][]int64{probe, vals})
	if err != nil {
		b.Fatal(err)
	}
	right, err := FromIntColumns([]string{"key"}, [][]int64{build})
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := left.Join(right, "k", "key"); err != nil {
			b.Fatal(err)
		}
	}
}
