package table

import (
	"encoding/binary"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"
)

// The reference implementations below are the map-based Join, LeftJoin,
// single-column Group, Aggregate and Unique that the keyIndex replaced, kept
// as the oracle the production code is held to. The only change from them
// is refFloatKey: Float keys compare as select's == does, so 0 and -0 are
// one key, every NaN is one group, and a NaN joins with nothing.

// refFloatKey canonicalizes 0/-0 and every NaN, then takes the bit pattern.
func refFloatKey(f float64) int64 {
	switch {
	case f == 0:
		f = 0
	case math.IsNaN(f):
		f = math.NaN()
	}
	return int64(math.Float64bits(f))
}

func refJoinKeys(l *Table, li int, r *Table, ri int) (lkeys, rkeys []int64) {
	switch l.cols[li].Type {
	case Float:
		lkeys = make([]int64, l.NumRows())
		for row, f := range l.settle().floats[li] {
			lkeys[row] = refFloatKey(f)
		}
		rkeys = make([]int64, r.NumRows())
		for row, f := range r.settle().floats[ri] {
			rkeys[row] = refFloatKey(f)
			if math.IsNaN(f) {
				rkeys[row] = math.MinInt64 // -0's bits, which refFloatKey never returns
			}
		}
	case String:
		lkeys = l.settle().ints[li]
		rkeys = make([]int64, r.NumRows())
		remap := make(map[int64]int64)
		nextMiss := int64(-1)
		for row, id := range r.settle().ints[ri] {
			k, ok := remap[id]
			if !ok {
				if lid, present := l.pool.Lookup(r.pool.Get(int32(id))); present {
					k = int64(lid)
				} else {
					k = nextMiss
					nextMiss--
				}
				remap[id] = k
			}
			rkeys[row] = k
		}
	default:
		lkeys, rkeys = l.settle().ints[li], r.settle().ints[ri]
	}
	return lkeys, rkeys
}

// refJoin is the reference Join (outer false) and LeftJoin (outer true).
func refJoin(l, r *Table, lcol, rcol string, outer bool, nullInt int64) (*Table, error) {
	lkeys, rkeys := refJoinKeys(l, l.ColIndex(lcol), r, r.ColIndex(rcol))
	build := make(map[int64][]int32, r.NumRows())
	for row, k := range rkeys {
		build[k] = append(build[k], int32(row))
	}
	total := 0
	for _, k := range lkeys {
		if m := len(build[k]); m > 0 {
			total += m
		} else if outer {
			total++
		}
	}
	out, err := newJoinOutput(l, r, total)
	if err != nil {
		return nil, err
	}
	rStrRemap := remapPool(r, out)
	var nullStr int64
	if outer {
		nullStr = int64(out.pool.Intern(""))
	}
	at := 0
	emit := func(lrow int, rrow int32) {
		for i := range l.cols {
			if l.cols[i].Type == Float {
				out.data.floats[i][at] = l.settle().floats[i][lrow]
			} else {
				out.data.ints[i][at] = l.settle().ints[i][lrow]
			}
		}
		for j := range r.cols {
			o := len(l.cols) + j
			switch r.cols[j].Type {
			case Float:
				out.data.floats[o][at] = math.NaN()
				if rrow >= 0 {
					out.data.floats[o][at] = r.settle().floats[j][rrow]
				}
			case String:
				out.data.ints[o][at] = nullStr
				if rrow >= 0 {
					out.data.ints[o][at] = rStrRemap[r.settle().ints[j][rrow]]
				}
			default:
				out.data.ints[o][at] = nullInt
				if rrow >= 0 {
					out.data.ints[o][at] = r.settle().ints[j][rrow]
				}
			}
		}
		out.data.rowIDs[at] = int64(at)
		at++
	}
	for lrow, k := range lkeys {
		matches := build[k]
		if len(matches) == 0 && outer {
			emit(lrow, -1)
		}
		for _, rrow := range matches {
			emit(lrow, rrow)
		}
	}
	out.nextID = int64(total)
	return out, nil
}

func refGroup(t *Table, cols ...string) (ids []int, groups int, err error) {
	if len(cols) == 1 {
		i := t.ColIndex(cols[0])
		if i < 0 {
			return nil, 0, fmt.Errorf("table: no column %q", cols[0])
		}
		ids = make([]int, t.NumRows())
		seen := make(map[int64]int)
		for row := range ids {
			var k int64
			if t.cols[i].Type == Float {
				k = refFloatKey(t.settle().floats[i][row])
			} else {
				k = t.settle().ints[i][row]
			}
			id, ok := seen[k]
			if !ok {
				id = len(seen)
				seen[k] = id
			}
			ids[row] = id
		}
		return ids, len(seen), nil
	}
	enc, err := newRowKeyEncoder(t, cols)
	if err != nil {
		return nil, 0, err
	}
	ids = make([]int, t.NumRows())
	seen := make(map[string]int)
	for row := range ids {
		k := enc.key(row)
		id, ok := seen[k]
		if !ok {
			id = len(seen)
			seen[k] = id
		}
		ids[row] = id
	}
	return ids, len(seen), nil
}

func refAggregate(t *Table, groupCols []string, op AggOp, valCol, outCol string) (*Table, error) {
	ids, groups, err := refGroup(t, groupCols...)
	if err != nil {
		return nil, err
	}
	if outCol == "" {
		outCol = op.String()
	}
	rep := make([]int, groups)
	for i := range rep {
		rep[i] = -1
	}
	for row, id := range ids {
		if rep[id] < 0 {
			rep[id] = row
		}
	}
	outType := Int
	var intVals []int64
	var floatVals []float64
	if op != Count {
		i := t.ColIndex(valCol)
		if i < 0 {
			return nil, fmt.Errorf("table: no column %q", valCol)
		}
		switch t.cols[i].Type {
		case Int:
			intVals = t.settle().ints[i]
			if op == Mean {
				outType = Float
			}
		case Float:
			floatVals = t.settle().floats[i]
			outType = Float
		default:
			if op != First {
				return nil, fmt.Errorf("table: aggregate %v over string column %q", op, valCol)
			}
			outType = String
			intVals = t.settle().ints[i]
		}
	}
	schema := make(Schema, 0, len(groupCols)+1)
	for _, name := range groupCols {
		schema = append(schema, t.cols[t.ColIndex(name)])
	}
	schema = append(schema, Column{outCol, outType})
	out, err := NewWithCapacity(schema, groups)
	if err != nil {
		return nil, err
	}
	out.pool = t.pool.Clone()
	counts := make([]int64, groups)
	sums := make([]float64, groups)
	isums := make([]int64, groups)
	mins := make([]float64, groups)
	maxs := make([]float64, groups)
	firsts := make([]int64, groups)
	ffirsts := make([]float64, groups)
	haveFirst := make([]bool, groups)
	for g := range mins {
		mins[g] = math.Inf(1)
		maxs[g] = math.Inf(-1)
	}
	for row, g := range ids {
		counts[g]++
		var fv float64
		var iv int64
		if intVals != nil {
			iv = intVals[row]
			fv = float64(iv)
		} else if floatVals != nil {
			fv = floatVals[row]
		}
		sums[g] += fv
		isums[g] += iv
		if fv < mins[g] {
			mins[g] = fv
		}
		if fv > maxs[g] {
			maxs[g] = fv
		}
		if !haveFirst[g] {
			haveFirst[g] = true
			firsts[g] = iv
			ffirsts[g] = fv
		}
	}
	for g := 0; g < groups; g++ {
		row := rep[g]
		for k := range groupCols {
			i := t.ColIndex(groupCols[k])
			if t.cols[i].Type == Float {
				out.data.floats[k] = append(out.data.floats[k], t.settle().floats[i][row])
			} else {
				out.data.ints[k] = append(out.data.ints[k], t.settle().ints[i][row])
			}
		}
		last := len(groupCols)
		switch {
		case op == Count:
			out.data.ints[last] = append(out.data.ints[last], counts[g])
		case outType == Int:
			var v int64
			switch op {
			case Sum:
				v = isums[g]
			case Min:
				v = int64(mins[g])
			case Max:
				v = int64(maxs[g])
			case First:
				v = firsts[g]
			}
			out.data.ints[last] = append(out.data.ints[last], v)
		case outType == Float:
			var v float64
			switch op {
			case Sum:
				v = sums[g]
			case Min:
				v = mins[g]
			case Max:
				v = maxs[g]
			case Mean:
				v = sums[g] / float64(counts[g])
			case First:
				v = ffirsts[g]
			}
			out.data.floats[last] = append(out.data.floats[last], v)
		default:
			out.data.ints[last] = append(out.data.ints[last], firsts[g])
		}
		out.data.rowIDs = append(out.data.rowIDs, int64(g))
	}
	out.nextID = int64(groups)
	return out, nil
}

func refUnique(t *Table, cols ...string) (*Table, error) {
	if len(cols) == 0 {
		cols = t.ColNames()
	}
	if len(cols) == 1 {
		ids, groups, err := refGroup(t, cols[0])
		if err != nil {
			return nil, err
		}
		out := t.freshLike(groups)
		next := 0
		for row, id := range ids {
			if id == next {
				out.appendRowFrom(t.settle(), row)
				next++
			}
		}
		out.nextID = t.nextID
		return out, nil
	}
	enc, err := newRowKeyEncoder(t, cols)
	if err != nil {
		return nil, err
	}
	out := t.freshLike(0)
	seen := make(map[string]struct{})
	for row := 0; row < t.NumRows(); row++ {
		k := enc.key(row)
		if _, dup := seen[k]; dup {
			continue
		}
		seen[k] = struct{}{}
		out.appendRowFrom(t.settle(), row)
	}
	out.nextID = t.nextID
	return out, nil
}

// diffTables describes the first difference between two tables: schema,
// row ids, next id, every cell (Float cells bit for bit, String cells by
// pool id) and the pools themselves. It returns "" for identical tables.
func diffTables(got, want *Table) string {
	if fmt.Sprint(got.Schema()) != fmt.Sprint(want.Schema()) {
		return fmt.Sprintf("schema %v, want %v", got.Schema(), want.Schema())
	}
	if got.NumRows() != want.NumRows() || got.nextID != want.nextID {
		return fmt.Sprintf("%d rows next id %d, want %d rows next id %d", got.NumRows(), got.nextID, want.NumRows(), want.nextID)
	}
	// Cells first, through the accessors, which read a selection without
	// settling it; the row ids then settle both.
	for row := range want.NumRows() {
		for i, c := range want.cols {
			if c.Type == Float {
				if g, w := got.FloatAt(i, row), want.FloatAt(i, row); math.Float64bits(g) != math.Float64bits(w) {
					return fmt.Sprintf("row %d col %s = %v, want %v", row, c.Name, g, w)
				}
			} else if g, w := got.IntAt(i, row), want.IntAt(i, row); g != w {
				return fmt.Sprintf("row %d col %s = %d, want %d", row, c.Name, g, w)
			}
		}
	}
	if g, w := got.RowIDs(), want.RowIDs(); !slices.Equal(g, w) {
		return fmt.Sprintf("row ids %v, want %v", g, w)
	}
	if got.pool.Len() != want.pool.Len() {
		return fmt.Sprintf("pool of %d strings, want %d", got.pool.Len(), want.pool.Len())
	}
	for id := int32(0); int(id) < want.pool.Len(); id++ {
		if got.pool.Get(id) != want.pool.Get(id) {
			return fmt.Sprintf("pool id %d = %q, want %q", id, got.pool.Get(id), want.pool.Get(id))
		}
	}
	return ""
}

// checkSame fails when got and want differ, or their errors do.
func checkSame(t *testing.T, what string, got *Table, gotErr error, want *Table, wantErr error) {
	t.Helper()
	if (gotErr != nil) != (wantErr != nil) {
		t.Fatalf("%s: error %v, want %v", what, gotErr, wantErr)
	}
	if wantErr == nil {
		if d := diffTables(got, want); d != "" {
			t.Fatalf("%s: %s", what, d)
		}
	}
}

// checkJoins holds Join and LeftJoin of left and right on column "k" to
// the reference.
func checkJoins(t *testing.T, name string, left, right *Table) {
	t.Helper()
	got, err := left.Join(right, "k", "k")
	want, wantErr := refJoin(left, right, "k", "k", false, 0)
	checkSame(t, name+" join", got, err, want, wantErr)
	got, err = left.LeftJoin(right, "k", "k", -9)
	want, wantErr = refJoin(left, right, "k", "k", true, -9)
	checkSame(t, name+" leftjoin", got, err, want, wantErr)
}

// checkGroups holds Group, Unique and every Aggregate op over the payload
// columns i (Int), f (Float) and s (String) of tbl grouped by cols to the
// reference.
func checkGroups(t *testing.T, name string, tbl *Table, cols ...string) {
	t.Helper()
	ids, groups, err := tbl.Group(cols...)
	wantIDs, wantGroups, _ := refGroup(tbl, cols...)
	if err != nil || groups != wantGroups || fmt.Sprint(ids) != fmt.Sprint(wantIDs) {
		t.Fatalf("%s: group %v = %v (%d groups, %v), want %v (%d)", name, cols, ids, groups, err, wantIDs, wantGroups)
	}
	got, err := tbl.Unique(cols...)
	want, wantErr := refUnique(tbl, cols...)
	checkSame(t, fmt.Sprint(name, " unique ", cols), got, err, want, wantErr)
	for op := Count; op <= First; op++ {
		for _, val := range []string{"i", "f", "s"} {
			got, err := tbl.Aggregate(cols, op, val, "")
			want, wantErr := refAggregate(tbl, cols, op, val, "")
			checkSame(t, fmt.Sprint(name, " aggregate ", cols, " ", op, " ", val), got, err, want, wantErr)
		}
	}
}

// oracleFloats are the Float key values: signed zeros, NaNs with two
// payloads, infinities and ordinary values.
var oracleFloats = []float64{0, math.Copysign(0, -1), math.NaN(), math.Float64frombits(0xfff8_0000_0000_0123), math.Inf(1), math.Inf(-1), 1.5, -2.5}

// oracleTable builds a table of keys and keyType whose key column "k" holds
// the keys (String keys as words[k mod len(words)], Float keys as
// oracleFloats[k mod 8]) followed by payload columns i, f and s.
func oracleTable(t *testing.T, r *rand.Rand, keyType Type, keys []int64, words []string) *Table {
	t.Helper()
	tbl := mustTable(t, Schema{{"k", keyType}, {"i", Int}, {"f", Float}, {"s", String}})
	for _, k := range keys {
		var key any = k
		switch keyType {
		case String:
			key = words[uint64(k)%uint64(len(words))]
		case Float:
			key = oracleFloats[uint64(k)%uint64(len(oracleFloats))]
		}
		i := r.Int63n(1000) - 500
		if r.Intn(8) == 0 {
			i = []int64{math.MinInt64, math.MaxInt64}[r.Intn(2)]
		}
		mustAppend(t, tbl, []any{key, i, oracleFloats[r.Intn(len(oracleFloats))] * float64(r.Intn(5)), words[r.Intn(len(words))]})
	}
	return tbl
}

func withWorkers(t *testing.T, workers int, fn func()) {
	t.Helper()
	prev := runtime.GOMAXPROCS(workers)
	defer runtime.GOMAXPROCS(prev)
	fn()
}

// TestKeyIndexMatchesReference holds Join, LeftJoin, Group, Unique and every
// Aggregate op to the map-based reference on the key shapes the key index
// meets, on one and on four workers: dense, negative and all-equal keys,
// wide keys including MinInt64 and MaxInt64, no match, an empty side,
// String keys across pools, Float keys, and key spans one below, at and one
// above the dense/map threshold.
func TestKeyIndexMatchesReference(t *testing.T) {
	gen := func(r *rand.Rand, n int, key func() int64) []int64 {
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = key()
		}
		return keys
	}
	type shape struct {
		name        string
		typ         Type
		left, right func(r *rand.Rand) []int64
	}
	dense := func(n int) func(*rand.Rand) []int64 {
		return func(r *rand.Rand) []int64 { return gen(r, n, func() int64 { return r.Int63n(64) }) }
	}
	shapes := []shape{
		{"dense", Int, dense(700), dense(300)},
		{"negative", Int,
			func(r *rand.Rand) []int64 { return gen(r, 700, func() int64 { return -1 - r.Int63n(400) }) },
			func(r *rand.Rand) []int64 { return gen(r, 300, func() int64 { return -1 - r.Int63n(400) }) }},
		{"all-equal", Int,
			func(r *rand.Rand) []int64 { return gen(r, 120, func() int64 { return 7 }) },
			func(r *rand.Rand) []int64 { return gen(r, 40, func() int64 { return 7 }) }},
		{"wide", Int, nil, nil},
		{"no-match", Int,
			func(r *rand.Rand) []int64 { return gen(r, 500, func() int64 { return 2 * r.Int63n(100) }) },
			func(r *rand.Rand) []int64 { return gen(r, 300, func() int64 { return 2*r.Int63n(100) + 1 }) }},
		{"empty-left", Int, dense(0), dense(300)},
		{"empty-right", Int, dense(700), dense(0)},
		{"string", String, dense(700), dense(300)},
		{"float", Float, dense(700), dense(300)},
	}
	wide := func(r *rand.Rand) int64 {
		switch r.Intn(6) {
		case 0:
			return math.MinInt64
		case 1:
			return math.MaxInt64
		case 2:
			return -r.Int63()
		}
		return r.Int63n(200) // some overlap between the sides
	}
	shapes[3].left = func(r *rand.Rand) []int64 { return gen(r, 700, func() int64 { return wide(r) }) }
	shapes[3].right = func(r *rand.Rand) []int64 { return gen(r, 300, func() int64 { return wide(r) }) }
	// Spans around the threshold of a 300-row build side: both extremes
	// occur, every other key lies between them.
	const rightRows = 300
	limit := int64(2*rightRows + denseSlack)
	for _, d := range []int64{-1, 0, 1} {
		span := limit + d
		keys := func(n int) func(*rand.Rand) []int64 {
			return func(r *rand.Rand) []int64 {
				keys := gen(r, n, func() int64 { return -40 + r.Int63n(span+1) })
				if n > 1 {
					keys[0], keys[n-1] = -40, -40+span
				}
				return keys
			}
		}
		shapes = append(shapes, shape{fmt.Sprintf("span-limit%+d", d), Int, keys(700), keys(rightRows)})
		if x := newKeyIndex(keys(rightRows)(rand.New(rand.NewSource(1)))); (x.dense != nil) != (d < 0) {
			t.Fatalf("span limit%+d: dense = %v", d, x.dense != nil)
		}
	}
	leftWords := []string{"go", "java", "rust", "sql", "ml", "c"}
	rightWords := []string{"python", "sql", "go", "haskell", "java", "lisp", "c"}
	for _, workers := range []int{1, 4} {
		withWorkers(t, workers, func() {
			for i, s := range shapes {
				r := rand.New(rand.NewSource(int64(i)))
				left := oracleTable(t, r, s.typ, s.left(r), leftWords)
				right := oracleTable(t, r, s.typ, s.right(r), rightWords)
				name := fmt.Sprintf("workers=%d %s", workers, s.name)
				checkJoins(t, name, left, right)
				for _, tbl := range []*Table{left, right} {
					for _, cols := range [][]string{{"k"}, {"k", "s"}, {"s"}, {"f"}, {}} {
						checkGroups(t, name, tbl, cols...)
					}
				}
			}
		})
	}
}

// FuzzJoin decodes data as little-endian int64 keys, each shifted right by
// shift%64 so dense and full-width spans both occur, splits them at split
// into a left and a right key column and holds Join, LeftJoin and the
// grouping of the right (build) side to the reference.
func FuzzJoin(f *testing.F) {
	f.Add([]byte{}, uint8(0), uint8(0))
	f.Add(binary.LittleEndian.AppendUint64(binary.LittleEndian.AppendUint64(nil, 1<<63), math.MaxInt64), uint8(0), uint8(1))
	f.Add([]byte("0123456789abcdefghijklmnopqrstuvwxyz0123456789abcdefghijklmnopqrstuvwxyz"), uint8(58), uint8(4))
	f.Fuzz(func(t *testing.T, data []byte, shift, split uint8) {
		n := len(data) / 8
		keys := make([]int64, n)
		for i := range keys {
			keys[i] = int64(binary.LittleEndian.Uint64(data[8*i:])) >> (shift % 64)
		}
		cut := int(split) % (n + 1)
		r := rand.New(rand.NewSource(int64(n)))
		words := []string{"a", "b", "c"}
		left := oracleTable(t, r, Int, keys[:cut], words)
		right := oracleTable(t, r, Int, keys[cut:], words)
		checkJoins(t, "fuzz", left, right)
		checkGroups(t, "fuzz", right, "k")
	})
}
