package table

import "math"

// keyIndex numbers the distinct values of an int64 key column densely in
// first-occurrence order: ids[row] is the id of row's key and n the number
// of distinct keys. It is the one grouping structure under Join, LeftJoin,
// Group, Unique, Aggregate and NextK.
//
// Keys are direct-addressed through a []int32 of one slot per value in
// [base, max] when that span is at most about two slots per row (denseSpan),
// a property of the input; wider spans go through a map. Neither stores a
// slice per key: the rows of each key are laid out as CSR by rows.
type keyIndex struct {
	ids    []int32
	n      int
	base   int64
	dense  []int32 // dense[k-base] is k's id + 1; 0 marks an absent key
	sparse map[int64]int32
}

// denseSlack lets small key sets over short columns direct-address too.
const denseSlack = 1024

// denseSpan reports whether keys spanning [lo, hi] over rows rows are
// direct-addressed.
func denseSpan(lo, hi int64, rows int) bool {
	return uint64(hi)-uint64(lo) < 2*uint64(rows)+denseSlack
}

func newKeyIndex(keys []int64) *keyIndex {
	x := &keyIndex{ids: make([]int32, len(keys))}
	if len(keys) == 0 {
		return x
	}
	lo, hi := keys[0], keys[0]
	for _, k := range keys {
		lo, hi = min(lo, k), max(hi, k)
	}
	if denseSpan(lo, hi, len(keys)) {
		x.base, x.dense = lo, make([]int32, uint64(hi)-uint64(lo)+1)
		for row, k := range keys {
			slot := &x.dense[uint64(k)-uint64(lo)]
			if *slot == 0 {
				x.n++
				*slot = int32(x.n)
			}
			x.ids[row] = *slot - 1
		}
		return x
	}
	x.sparse = make(map[int64]int32)
	for row, k := range keys {
		id, ok := x.sparse[k]
		if !ok {
			id = int32(len(x.sparse))
			x.sparse[k] = id
		}
		x.ids[row] = id
	}
	x.n = len(x.sparse)
	return x
}

// lookup returns the id of key k, or -1 when no row has it.
func (x *keyIndex) lookup(k int64) int32 {
	if x.dense != nil {
		if d := uint64(k) - uint64(x.base); d < uint64(len(x.dense)) {
			return x.dense[d] - 1
		}
		return -1
	}
	if id, ok := x.sparse[k]; ok {
		return id
	}
	return -1
}

// rows lays out the rows of each key as CSR: the rows with id g are
// at[off[g]:off[g+1]], ascending.
func (x *keyIndex) rows() (off, at []int32) {
	off = make([]int32, x.n+1)
	for _, g := range x.ids {
		off[g+1]++
	}
	for g := 1; g <= x.n; g++ {
		off[g] += off[g-1]
	}
	at = make([]int32, len(x.ids))
	for row, g := range x.ids {
		at[off[g]] = int32(row)
		off[g]++ // off[g] ends at the start of g+1; shifted back below
	}
	copy(off[1:], off[:x.n])
	off[0] = 0
	return off, at
}

// nanKey is the one key every NaN Float cell takes (math.NaN's bits).
const nanKey = 0x7ff8_0000_0000_0001

// floatKey is the canonical int64 key of a Float cell, the one joins,
// grouping and set operations compare: 0 and -0 share a key, as they are
// equal under select's ==, and every NaN shares nanKey.
func floatKey(f float64) int64 {
	switch {
	case f == 0:
		return 0
	case f != f:
		return nanKey
	}
	return int64(math.Float64bits(f))
}

// colKeys returns column i as int64 keys: Int values, String pool ids
// (equal iff equal strings within one pool) or canonical Float keys. Int
// and String columns of a settled table are returned uncopied; a
// selection's are gathered.
func (t *Table) colKeys(i int) []int64 {
	c, rows := t.view()
	if t.cols[i].Type != Float {
		if rows == nil {
			return c.ints[i]
		}
		keys := make([]int64, len(rows))
		gatherInto(keys, c.ints[i], rows)
		return keys
	}
	keys := make([]int64, t.NumRows())
	for row := range keys {
		p := row
		if rows != nil {
			p = int(rows[row])
		}
		keys[row] = floatKey(c.floats[i][p])
	}
	return keys
}
