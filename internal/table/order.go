package table

import (
	"cmp"
	"fmt"
	"math/rand"
	"sort"
)

// OrderBy sorts the table rows in place by the named columns (most
// significant first). desc sorts descending. The sort is stable, and row
// identifiers travel with their rows. Floats compare as cmp.Compare does,
// algo.ByRank's order: NaN below every number, -0 equal to 0.
func (t *Table) OrderBy(desc bool, cols ...string) error {
	if len(cols) == 0 {
		return fmt.Errorf("table: OrderBy with no columns")
	}
	idx := make([]int, len(cols))
	for k, name := range cols {
		i := t.ColIndex(name)
		if i < 0 {
			return fmt.Errorf("table: no column %q", name)
		}
		idx[k] = i
	}
	n := t.NumRows()
	perm := make([]int, n)
	for i := range perm {
		perm[i] = i
	}
	less := func(a, b int) bool {
		for _, i := range idx {
			switch t.cols[i].Type {
			case Int:
				va, vb := t.ints[i][a], t.ints[i][b]
				if va != vb {
					return va < vb
				}
			case Float:
				if c := cmp.Compare(t.floats[i][a], t.floats[i][b]); c != 0 {
					return c < 0
				}
			default:
				va := t.pool.Get(int32(t.ints[i][a]))
				vb := t.pool.Get(int32(t.ints[i][b]))
				if va != vb {
					return va < vb
				}
			}
		}
		return false
	}
	if desc {
		asc := less
		less = func(a, b int) bool { return asc(b, a) }
	}
	sort.SliceStable(perm, func(x, y int) bool { return less(perm[x], perm[y]) })
	t.applyPermutation(perm)
	return nil
}

// applyPermutation reorders all rows so that new row r holds old row
// perm[r].
func (t *Table) applyPermutation(perm []int) {
	n := len(perm)
	for i := range t.cols {
		if t.cols[i].Type == Float {
			src := t.floats[i]
			dst := make([]float64, n)
			for r, p := range perm {
				dst[r] = src[p]
			}
			t.floats[i] = dst
		} else {
			src := t.ints[i]
			dst := make([]int64, n)
			for r, p := range perm {
				dst[r] = src[p]
			}
			t.ints[i] = dst
		}
	}
	ids := make([]int64, n)
	for r, p := range perm {
		ids[r] = t.rowIDs[p]
	}
	t.rowIDs = ids
}

// Sample returns a new table of n rows drawn uniformly without replacement
// (all rows if n exceeds the row count), in input order, preserving row
// identifiers. Deterministic for a fixed seed — the usual first step of
// exploratory analysis on a large table.
func (t *Table) Sample(n int, seed int64) *Table {
	total := t.NumRows()
	if n >= total {
		return t.Clone()
	}
	rng := rand.New(rand.NewSource(seed))
	chosen := rng.Perm(total)[:n]
	sort.Ints(chosen)
	out := t.freshLike(n)
	for _, row := range chosen {
		out.appendRowFrom(t, row)
	}
	out.nextID = t.nextID
	return out
}

// Head returns a new table holding the first n rows (all rows if n exceeds
// the row count), preserving row identifiers. Combined with OrderBy it
// implements top-K queries such as "top Java experts by PageRank".
func (t *Table) Head(n int) *Table {
	if n > t.NumRows() {
		n = t.NumRows()
	}
	out := t.freshLike(n)
	for row := 0; row < n; row++ {
		out.appendRowFrom(t, row)
	}
	out.nextID = t.nextID
	return out
}
