package table

import (
	"ringo/internal/bitmap"
	"ringo/internal/par"
)

// This file is the column-at-a-time predicate backend: each leaf scans its
// entire typed column into a selection bitmap with a tight monomorphic loop
// (one comparison per row, no per-row function calls), and the boolean
// connectives combine whole 64-row words. String ordering comparisons are
// evaluated once per distinct interned value, then broadcast over the id
// column, so the per-row cost of every leaf is integer-compare speed. A
// selection's leaf reads its base column through the row positions, a
// block of rows at a time, without settling.

// evalNode evaluates a predicate tree into a fresh selection bitmap of
// NumRows bits.
func (t *Table) evalNode(n *predNode) *bitmap.Bitmap {
	switch n.kind {
	case predLeaf:
		return t.leafBitmap(n.leaf)
	case predNot:
		bm := t.evalNode(n.left)
		bm.Not()
		return bm
	case predAnd:
		bm := t.evalNode(n.left)
		bm.And(t.evalNode(n.right))
		return bm
	default: // predOr
		if col, consts, ok := orEqChain(n); ok {
			// IN-list fusion: "c = a or c = b or ..." over one column is a
			// single membership scan, not one column scan per term.
			bm := bitmap.New(t.NumRows())
			fillInSet(bm, intCol(t, col), consts)
			return bm
		}
		bm := t.evalNode(n.left)
		bm.Or(t.evalNode(n.right))
		return bm
	}
}

// orEqChain reports whether n is an OR-chain whose leaves are all
// equalities on one Int or String column, returning that column and the
// constants (values for Int, interned ids for String). Leaves whose string
// constant was never interned match nothing and contribute no constant.
// Chains of fewer than two comparable leaves don't fuse.
func orEqChain(n *predNode) (col int, consts []int64, ok bool) {
	col = -1
	var leaves int
	var walk func(n *predNode) bool
	walk = func(n *predNode) bool {
		switch n.kind {
		case predOr:
			return walk(n.left) && walk(n.right)
		case predLeaf:
			l := n.leaf
			if l.op != EQ || l.typ == Float {
				return false
			}
			if col == -1 {
				col = l.col
			} else if col != l.col {
				return false
			}
			leaves++
			if !l.missing {
				consts = append(consts, l.ic)
			}
			return true
		default:
			return false
		}
	}
	if !walk(n) || leaves < 2 {
		return -1, nil, false
	}
	return col, consts, true
}

// colScan is one column as a leaf scans it: data itself, or, for a
// selection, data read at the positions rows.
type colScan[T int64 | float64] struct {
	data []T
	rows []int32
}

func intCol(t *Table, i int) colScan[int64] {
	c, rows := t.view()
	return colScan[int64]{c.ints[i], rows}
}

func floatCol(t *Table, i int) colScan[float64] {
	c, rows := t.view()
	return colScan[float64]{c.floats[i], rows}
}

// scanBlock is the rows a scan hands to its fill at once: 16 words.
const scanBlock = 16 * bitmap.WordBits

// scan fills bm's words in parallel, a block at a time: fill gets the words
// to set and the values of their rows, gathered into a per-worker buffer
// when the column is read through row positions.
func scan[T int64 | float64](bm *bitmap.Bitmap, col colScan[T], fill func(words []uint64, vals []T)) {
	words := bm.Words()
	n := bm.Len()
	bm.ParFill(func(wlo, whi int) {
		var buf []T
		if col.rows != nil {
			buf = make([]T, scanBlock)
		}
		for lo := wlo << 6; lo < min(whi<<6, n); lo += scanBlock {
			hi := min(lo+scanBlock, whi<<6, n)
			vals := col.data[lo:hi]
			if col.rows != nil {
				vals = buf[:hi-lo]
				gatherInto(vals, col.data, col.rows[lo:hi])
			}
			fill(words[lo>>6:(hi+bitmap.WordBits-1)>>6], vals)
		}
	})
}

// fillInSet sets bm's bits where the column's value equals any constant —
// the fused execution of an OR-of-equalities chain: the column is streamed
// once however many terms the chain has. When the constants span a small
// range (always true for interned string ids) membership is one table
// lookup per row; otherwise each row compares against the list in
// registers, which still beats one full column scan per term.
func fillInSet(bm *bitmap.Bitmap, col colScan[int64], consts []int64) {
	if len(consts) == 0 {
		return
	}
	lo, hi := consts[0], consts[0]
	for _, c := range consts[1:] {
		if c < lo {
			lo = c
		}
		if c > hi {
			hi = c
		}
	}
	const maxSpan = 1 << 20
	if span := hi - lo + 1; span > 0 && span <= maxSpan {
		accept := make([]bool, span)
		for _, c := range consts {
			accept[c-lo] = true
		}
		scan(bm, col, func(words []uint64, vals []int64) {
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v >= lo && v <= hi && accept[v-lo] {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		})
		return
	}
	scan(bm, col, func(words []uint64, vals []int64) {
		for w := range words {
			var word uint64
			for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
				for _, c := range consts {
					if v == c {
						word |= 1 << uint(j)
						break
					}
				}
			}
			words[w] = word
		}
	})
}

// leafBitmap evaluates one resolved comparison over its whole column.
func (t *Table) leafBitmap(l leafPred) *bitmap.Bitmap {
	bm := bitmap.New(t.NumRows())
	switch l.typ {
	case Int:
		fillCmp(bm, intCol(t, l.col), l.ic, l.op)
	case Float:
		// NaN comparison semantics follow Go's (all comparisons false
		// except NE), matching the closure path.
		fillCmp(bm, floatCol(t, l.col), l.fc, l.op)
	default:
		if l.op == EQ || l.op == NE {
			if l.missing {
				if l.op == NE {
					bm.SetAll()
				}
				return bm
			}
			fillCmp(bm, intCol(t, l.col), l.ic, l.op)
			return bm
		}
		// Ordering over strings: decide each distinct pool id once, then
		// the column scan is a table lookup per row.
		accept := make([]bool, t.pool.Len())
		par.ForEach(len(accept), func(id int) {
			accept[id] = cmpString(t.pool.Get(int32(id)), l.sc, l.op)
		})
		scan(bm, intCol(t, l.col), func(words []uint64, vals []int64) {
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if accept[v] {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		})
	}
	return bm
}

// fillCmp sets bm's bits where the column compares true against c. The
// operator switch sits outside the row loops so each instantiation's loop
// body is a single predictable comparison; ranging over each word's
// subslice lets the compiler drop the per-element bounds checks.
func fillCmp[T int64 | float64](bm *bitmap.Bitmap, col colScan[T], c T, op CmpOp) {
	scan(bm, col, func(words []uint64, vals []T) {
		switch op {
		case EQ:
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v == c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		case NE:
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v != c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		case LT:
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v < c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		case LE:
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v <= c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		case GT:
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v > c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		default: // GE
			for w := range words {
				var word uint64
				for j, v := range vals[w<<6 : min((w+1)<<6, len(vals))] {
					if v >= c {
						word |= 1 << uint(j)
					}
				}
				words[w] = word
			}
		}
	})
}
