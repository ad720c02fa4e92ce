package table

import (
	"fmt"
	"sort"
)

// NextK implements Ringo's temporal predecessor-successor join (§2.3):
// within each group of rows sharing groupCol, rows are ordered by orderCol
// and each row is joined with its next k successors. The output schema is
// the table's schema twice, with "-1" suffixes on the predecessor columns
// and "-2" on the successor columns; projecting a node column from each side
// yields an edge table for a temporal-order graph (e.g. "users who posted
// right after each other in the same thread").
//
// orderCol must be numeric. Ties in orderCol are broken by row order, so the
// result is deterministic. k must be at least 1.
func (t *Table) NextK(groupCol, orderCol string, k int) (*Table, error) {
	if k < 1 {
		return nil, fmt.Errorf("table: NextK with k=%d", k)
	}
	gi := t.ColIndex(groupCol)
	if gi < 0 {
		return nil, fmt.Errorf("table: no column %q", groupCol)
	}
	if _, err := t.numericAsFloat(orderCol); err != nil {
		return nil, err
	}
	ord, _ := t.numericAsFloat(orderCol)

	// Rows per group in ascending row order, groups in first-occurrence
	// order; each group's rows are then ordered by orderCol.
	off, rows := newKeyIndex(t.colKeys(gi)).rows()
	pairs := 0
	for g := 0; g+1 < len(off); g++ {
		b := rows[off[g]:off[g+1]]
		sort.SliceStable(b, func(x, y int) bool { return ord[b[x]] < ord[b[y]] })
		n := len(b)
		for i := 0; i < n; i++ {
			succ := n - 1 - i
			if succ > k {
				succ = k
			}
			pairs += succ
		}
	}

	out, err := newJoinOutput(t, t, pairs)
	if err != nil {
		return nil, err
	}
	remap := remapPool(t, out)
	nCols := len(t.cols)
	at := 0
	for g := 0; g+1 < len(off); g++ {
		b := rows[off[g]:off[g+1]]
		for i := 0; i < len(b); i++ {
			for j := i + 1; j <= i+k && j < len(b); j++ {
				pred, succ := int(b[i]), int(b[j])
				for c := range t.cols {
					switch t.cols[c].Type {
					case Float:
						out.floats[c][at] = t.floats[c][pred]
						out.floats[nCols+c][at] = t.floats[c][succ]
					case String:
						out.ints[c][at] = remap[t.ints[c][pred]]
						out.ints[nCols+c][at] = remap[t.ints[c][succ]]
					default:
						out.ints[c][at] = t.ints[c][pred]
						out.ints[nCols+c][at] = t.ints[c][succ]
					}
				}
				at++
			}
		}
	}
	return out, nil
}
