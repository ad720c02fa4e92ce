package table

import (
	"fmt"
	"math"
)

// Metric enumerates distance metrics for SimJoin.
type Metric int

// Distance metrics over numeric column vectors.
const (
	// L1 is Manhattan distance (sum of absolute coordinate differences).
	L1 Metric = iota
	// L2 is Euclidean distance.
	L2
	// LInf is Chebyshev distance (max absolute coordinate difference).
	LInf
)

func distance(a, b []float64, m Metric) float64 {
	switch m {
	case L1:
		var d float64
		for i := range a {
			d += math.Abs(a[i] - b[i])
		}
		return d
	case L2:
		var d float64
		for i := range a {
			diff := a[i] - b[i]
			d += diff * diff
		}
		return math.Sqrt(d)
	default:
		var d float64
		for i := range a {
			if diff := math.Abs(a[i] - b[i]); diff > d {
				d = diff
			}
		}
		return d
	}
}

// SimJoin joins t (left) with right, emitting one output row for each pair
// of rows whose numeric feature vectors — taken from leftCols and rightCols,
// which must be numeric and of equal count — are within threshold under the
// given metric. This is the advanced graph-construction operation from §2.3:
// "SimJoin, which joins two records if their distance is smaller than a
// given threshold", used to create edges based on node similarity.
//
// The output schema is the left schema, the right schema (colliding names
// suffixed -1/-2 as in Join), and a trailing Float column "SimDist" holding
// the pair distance. The implementation buckets the right rows into a grid
// of threshold-sized cells and probes only the 3^d neighboring cells per
// left row, avoiding the quadratic all-pairs scan.
func (t *Table) SimJoin(right *Table, leftCols, rightCols []string, threshold float64, metric Metric) (*Table, error) {
	if len(leftCols) == 0 || len(leftCols) != len(rightCols) {
		return nil, fmt.Errorf("table: SimJoin needs matching non-empty column lists, got %d and %d",
			len(leftCols), len(rightCols))
	}
	if threshold < 0 || math.IsNaN(threshold) || math.IsInf(threshold, 0) {
		return nil, fmt.Errorf("table: SimJoin threshold %v out of range", threshold)
	}
	d := len(leftCols)
	if d > 8 {
		return nil, fmt.Errorf("table: SimJoin supports at most 8 dimensions, got %d", d)
	}
	lvecs, err := t.featureVectors(leftCols)
	if err != nil {
		return nil, err
	}
	rvecs, err := right.featureVectors(rightCols)
	if err != nil {
		return nil, err
	}

	// Cell size of threshold guarantees that any pair within threshold under
	// L1/L2/LInf lies in the same or an adjacent cell on every axis.
	cell := threshold
	if cell == 0 {
		cell = 1 // exact-match join; all equal vectors share a cell
	}
	grid := make(map[string][]int32, right.NumRows())
	var key []byte
	cellKey := func(vec []float64) string {
		key = key[:0]
		for _, x := range vec {
			c := int64(math.Floor(x / cell))
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(c>>s))
			}
		}
		return string(key)
	}
	for row := 0; row < right.NumRows(); row++ {
		k := cellKey(rvecs[row])
		grid[k] = append(grid[k], int32(row))
	}

	// Enumerate neighbor cell offsets in d dimensions: {-1,0,1}^d.
	offsets := make([][]int64, 0, 1)
	offsets = append(offsets, make([]int64, d))
	for dim := 0; dim < d; dim++ {
		cur := offsets
		offsets = nil
		for _, o := range cur {
			for _, delta := range []int64{-1, 0, 1} {
				oo := append(append([]int64(nil), o...), 0)
				oo = oo[:d]
				copy(oo, o)
				oo[dim] = delta
				offsets = append(offsets, oo)
			}
		}
	}
	// Deduplicate (construction above yields 3^d unique offsets already).

	out, err := newJoinOutput(t, right, 0)
	if err != nil {
		return nil, err
	}
	if err := out.addSimDistColumn(); err != nil {
		return nil, err
	}
	rStrRemap := remapPool(right, out)

	neighborKey := func(vec []float64, off []int64) string {
		key = key[:0]
		for dim, x := range vec {
			c := int64(math.Floor(x/cell)) + off[dim]
			for s := 0; s < 64; s += 8 {
				key = append(key, byte(c>>s))
			}
		}
		return string(key)
	}

	ld, rd := t.settle(), right.settle()
	for lrow := 0; lrow < t.NumRows(); lrow++ {
		for _, off := range offsets {
			for _, rrow := range grid[neighborKey(lvecs[lrow], off)] {
				dist := distance(lvecs[lrow], rvecs[rrow], metric)
				if dist <= threshold {
					out.appendJoinedRow(t, ld, lrow, right, rd, int(rrow), rStrRemap, dist)
				}
			}
		}
	}
	out.renumber()
	return out, nil
}

func (t *Table) featureVectors(cols []string) ([][]float64, error) {
	colData := make([][]float64, len(cols))
	for k, name := range cols {
		vals, err := t.numericAsFloat(name)
		if err != nil {
			return nil, fmt.Errorf("table: SimJoin: %w", err)
		}
		colData[k] = vals
	}
	vecs := make([][]float64, t.NumRows())
	flat := make([]float64, t.NumRows()*len(cols))
	for row := 0; row < t.NumRows(); row++ {
		v := flat[row*len(cols) : (row+1)*len(cols)]
		for k := range cols {
			v[k] = colData[k][row]
		}
		vecs[row] = v
	}
	return vecs, nil
}

func (t *Table) addSimDistColumn() error {
	name := "SimDist"
	for t.ColIndex(name) >= 0 {
		name += "_"
	}
	return t.addColumn(Column{name, Float}, nil, nil)
}

// appendJoinedRow appends row lrow of left (its cells ld) joined with row
// rrow of right (its cells rd) plus the trailing distance column.
func (t *Table) appendJoinedRow(left *Table, ld *cells, lrow int, right *Table, rd *cells, rrow int, rStrRemap []int64, dist float64) {
	d := &t.data
	nLeft := len(left.cols)
	for i := range left.cols {
		if left.cols[i].Type == Float {
			d.floats[i] = append(d.floats[i], ld.floats[i][lrow])
		} else {
			d.ints[i] = append(d.ints[i], ld.ints[i][lrow])
		}
	}
	for j := range right.cols {
		o := nLeft + j
		switch right.cols[j].Type {
		case Float:
			d.floats[o] = append(d.floats[o], rd.floats[j][rrow])
		case String:
			d.ints[o] = append(d.ints[o], rStrRemap[rd.ints[j][rrow]])
		default:
			d.ints[o] = append(d.ints[o], rd.ints[j][rrow])
		}
	}
	last := len(t.cols) - 1
	d.floats[last] = append(d.floats[last], dist)
	d.rowIDs = append(d.rowIDs, 0) // renumbered by the caller
}
