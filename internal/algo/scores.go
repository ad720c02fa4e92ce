package algo

import (
	"cmp"
	"slices"
)

// Scored pairs a node id with a score.
type Scored struct {
	ID    int64
	Score float64
}

// Scores is the result of every score-returning kernel: one entry per
// scored node in strictly ascending id order — the order of View.IDs() and
// of the snapshot score frame. A Scores value is shared between the result
// cache, workspace bindings and snapshots without copying, so it is
// immutable once returned: sort or filter a copy, never the value itself.
type Scores []Scored

// newScores pairs a view's ascending id vector with a dense value vector.
// The result is non-nil even for an empty view.
func newScores(ids []int64, vals []float64) Scores {
	s := make(Scores, len(ids))
	for i, id := range ids {
		s[i] = Scored{id, vals[i]}
	}
	return s
}

// Get returns the score of node id by binary search.
func (s Scores) Get(id int64) (float64, bool) {
	i, ok := slices.BinarySearchFunc(s, id, func(e Scored, id int64) int { return cmp.Compare(e.ID, id) })
	if !ok {
		return 0, false
	}
	return s[i].Score, true
}

// ByRank orders entries by descending score, ties by ascending id — the
// order of TopK and of score tables. It is a strict weak order over every
// float64: NaN ranks below all other scores and -0 ties with 0, exactly
// cmp.Or(cmp.Compare(b.Score, a.Score), cmp.Compare(a.ID, b.ID)). The two
// plain comparisons decide every pair of distinct non-NaN scores, which
// keeps cmp.Compare's NaN checks off the common path of a sort.
func ByRank(a, b Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	}
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	return cmp.Compare(a.ID, b.ID)
}

// TopK returns the k highest-scored nodes in ByRank order, all of them if
// k is at or beyond the vector length, and never reorders the vector
// itself. For k below the length it keeps a k-entry heap whose root is the
// worst entry kept, then sorts those k: O(V log k) time and one k-entry
// allocation. Otherwise it sorts a copy of the whole vector.
func TopK(scores Scores, k int) []Scored {
	if k <= 0 {
		return nil
	}
	if k >= len(scores) {
		all := slices.Clone([]Scored(scores))
		slices.SortFunc(all, ByRank)
		return all
	}
	h := slices.Clone([]Scored(scores[:k]))
	for i := k/2 - 1; i >= 0; i-- {
		siftWorst(h, i)
	}
	for _, e := range scores[k:] {
		// A lower score (so neither is NaN) ranks worse whatever the ids:
		// most entries are turned away without the full comparison.
		if e.Score < h[0].Score || ByRank(e, h[0]) >= 0 {
			continue
		}
		h[0] = e
		siftWorst(h, 0)
	}
	slices.SortFunc(h, ByRank)
	return h
}

// siftWorst restores the heap order below h[i] in a heap whose every
// parent ranks no better than its children, so h[0] is the worst entry.
func siftWorst(h []Scored, i int) {
	for {
		w := i
		for _, c := range [2]int{2*i + 1, 2*i + 2} {
			if c < len(h) && ByRank(h[c], h[w]) > 0 {
				w = c
			}
		}
		if w == i {
			return
		}
		h[i], h[w] = h[w], h[i]
		i = w
	}
}
