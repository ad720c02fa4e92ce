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
// order of TopK and of score tables.
func ByRank(a, b Scored) int {
	switch {
	case a.Score > b.Score:
		return -1
	case a.Score < b.Score:
		return 1
	case a.ID < b.ID:
		return -1
	case a.ID > b.ID:
		return 1
	}
	return 0
}

// TopK returns the k highest-scored nodes in ByRank order, all of them if
// k is at or beyond the vector length. It sorts a copy of the vector —
// O(V log V) per call — and never reorders the vector itself.
func TopK(scores Scores, k int) []Scored {
	if k <= 0 {
		return nil
	}
	all := slices.Clone([]Scored(scores))
	slices.SortFunc(all, ByRank)
	if k >= len(all) {
		return all
	}
	return slices.Clone(all[:k]) // do not pin V entries behind a k-entry result
}
