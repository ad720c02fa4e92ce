package table

import "fmt"

// This file defines the resolved predicate representation shared by the two
// execution backends. Parsing (expr.go) and the Select API both lower to a
// tree of predNodes whose leaves are column-resolved, constant-coerced
// comparisons, which the vectorized backend (vector.go) evaluates
// column-at-a-time into a selection bitmap. The per-row closure backend the
// fuzz and randomized tests check it against lives in closure_test.go.

type predKind uint8

const (
	predLeaf predKind = iota
	predAnd
	predOr
	predNot
)

// leafPred is one column-vs-constant comparison, resolved against a table:
// the column position, the operator, and the constant coerced to the
// column's runtime representation.
type leafPred struct {
	col int
	op  CmpOp
	typ Type
	// ic carries the constant for Int comparisons and for interned-id
	// string equality; fc for Float comparisons; sc holds the string
	// constant for ordering comparisons over string columns.
	ic int64
	fc float64
	sc string
	// missing marks a string EQ/NE whose constant was never interned in the
	// table's pool: it matches nothing (EQ) or everything (NE) without
	// touching the column.
	missing bool
}

// predNode is a node of a parsed predicate tree. left/right are set for
// connectives (right is nil for predNot); leaf is set for predLeaf.
type predNode struct {
	kind        predKind
	left, right *predNode
	leaf        leafPred
}

// resolveLeaf validates the named column and coerces the constant to the
// column's type, producing the leaf both backends execute.
func (t *Table) resolveLeaf(col string, op CmpOp, val any) (leafPred, error) {
	i := t.ColIndex(col)
	if i < 0 {
		return leafPred{}, fmt.Errorf("table: no column %q", col)
	}
	l := leafPred{col: i, op: op, typ: t.cols[i].Type}
	switch l.typ {
	case Int:
		c, ok := toInt64(val)
		if !ok {
			return leafPred{}, fmt.Errorf("table: Select on int column %q with %T constant", col, val)
		}
		l.ic = c
	case Float:
		c, ok := toFloat64(val)
		if !ok {
			return leafPred{}, fmt.Errorf("table: Select on float column %q with %T constant", col, val)
		}
		l.fc = c
	default:
		s, ok := val.(string)
		if !ok {
			return leafPred{}, fmt.Errorf("table: Select on string column %q with %T constant", col, val)
		}
		l.sc = s
		if op == EQ || op == NE {
			// Equality compares interned ids. A never-interned constant
			// matches nothing (EQ) or everything (NE).
			id, interned := t.pool.Lookup(s)
			if !interned {
				l.missing = true
			} else {
				l.ic = int64(id)
			}
		}
	}
	return l, nil
}
