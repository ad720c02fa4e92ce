package table

// The per-row closure backend: a predicate tree lowered to a chain of
// func(row int) bool, run through SelectFunc. It is the reference
// FuzzSelectExpr and vector_test.go hold the vectorized bitmap backend
// (vector.go) to, and BenchmarkSelectRow's baseline.

// compileExpr compiles a predicate expression into a per-row function. The
// function is safe for concurrent calls on distinct rows.
func (t *Table) compileExpr(expr string) (func(row int) bool, error) {
	node, err := t.parseExpr(expr)
	if err != nil {
		return nil, err
	}
	return t.compileNode(node), nil
}

// compileNode lowers a predicate tree to its closure chain.
func (t *Table) compileNode(n *predNode) func(row int) bool {
	switch n.kind {
	case predLeaf:
		return t.leafFunc(n.leaf)
	case predNot:
		inner := t.compileNode(n.left)
		return func(row int) bool { return !inner(row) }
	case predAnd:
		l, r := t.compileNode(n.left), t.compileNode(n.right)
		return func(row int) bool { return l(row) && r(row) }
	default: // predOr
		l, r := t.compileNode(n.left), t.compileNode(n.right)
		return func(row int) bool { return l(row) || r(row) }
	}
}

// leafFunc compiles a resolved leaf to a per-row predicate.
func (t *Table) leafFunc(l leafPred) func(row int) bool {
	switch l.typ {
	case Int:
		data, c, op := t.ints[l.col], l.ic, l.op
		return func(row int) bool { return cmpInt(data[row], c, op) }
	case Float:
		data, c, op := t.floats[l.col], l.fc, l.op
		return func(row int) bool { return cmpFloat(data[row], c, op) }
	default:
		if l.op == EQ || l.op == NE {
			if l.missing {
				if l.op == EQ {
					return func(row int) bool { return false }
				}
				return func(row int) bool { return true }
			}
			data, c, op := t.ints[l.col], l.ic, l.op
			return func(row int) bool { return cmpInt(data[row], c, op) }
		}
		data, pool, s, op := t.ints[l.col], t.pool, l.sc, l.op
		return func(row int) bool { return cmpString(pool.Get(int32(data[row])), s, op) }
	}
}

func cmpInt(a, b int64, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}

func cmpFloat(a, b float64, op CmpOp) bool {
	switch op {
	case EQ:
		return a == b
	case NE:
		return a != b
	case LT:
		return a < b
	case LE:
		return a <= b
	case GT:
		return a > b
	default:
		return a >= b
	}
}
