// Vectorized expression compilation: the column-at-a-time twins of the
// evaluators in exprc.go. A kernel computes a whole column (plus a null
// column) per batch; filter kernels compact the batch's selection vector in
// place. NULL semantics replicate the tuple evaluators exactly — a nil null
// column means every row is valid, so the common all-valid case pays no
// null merging at all.
package exec

import (
	"cmp"
	"fmt"
	"strings"

	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Vector kernels return a column view plus the matching null column (nil =
// all valid). Kernels compute rows [0, b.N) densely; consumers only read
// selected lanes, so dead lanes cost arithmetic, never correctness (division
// guards null-out their lanes instead of faulting).
type (
	vecInt   func(b *vbuf.Batch) ([]int64, []bool)
	vecFloat func(b *vbuf.Batch) ([]float64, []bool)
	vecBool  func(b *vbuf.Batch) ([]bool, []bool)
	vecStr   func(b *vbuf.Batch) ([]string, []bool)
)

// vecFilter compacts b.Sel to the rows satisfying a predicate (valid-true;
// NULL drops the row, like the tuple Select).
type vecFilter func(b *vbuf.Batch)

// mergeNulls ORs two null columns into scratch. Either input may be nil
// (all valid); the result may alias an input, so callers that need to write
// nulls must materialize their own column instead of calling this.
func mergeNulls(scratch, a, b []bool, n int) []bool {
	switch {
	case a == nil && b == nil:
		return nil
	case a == nil:
		return b
	case b == nil:
		return a
	}
	out := scratch[:n]
	for i := range n {
		out[i] = a[i] || b[i]
	}
	return out
}

// constColumn is the kernel of a literal: a batch-wide column of *k,
// refilled whenever a new binding changed *k.
func constColumn[T cmp.Ordered](k *T) func(*vbuf.Batch) ([]T, []bool) {
	col := make([]T, vbuf.BatchSize)
	filled := *k
	for i := range col {
		col[i] = filled
	}
	return func(*vbuf.Batch) ([]T, []bool) {
		if v := *k; v != filled {
			for i := range col {
				col[i] = v
			}
			filled = v
		}
		return col, nil
	}
}

// compileVecInt compiles an integer-typed expression into a column kernel.
func (c *Compiler) compileVecInt(e expr.Expr) (vecInt, error) {
	switch x := e.(type) {
	case *expr.Const:
		if !types.Numeric(types.TypeOf(x.V)) {
			return nil, fmt.Errorf("exec: constant %s is not numeric", x.V)
		}
		return constColumn(&c.constCell(x).i), nil
	case *expr.Ref, *expr.FieldAcc:
		s, ok := c.resolveSlot(e)
		if !ok || s.Class != vbuf.ClassInt {
			return nil, fmt.Errorf("exec: %s is not an int column", e)
		}
		return func(b *vbuf.Batch) ([]int64, []bool) { return b.I[s.Idx], b.Null[s.Null] }, nil
	case *expr.Neg:
		sub, err := c.compileVecInt(x.E)
		if err != nil {
			return nil, err
		}
		out := make([]int64, vbuf.BatchSize)
		return func(b *vbuf.Batch) ([]int64, []bool) {
			v, nn := sub(b)
			for i := range b.N {
				out[i] = -v[i]
			}
			return out, nn
		}, nil
	case *expr.BinOp:
		if !x.Op.IsArith() {
			return nil, fmt.Errorf("exec: %s does not yield an int", e)
		}
		l, err := c.compileVecInt(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVecInt(x.R)
		if err != nil {
			return nil, err
		}
		out := make([]int64, vbuf.BatchSize)
		nsc := make([]bool, vbuf.BatchSize)
		switch x.Op {
		case expr.OpAdd:
			return func(b *vbuf.Batch) ([]int64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] + bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpSub:
			return func(b *vbuf.Batch) ([]int64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] - bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpMul:
			return func(b *vbuf.Batch) ([]int64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] * bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpMod:
			// x % 0 is NULL (like the tuple path), so this kernel always
			// materializes its own null column — never aliasing an input's.
			return func(b *vbuf.Batch) ([]int64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					null := bv[i] == 0 || (an != nil && an[i]) || (bn != nil && bn[i])
					nsc[i] = null
					if null {
						out[i] = 0
					} else {
						out[i] = av[i] % bv[i]
					}
				}
				return out, nsc[:b.N]
			}, nil
		}
		return nil, fmt.Errorf("exec: operator %s does not yield an int", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T as int", e)
}

// compileVecFloat compiles a float-typed (or int-promoted) expression.
func (c *Compiler) compileVecFloat(e expr.Expr) (vecFloat, error) {
	t, err := c.typeOf(e)
	if err != nil {
		return nil, err
	}
	if t.Kind() == types.KindInt {
		iv, err := c.compileVecInt(e)
		if err != nil {
			return nil, err
		}
		out := make([]float64, vbuf.BatchSize)
		return func(b *vbuf.Batch) ([]float64, []bool) {
			v, nn := iv(b)
			for i := range b.N {
				out[i] = float64(v[i])
			}
			return out, nn
		}, nil
	}
	switch x := e.(type) {
	case *expr.Const:
		return constColumn(&c.constCell(x).f), nil
	case *expr.Ref, *expr.FieldAcc:
		s, ok := c.resolveSlot(e)
		if !ok || s.Class != vbuf.ClassFloat {
			return nil, fmt.Errorf("exec: %s is not a float column", e)
		}
		return func(b *vbuf.Batch) ([]float64, []bool) { return b.F[s.Idx], b.Null[s.Null] }, nil
	case *expr.Neg:
		sub, err := c.compileVecFloat(x.E)
		if err != nil {
			return nil, err
		}
		out := make([]float64, vbuf.BatchSize)
		return func(b *vbuf.Batch) ([]float64, []bool) {
			v, nn := sub(b)
			for i := range b.N {
				out[i] = -v[i]
			}
			return out, nn
		}, nil
	case *expr.BinOp:
		if !x.Op.IsArith() {
			return nil, fmt.Errorf("exec: %s does not yield a float", e)
		}
		l, err := c.compileVecFloat(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVecFloat(x.R)
		if err != nil {
			return nil, err
		}
		out := make([]float64, vbuf.BatchSize)
		nsc := make([]bool, vbuf.BatchSize)
		switch x.Op {
		case expr.OpAdd:
			return func(b *vbuf.Batch) ([]float64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] + bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpSub:
			return func(b *vbuf.Batch) ([]float64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] - bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpMul:
			return func(b *vbuf.Batch) ([]float64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					out[i] = av[i] * bv[i]
				}
				return out, mergeNulls(nsc, an, bn, b.N)
			}, nil
		case expr.OpDiv:
			// x / 0 is NULL — own null column, see OpMod.
			return func(b *vbuf.Batch) ([]float64, []bool) {
				av, an := l(b)
				bv, bn := rr(b)
				for i := range b.N {
					null := bv[i] == 0 || (an != nil && an[i]) || (bn != nil && bn[i])
					nsc[i] = null
					if null {
						out[i] = 0
					} else {
						out[i] = av[i] / bv[i]
					}
				}
				return out, nsc[:b.N]
			}, nil
		}
		return nil, fmt.Errorf("exec: operator %s does not yield a float", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T as float", e)
}

// compileVecStr compiles a string-typed expression.
func (c *Compiler) compileVecStr(e expr.Expr) (vecStr, error) {
	switch x := e.(type) {
	case *expr.Const:
		return constColumn(&c.constCell(x).s), nil
	case *expr.Ref, *expr.FieldAcc:
		s, ok := c.resolveSlot(e)
		if !ok || s.Class != vbuf.ClassString {
			return nil, fmt.Errorf("exec: %s is not a string column", e)
		}
		return func(b *vbuf.Batch) ([]string, []bool) { return b.S[s.Idx], b.Null[s.Null] }, nil
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T as string", e)
}

// compileVecBool compiles a boolean expression into a column kernel. The
// logic connectives reproduce the tuple evaluators' three-valued logic
// row-wise, except that both operands are evaluated eagerly over the batch
// (expressions are side-effect-free and division guards keep dead lanes
// safe, so eager evaluation only changes cost, not results).
func (c *Compiler) compileVecBool(e expr.Expr) (vecBool, error) {
	switch x := e.(type) {
	case *expr.Const:
		col := make([]bool, vbuf.BatchSize)
		for i := range col {
			col[i] = x.V.Bool()
		}
		return func(*vbuf.Batch) ([]bool, []bool) { return col, nil }, nil
	case *expr.Ref, *expr.FieldAcc:
		s, ok := c.resolveSlot(e)
		if !ok || s.Class != vbuf.ClassBool {
			return nil, fmt.Errorf("exec: %s is not a bool column", e)
		}
		return func(b *vbuf.Batch) ([]bool, []bool) { return b.B[s.Idx], b.Null[s.Null] }, nil
	case *expr.Not:
		sub, err := c.compileVecBool(x.E)
		if err != nil {
			return nil, err
		}
		out := make([]bool, vbuf.BatchSize)
		return func(b *vbuf.Batch) ([]bool, []bool) {
			v, nn := sub(b)
			for i := range b.N {
				out[i] = !v[i]
			}
			return out, nn
		}, nil
	case *expr.Like:
		sub, err := c.compileVecStr(x.E)
		if err != nil {
			return nil, err
		}
		out := make([]bool, vbuf.BatchSize)
		if x.Prefix {
			needle := x.Needle
			return func(b *vbuf.Batch) ([]bool, []bool) {
				v, nn := sub(b)
				for i := range b.N {
					out[i] = strings.HasPrefix(v[i], needle)
				}
				return out, nn
			}, nil
		}
		needle := x.Needle
		return func(b *vbuf.Batch) ([]bool, []bool) {
			v, nn := sub(b)
			for i := range b.N {
				out[i] = strings.Contains(v[i], needle)
			}
			return out, nn
		}, nil
	case *expr.IsNull:
		nulls, err := c.compileVecNulls(x.E)
		if err != nil {
			return nil, err
		}
		out := make([]bool, vbuf.BatchSize)
		return func(b *vbuf.Batch) ([]bool, []bool) {
			nn := nulls(b)
			if nn == nil {
				for i := range b.N {
					out[i] = false
				}
				return out, nil
			}
			copy(out[:b.N], nn[:b.N])
			return out, nil
		}, nil
	case *expr.BinOp:
		switch {
		case x.Op.IsLogic():
			l, err := c.compileVecBool(x.L)
			if err != nil {
				return nil, err
			}
			rr, err := c.compileVecBool(x.R)
			if err != nil {
				return nil, err
			}
			out := make([]bool, vbuf.BatchSize)
			nsc := make([]bool, vbuf.BatchSize)
			if x.Op == expr.OpAnd {
				return func(b *vbuf.Batch) ([]bool, []bool) {
					lv, ln := l(b)
					rv, rn := rr(b)
					if ln == nil && rn == nil {
						for i := range b.N {
							out[i] = lv[i] && rv[i]
						}
						return out, nil
					}
					// NULL AND x → NULL; false AND x → false; true AND x → x.
					for i := range b.N {
						switch {
						case ln != nil && ln[i]:
							out[i], nsc[i] = false, true
						case !lv[i]:
							out[i], nsc[i] = false, false
						default:
							out[i], nsc[i] = rv[i], rn != nil && rn[i]
						}
					}
					return out, nsc[:b.N]
				}, nil
			}
			return func(b *vbuf.Batch) ([]bool, []bool) {
				lv, ln := l(b)
				rv, rn := rr(b)
				if ln == nil && rn == nil {
					for i := range b.N {
						out[i] = lv[i] || rv[i]
					}
					return out, nil
				}
				// true OR x → true (valid); else the right operand decides.
				for i := range b.N {
					if (ln == nil || !ln[i]) && lv[i] {
						out[i], nsc[i] = true, false
					} else {
						out[i], nsc[i] = rv[i], rn != nil && rn[i]
					}
				}
				return out, nsc[:b.N]
			}, nil
		case x.Op.IsComparison():
			return c.compileVecComparison(x)
		}
		return nil, fmt.Errorf("exec: operator %s does not yield a bool", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot vectorize %T as bool", e)
}

// compileVecNulls compiles a scalar expression down to just its null
// column (IS NULL only needs validity, not values). The value column is
// still computed — kernels are monolithic — but stays unread.
func (c *Compiler) compileVecNulls(e expr.Expr) (func(b *vbuf.Batch) []bool, error) {
	t, err := c.typeOf(e)
	if err != nil {
		return nil, err
	}
	switch t.Kind() {
	case types.KindInt:
		sub, err := c.compileVecInt(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch) []bool { _, nn := sub(b); return nn }, nil
	case types.KindFloat:
		sub, err := c.compileVecFloat(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch) []bool { _, nn := sub(b); return nn }, nil
	case types.KindBool:
		sub, err := c.compileVecBool(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch) []bool { _, nn := sub(b); return nn }, nil
	case types.KindString:
		sub, err := c.compileVecStr(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch) []bool { _, nn := sub(b); return nn }, nil
	}
	return nil, fmt.Errorf("exec: cannot vectorize IS NULL over %s", t)
}

// compileVecComparison specializes a comparison on the operands' static
// types, mirroring the tuple compiler's dispatch (int×int, numeric promoted
// to float, string×string). Boxed comparisons are never vectorized.
func (c *Compiler) compileVecComparison(x *expr.BinOp) (vecBool, error) {
	lt, err := c.typeOf(x.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.typeOf(x.R)
	if err != nil {
		return nil, err
	}
	switch {
	case lt.Kind() == types.KindInt && rt.Kind() == types.KindInt:
		l, err := c.compileVecInt(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVecInt(x.R)
		if err != nil {
			return nil, err
		}
		return ordCmpKernel(x.Op, l, rr)
	case types.Numeric(lt) && types.Numeric(rt):
		l, err := c.compileVecFloat(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVecFloat(x.R)
		if err != nil {
			return nil, err
		}
		return ordCmpKernel(x.Op, l, rr)
	case lt.Kind() == types.KindString && rt.Kind() == types.KindString:
		l, err := c.compileVecStr(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVecStr(x.R)
		if err != nil {
			return nil, err
		}
		return ordCmpKernel(x.Op, l, rr)
	}
	return nil, fmt.Errorf("exec: comparison %s×%s is not vectorizable", lt, rt)
}

// ordCmpKernel builds one comparison kernel per operator over any ordered
// column type (Go's operators on cmp.Ordered match the tuple comparators,
// including float NaN behavior).
func ordCmpKernel[T cmp.Ordered](op expr.BinKind, l, r func(b *vbuf.Batch) ([]T, []bool)) (vecBool, error) {
	out := make([]bool, vbuf.BatchSize)
	nsc := make([]bool, vbuf.BatchSize)
	switch op {
	case expr.OpEq:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] == bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	case expr.OpNe:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] != bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	case expr.OpLt:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] < bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	case expr.OpLe:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] <= bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	case expr.OpGt:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] > bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	case expr.OpGe:
		return func(b *vbuf.Batch) ([]bool, []bool) {
			av, an := l(b)
			bv, bn := r(b)
			for i := range b.N {
				out[i] = av[i] >= bv[i]
			}
			return out, mergeNulls(nsc, an, bn, b.N)
		}, nil
	}
	return nil, fmt.Errorf("exec: %s is not a comparison", op)
}

// Filter compilation ---------------------------------------------------------

// compileVecFilter compiles a predicate into a selection-vector compaction.
// Conjunctions become sequential filters (three-valued AND equals "drop on
// either side"); comparisons against a constant get fully specialized loops;
// everything else evaluates a bool kernel and filters on it.
func (c *Compiler) compileVecFilter(e expr.Expr) (vecFilter, error) {
	if x, ok := e.(*expr.BinOp); ok {
		if x.Op == expr.OpAnd {
			l, err := c.compileVecFilter(x.L)
			if err != nil {
				return nil, err
			}
			rr, err := c.compileVecFilter(x.R)
			if err != nil {
				return nil, err
			}
			return func(b *vbuf.Batch) {
				l(b)
				rr(b)
			}, nil
		}
		if x.Op.IsComparison() {
			if f, ok, err := c.tryVecConstFilter(x); ok || err != nil {
				return f, err
			}
		}
	}
	if like, ok := e.(*expr.Like); ok {
		ev, err := c.compileVecStr(like.E)
		if err != nil {
			return nil, err
		}
		return likeFilter(like, ev), nil
	}
	ev, err := c.compileVecBool(e)
	if err != nil {
		return nil, err
	}
	return boolFilter(ev), nil
}

// tryVecConstFilter recognizes comparisons with a constant on one side and
// emits the tight specialized loop (the dominant filter shape). A constant
// on the left flips the operator so the column stays on the left.
func (c *Compiler) tryVecConstFilter(x *expr.BinOp) (vecFilter, bool, error) {
	op := x.Op
	col, k := x.L, x.R
	if _, isConst := x.L.(*expr.Const); isConst {
		col, k = x.R, x.L
		op = flipCmp(op)
	}
	kc, isConst := k.(*expr.Const)
	if !isConst {
		return nil, false, nil
	}
	ct, err := c.typeOf(col)
	if err != nil {
		return nil, false, nil
	}
	kt := types.TypeOf(kc.V)
	cell := c.constCell(kc)
	switch {
	case ct.Kind() == types.KindInt && kt.Kind() == types.KindInt:
		ev, err := c.compileVecInt(col)
		if err != nil {
			return nil, true, err
		}
		f, err := ordConstFilter(op, ev, &cell.i)
		return f, true, err
	case types.Numeric(ct) && types.Numeric(kt):
		ev, err := c.compileVecFloat(col)
		if err != nil {
			return nil, true, err
		}
		f, err := ordConstFilter(op, ev, &cell.f)
		return f, true, err
	case ct.Kind() == types.KindString && kt.Kind() == types.KindString:
		ev, err := c.compileVecStr(col)
		if err != nil {
			return nil, true, err
		}
		f, err := ordConstFilter(op, ev, &cell.s)
		return f, true, err
	}
	return nil, false, nil
}

func flipCmp(op expr.BinKind) expr.BinKind {
	switch op {
	case expr.OpLt:
		return expr.OpGt
	case expr.OpLe:
		return expr.OpGe
	case expr.OpGt:
		return expr.OpLt
	case expr.OpGe:
		return expr.OpLe
	}
	return op // Eq and Ne are symmetric
}

// ordConstFilter emits the specialized column-vs-constant selection loop for
// one operator, with a null-free fast variant. The literal is read from its
// frame cell once per batch. In-place Sel compaction is safe: the write
// index never passes the read index.
func ordConstFilter[T cmp.Ordered](op expr.BinKind, col func(b *vbuf.Batch) ([]T, []bool), kp *T) (vecFilter, error) {
	switch op {
	case expr.OpEq:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] == k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] == k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	case expr.OpNe:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] != k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] != k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	case expr.OpLt:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] < k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] < k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	case expr.OpLe:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] <= k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] <= k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	case expr.OpGt:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] > k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] > k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	case expr.OpGe:
		return func(b *vbuf.Batch) {
			v, nn := col(b)
			k := *kp
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if v[j] >= k {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && v[j] >= k {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}, nil
	}
	return nil, fmt.Errorf("exec: %s is not a comparison", op)
}

// likeFilter compacts the selection vector through a LIKE predicate without
// materializing a bool column: contains or prefix match directly on the
// string column, skipping nulls (NULL LIKE anything is not true).
func likeFilter(like *expr.Like, ev vecStr) vecFilter {
	needle := like.Needle
	if like.Prefix {
		return func(b *vbuf.Batch) {
			v, nn := ev(b)
			out, n := b.SelScratch(), 0
			if nn == nil {
				for _, j := range b.Sel {
					if strings.HasPrefix(v[j], needle) {
						out[n] = j
						n++
					}
				}
			} else {
				for _, j := range b.Sel {
					if !nn[j] && strings.HasPrefix(v[j], needle) {
						out[n] = j
						n++
					}
				}
			}
			b.Sel = out[:n]
		}
	}
	return func(b *vbuf.Batch) {
		v, nn := ev(b)
		out, n := b.SelScratch(), 0
		if nn == nil {
			for _, j := range b.Sel {
				if strings.Contains(v[j], needle) {
					out[n] = j
					n++
				}
			}
		} else {
			for _, j := range b.Sel {
				if !nn[j] && strings.Contains(v[j], needle) {
					out[n] = j
					n++
				}
			}
		}
		b.Sel = out[:n]
	}
}

// boolFilter selects the valid-true rows of an arbitrary bool kernel.
func boolFilter(ev vecBool) vecFilter {
	return func(b *vbuf.Batch) {
		v, nn := ev(b)
		out, n := b.SelScratch(), 0
		if nn == nil {
			for _, j := range b.Sel {
				if v[j] {
					out[n] = j
					n++
				}
			}
		} else {
			for _, j := range b.Sel {
				if !nn[j] && v[j] {
					out[n] = j
					n++
				}
			}
		}
		b.Sel = out[:n]
	}
}
