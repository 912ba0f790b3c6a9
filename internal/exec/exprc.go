// Package exec is the on-demand query engine of the paper (§5): it
// traverses a physical plan once, at query time, and emits a specialized
// implementation of every visited operator. The Go rendering of the
// paper's LLVM code generation is closure compilation: each operator and
// each expression becomes a type-specialized closure over the typed
// virtual-buffer register file, so the per-tuple path contains no plan
// interpretation, no boxed values, and no datatype dispatch — those happen
// exactly once, during compilation.
package exec

import (
	"fmt"
	"strings"

	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Typed evaluators. The boolean "ok" is the SQL-style validity flag: false
// means NULL. Predicates treat NULL as not satisfied.
type (
	evalInt   func(r *vbuf.Regs) (int64, bool)
	evalFloat func(r *vbuf.Regs) (float64, bool)
	evalBool  func(r *vbuf.Regs) (bool, bool)
	evalStr   func(r *vbuf.Regs) (string, bool)
	evalVal   func(r *vbuf.Regs) (types.Value, bool)
)

// typeOf infers the static type of e under the compiler's binding env.
func (c *Compiler) typeOf(e expr.Expr) (types.Type, error) {
	return expr.InferType(e, c.envTypes)
}

// resolveSlot returns the slot holding a path expression, if the path was
// extracted into a register. ok is false when the value must instead be
// reached through a boxed record (valSlot).
func (c *Compiler) resolveSlot(e expr.Expr) (vbuf.Slot, bool) {
	root, path, ok := expr.PathOf(e)
	if !ok {
		return vbuf.Slot{}, false
	}
	b, ok := c.bindings[root]
	if !ok {
		return vbuf.Slot{}, false
	}
	s, ok := b.slots[pathKey(path)]
	return s, ok
}

// resolveBoxed compiles boxed access for a path expression whose prefix
// lives in a Value slot: the longest extracted prefix is read, and the
// remaining path is followed through the boxed record at run time.
func (c *Compiler) resolveBoxed(e expr.Expr) (evalVal, error) {
	root, path, ok := expr.PathOf(e)
	if !ok {
		return nil, fmt.Errorf("exec: expression %s is not a path", e)
	}
	b, bound := c.bindings[root]
	if !bound {
		return nil, fmt.Errorf("exec: unknown binding %q", root)
	}
	// Longest extracted prefix (possibly the whole binding, key "").
	for n := len(path); n >= 0; n-- {
		if s, ok := b.slots[pathKey(path[:n])]; ok {
			rest := path[n:]
			if len(rest) == 0 {
				return func(r *vbuf.Regs) (types.Value, bool) {
					if r.Null[s.Null] {
						return types.Value{}, false
					}
					return r.Get(s), true
				}, nil
			}
			restCopy := append([]string(nil), rest...)
			return func(r *vbuf.Regs) (types.Value, bool) {
				if r.Null[s.Null] {
					return types.Value{}, false
				}
				v, ok := r.Get(s).Path(restCopy...)
				if !ok || v.IsNull() {
					return types.Value{}, false
				}
				return v, true
			}, nil
		}
	}
	return nil, fmt.Errorf("exec: no slot materialized for %s (binding %q)", e, root)
}

func pathKey(path []string) string { return strings.Join(path, ".") }

// compileInt compiles an integer-typed expression.
func (c *Compiler) compileInt(e expr.Expr) (evalInt, error) {
	switch x := e.(type) {
	case *expr.Const:
		if !types.Numeric(types.TypeOf(x.V)) {
			return nil, fmt.Errorf("exec: constant %s is not numeric", x.V)
		}
		k := c.constCell(x)
		return func(*vbuf.Regs) (int64, bool) { return k.i, true }, nil
	case *expr.Ref, *expr.FieldAcc:
		if s, ok := c.resolveSlot(e); ok {
			if s.Class != vbuf.ClassInt {
				return nil, fmt.Errorf("exec: %s is not an int register", e)
			}
			return func(r *vbuf.Regs) (int64, bool) { return r.I[s.Idx], !r.Null[s.Null] }, nil
		}
		ev, err := c.resolveBoxed(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (int64, bool) {
			v, ok := ev(r)
			if !ok {
				return 0, false
			}
			return v.AsInt(), true
		}, nil
	case *expr.Neg:
		sub, err := c.compileInt(x.E)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (int64, bool) {
			v, ok := sub(r)
			return -v, ok
		}, nil
	case *expr.BinOp:
		if !x.Op.IsArith() {
			return nil, fmt.Errorf("exec: %s does not yield an int", e)
		}
		l, err := c.compileInt(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileInt(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case expr.OpAdd:
			return func(r *vbuf.Regs) (int64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a + b, aok && bok
			}, nil
		case expr.OpSub:
			return func(r *vbuf.Regs) (int64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a - b, aok && bok
			}, nil
		case expr.OpMul:
			return func(r *vbuf.Regs) (int64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a * b, aok && bok
			}, nil
		case expr.OpMod:
			return func(r *vbuf.Regs) (int64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				if !aok || !bok || b == 0 {
					return 0, false
				}
				return a % b, true
			}, nil
		}
		return nil, fmt.Errorf("exec: operator %s does not yield an int", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot compile %T as int", e)
}

// compileFloat compiles a float-typed (or int-promoted) expression.
func (c *Compiler) compileFloat(e expr.Expr) (evalFloat, error) {
	t, err := c.typeOf(e)
	if err != nil {
		return nil, err
	}
	if t.Kind() == types.KindInt {
		iv, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (float64, bool) {
			v, ok := iv(r)
			return float64(v), ok
		}, nil
	}
	switch x := e.(type) {
	case *expr.Const:
		k := c.constCell(x)
		return func(*vbuf.Regs) (float64, bool) { return k.f, true }, nil
	case *expr.Ref, *expr.FieldAcc:
		if s, ok := c.resolveSlot(e); ok {
			if s.Class != vbuf.ClassFloat {
				return nil, fmt.Errorf("exec: %s is not a float register", e)
			}
			return func(r *vbuf.Regs) (float64, bool) { return r.F[s.Idx], !r.Null[s.Null] }, nil
		}
		ev, err := c.resolveBoxed(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (float64, bool) {
			v, ok := ev(r)
			if !ok {
				return 0, false
			}
			return v.AsFloat(), true
		}, nil
	case *expr.Neg:
		sub, err := c.compileFloat(x.E)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (float64, bool) {
			v, ok := sub(r)
			return -v, ok
		}, nil
	case *expr.BinOp:
		if !x.Op.IsArith() {
			return nil, fmt.Errorf("exec: %s does not yield a float", e)
		}
		l, err := c.compileFloat(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileFloat(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case expr.OpAdd:
			return func(r *vbuf.Regs) (float64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a + b, aok && bok
			}, nil
		case expr.OpSub:
			return func(r *vbuf.Regs) (float64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a - b, aok && bok
			}, nil
		case expr.OpMul:
			return func(r *vbuf.Regs) (float64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				return a * b, aok && bok
			}, nil
		case expr.OpDiv:
			return func(r *vbuf.Regs) (float64, bool) {
				a, aok := l(r)
				b, bok := rr(r)
				if !aok || !bok || b == 0 {
					return 0, false
				}
				return a / b, true
			}, nil
		}
		return nil, fmt.Errorf("exec: operator %s does not yield a float", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot compile %T as float", e)
}

// compileStr compiles a string-typed expression.
func (c *Compiler) compileStr(e expr.Expr) (evalStr, error) {
	switch x := e.(type) {
	case *expr.Const:
		k := c.constCell(x)
		return func(*vbuf.Regs) (string, bool) { return k.s, true }, nil
	case *expr.Ref, *expr.FieldAcc:
		if s, ok := c.resolveSlot(x); ok {
			if s.Class != vbuf.ClassString {
				return nil, fmt.Errorf("exec: %s is not a string register", e)
			}
			return func(r *vbuf.Regs) (string, bool) { return r.S[s.Idx], !r.Null[s.Null] }, nil
		}
		ev, err := c.resolveBoxed(x)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (string, bool) {
			v, ok := ev(r)
			if !ok {
				return "", false
			}
			return v.S, true
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T as string", e)
}

// compileBool compiles a boolean expression (predicates, connectives,
// comparisons); NULL evaluates as not-satisfied.
func (c *Compiler) compileBool(e expr.Expr) (evalBool, error) {
	switch x := e.(type) {
	case *expr.Const:
		v := x.V.Bool()
		return func(*vbuf.Regs) (bool, bool) { return v, true }, nil
	case *expr.Ref, *expr.FieldAcc:
		if s, ok := c.resolveSlot(e); ok {
			if s.Class != vbuf.ClassBool {
				return nil, fmt.Errorf("exec: %s is not a bool register", e)
			}
			return func(r *vbuf.Regs) (bool, bool) { return r.B[s.Idx], !r.Null[s.Null] }, nil
		}
		ev, err := c.resolveBoxed(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (bool, bool) {
			v, ok := ev(r)
			if !ok {
				return false, false
			}
			return v.Bool(), true
		}, nil
	case *expr.Not:
		sub, err := c.compileBool(x.E)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (bool, bool) {
			v, ok := sub(r)
			return !v, ok
		}, nil
	case *expr.IsNull:
		sub, err := c.compileVal(x.E)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (bool, bool) {
			_, ok := sub(r)
			return !ok, true
		}, nil
	case *expr.Like:
		sub, err := c.compileStr(x.E)
		if err != nil {
			return nil, err
		}
		like := x
		return func(r *vbuf.Regs) (bool, bool) {
			v, ok := sub(r)
			if !ok {
				return false, false
			}
			return like.Match(v), true
		}, nil
	case *expr.BinOp:
		switch {
		case x.Op.IsLogic():
			l, err := c.compileBool(x.L)
			if err != nil {
				return nil, err
			}
			rr, err := c.compileBool(x.R)
			if err != nil {
				return nil, err
			}
			if x.Op == expr.OpAnd {
				return func(r *vbuf.Regs) (bool, bool) {
					a, aok := l(r)
					if !aok || !a {
						return false, aok
					}
					return rr(r)
				}, nil
			}
			return func(r *vbuf.Regs) (bool, bool) {
				a, aok := l(r)
				if aok && a {
					return true, true
				}
				return rr(r)
			}, nil
		case x.Op.IsComparison():
			return c.compileComparison(x)
		}
		return nil, fmt.Errorf("exec: operator %s does not yield a bool", x.Op)
	}
	return nil, fmt.Errorf("exec: cannot compile %T as bool", e)
}

// compileComparison specializes a comparison on the operands' static types:
// int×int, numeric (promoted to float), string, or boxed fallback.
func (c *Compiler) compileComparison(x *expr.BinOp) (evalBool, error) {
	lt, err := c.typeOf(x.L)
	if err != nil {
		return nil, err
	}
	rt, err := c.typeOf(x.R)
	if err != nil {
		return nil, err
	}
	op := x.Op
	switch {
	case lt.Kind() == types.KindInt && rt.Kind() == types.KindInt:
		l, err := c.compileInt(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileInt(x.R)
		if err != nil {
			return nil, err
		}
		return intCmp(op, l, rr), nil
	case types.Numeric(lt) && types.Numeric(rt):
		l, err := c.compileFloat(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileFloat(x.R)
		if err != nil {
			return nil, err
		}
		return floatCmp(op, l, rr), nil
	case lt.Kind() == types.KindString && rt.Kind() == types.KindString:
		l, err := c.compileStr(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileStr(x.R)
		if err != nil {
			return nil, err
		}
		return strCmp(op, l, rr), nil
	default:
		l, err := c.compileVal(x.L)
		if err != nil {
			return nil, err
		}
		rr, err := c.compileVal(x.R)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (bool, bool) {
			a, aok := l(r)
			b, bok := rr(r)
			if !aok || !bok {
				return false, false
			}
			return cmpSatisfies(op, types.Compare(a, b)), true
		}, nil
	}
}

func cmpSatisfies(op expr.BinKind, c int) bool {
	switch op {
	case expr.OpEq:
		return c == 0
	case expr.OpNe:
		return c != 0
	case expr.OpLt:
		return c < 0
	case expr.OpLe:
		return c <= 0
	case expr.OpGt:
		return c > 0
	case expr.OpGe:
		return c >= 0
	}
	return false
}

func intCmp(op expr.BinKind, l, r evalInt) evalBool {
	switch op {
	case expr.OpEq:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a == b, aok && bok
		}
	case expr.OpNe:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a != b, aok && bok
		}
	case expr.OpLt:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a < b, aok && bok
		}
	case expr.OpLe:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a <= b, aok && bok
		}
	case expr.OpGt:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a > b, aok && bok
		}
	default:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a >= b, aok && bok
		}
	}
}

func floatCmp(op expr.BinKind, l, r evalFloat) evalBool {
	switch op {
	case expr.OpEq:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a == b, aok && bok
		}
	case expr.OpNe:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a != b, aok && bok
		}
	case expr.OpLt:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a < b, aok && bok
		}
	case expr.OpLe:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a <= b, aok && bok
		}
	case expr.OpGt:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a > b, aok && bok
		}
	default:
		return func(rg *vbuf.Regs) (bool, bool) {
			a, aok := l(rg)
			b, bok := r(rg)
			return a >= b, aok && bok
		}
	}
}

func strCmp(op expr.BinKind, l, r evalStr) evalBool {
	return func(rg *vbuf.Regs) (bool, bool) {
		a, aok := l(rg)
		b, bok := r(rg)
		if !aok || !bok {
			return false, false
		}
		return cmpSatisfies(op, strings.Compare(a, b)), true
	}
}

// compileVal compiles any expression to a boxed evaluator (used for nested
// output, record construction, and generic fallbacks).
func (c *Compiler) compileVal(e expr.Expr) (evalVal, error) {
	t, err := c.typeOf(e)
	if err != nil {
		return nil, err
	}
	switch t.Kind() {
	case types.KindInt:
		iv, err := c.compileInt(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (types.Value, bool) {
			v, ok := iv(r)
			if !ok {
				return types.NullValue(), false
			}
			return types.IntValue(v), true
		}, nil
	case types.KindFloat:
		fv, err := c.compileFloat(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (types.Value, bool) {
			v, ok := fv(r)
			if !ok {
				return types.NullValue(), false
			}
			return types.FloatValue(v), true
		}, nil
	case types.KindBool:
		bv, err := c.compileBool(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (types.Value, bool) {
			v, ok := bv(r)
			if !ok {
				return types.NullValue(), false
			}
			return types.BoolValue(v), true
		}, nil
	case types.KindString:
		sv, err := c.compileStr(e)
		if err != nil {
			return nil, err
		}
		return func(r *vbuf.Regs) (types.Value, bool) {
			v, ok := sv(r)
			if !ok {
				return types.NullValue(), false
			}
			return types.StringValue(v), true
		}, nil
	}
	// Nested types: records and collections.
	switch x := e.(type) {
	case *expr.Const:
		v := x.V
		return func(*vbuf.Regs) (types.Value, bool) { return v, !v.IsNull() }, nil
	case *expr.Ref, *expr.FieldAcc:
		return c.resolveBoxed(e)
	case *expr.RecordCtor:
		subs := make([]evalVal, len(x.Exprs))
		for i, sub := range x.Exprs {
			ev, err := c.compileVal(sub)
			if err != nil {
				return nil, err
			}
			subs[i] = ev
		}
		names := x.Names
		// RecordValue retains the slice, so rows are carved from a chunked
		// arena instead of allocated one by one — the dominant allocation on
		// the batch→tuple boundary of join-heavy SELECT lists.
		arena := &tupleArena{width: len(subs)}
		return func(r *vbuf.Regs) (types.Value, bool) {
			vals := arena.next()
			for i, ev := range subs {
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				vals[i] = v
			}
			return types.RecordValue(names, vals), true
		}, nil
	}
	return nil, fmt.Errorf("exec: cannot compile %T to a boxed value", e)
}
