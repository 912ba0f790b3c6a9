// Random query generation. A querySpec is the structured form of one
// generated query; it renders to SQL or comprehension text (render.go) and
// clones cheaply for shrinking and for metamorphic variants.
//
// Everything is valid by construction: arithmetic only over numerics,
// comparisons only within a type class, LIKE only over strings, Mod only
// over ints (the tuple compiler rejects float Mod while the interpreter
// accepts it), aggregates always aliased (default names like "count(*)"
// are not referenceable in ORDER BY), ORDER BY only over record-shaped
// results (single-item projections yield bare values where ORDER BY is a
// silent no-op), and LIMIT ≥ 1 (the parser reads LIMIT 0 as "no limit").
package qcheck

import (
	"fmt"
	"math/rand"

	"proteus/internal/expr"
	"proteus/internal/types"
)

type queryMode int

const (
	modeProject queryMode = iota // SELECT exprs / yield bag(...)
	modeAgg                      // scalar aggregates, no grouping
	modeGroup                    // GROUP BY (SQL only)
)

// colRef is a column visible inside a query scope.
type colRef struct {
	alias string
	name  string
	kind  types.Kind
	key   bool
	str   bool // string-class (vs numeric); bools are their own class
}

type item struct {
	e     expr.Expr
	alias string
}

type aggSpec struct {
	kind  expr.AggKind
	arg   expr.Expr // nil for COUNT(*)
	alias string
}

type orderKey struct {
	col  string
	desc bool
}

// querySpec is one generated query over a universe.
type querySpec struct {
	lang     string // "sql" or "comp"
	tables   []string
	aliases  []string
	joinPred expr.Expr // non-nil iff len(tables) == 2
	unnest   string    // comp only: nested column unnested as alias "u"
	where    []expr.Expr
	mode     queryMode
	items    []item // modeProject: select list; modeGroup: key items
	keys     []expr.Expr
	aggs     []aggSpec
	orderBy  []orderKey
	limit    int      // 0 = none
	scope    []colRef // columns visible in the query, for metamorphic variants
}

func (q *querySpec) clone() *querySpec {
	c := *q
	c.tables = append([]string(nil), q.tables...)
	c.aliases = append([]string(nil), q.aliases...)
	c.where = append([]expr.Expr(nil), q.where...)
	c.items = append([]item(nil), q.items...)
	c.keys = append([]expr.Expr(nil), q.keys...)
	c.aggs = append([]aggSpec(nil), q.aggs...)
	c.orderBy = append([]orderKey(nil), q.orderBy...)
	return &c
}

func fa(alias, name string) expr.Expr {
	return &expr.FieldAcc{Base: &expr.Ref{Name: alias}, Name: name}
}

// genQuery draws one query over the universe from the case seed.
func genQuery(seed int64, u *universe) *querySpec {
	r := newRand(seed)
	q := &querySpec{}
	if r.Intn(4) == 0 {
		q.lang = "comp"
	} else {
		q.lang = "sql"
	}

	// Sources: one table, or an equi-join of two.
	t0 := u.Tables[r.Intn(len(u.Tables))]
	q.tables = append(q.tables, t0.Name)
	q.aliases = append(q.aliases, "a")
	scope := tableScope("a", t0)
	if len(u.Tables) > 1 && r.Intn(3) == 0 {
		var t1 *qTable
		for {
			t1 = u.Tables[r.Intn(len(u.Tables))]
			if t1 != t0 {
				break
			}
		}
		q.tables = append(q.tables, t1.Name)
		q.aliases = append(q.aliases, "b")
		bScope := tableScope("b", t1)
		q.joinPred = genJoinPred(r, scope, bScope)
		if q.joinPred == nil {
			// No compatible key pair; fall back to single-table.
			q.tables = q.tables[:1]
			q.aliases = q.aliases[:1]
		} else {
			scope = append(scope, bScope...)
		}
	}
	// Unnest (comprehensions only, single JSON table with a nested column).
	if q.lang == "comp" && len(q.tables) == 1 && t0.Nested != nil && r.Intn(2) == 0 {
		q.unnest = t0.Nested.Name
		scope = append(scope,
			colRef{alias: "u", name: "p", kind: types.KindInt, key: true},
			colRef{alias: "u", name: "q", kind: types.KindString, key: true, str: true},
		)
	}

	// WHERE: 0–3 conjuncts.
	for i, n := 0, r.Intn(4); i < n; i++ {
		q.where = append(q.where, genPred(r, scope, 2))
	}
	// Half the time add a predicate aimed exactly at a column's observed
	// min or max — the zone-map boundary, where an off-by-one in the skip
	// test silently loses the edge rows.
	if r.Intn(2) == 0 {
		if bp := genBoundaryPred(r, t0, "a"); bp != nil {
			q.where = append(q.where, bp)
		}
	}
	// Binary tables: a range over the ascending column, which zone maps
	// answer window by window, and a NaN-safe range over the NaN-zoned one.
	q.where = append(q.where, genZoneRanges(r, t0, "a")...)

	// Shape.
	switch {
	case q.lang == "comp":
		if r.Intn(3) == 0 {
			q.mode = modeAgg
			q.aggs = []aggSpec{genAgg(r, scope, 0)}
		} else {
			q.mode = modeProject
			q.items = genItems(r, scope)
		}
	default:
		switch r.Intn(5) {
		case 0:
			q.mode = modeAgg
			for i, n := 0, 1+r.Intn(3); i < n; i++ {
				q.aggs = append(q.aggs, genAgg(r, scope, i))
			}
		case 1, 2:
			q.mode = modeGroup
			genGroup(r, q, scope)
		default:
			q.mode = modeProject
			q.items = genItems(r, scope)
		}
	}

	// ORDER BY over output column names; only record-shaped results.
	if q.lang == "sql" && r.Intn(2) == 0 {
		if cols := q.orderableCols(); len(cols) > 0 {
			r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
			for i, n := 0, 1+r.Intn(2); i < n && i < len(cols); i++ {
				q.orderBy = append(q.orderBy, orderKey{col: cols[i], desc: r.Intn(2) == 0})
			}
		}
	}
	// LIMIT (SQL; projection or grouping).
	if q.lang == "sql" && q.mode != modeAgg && r.Intn(3) == 0 {
		q.limit = 1 + r.Intn(20)
	}
	q.scope = scope
	return q
}

// exactOrder reports whether the query's output order is deterministic
// across every execution mode, making byte-exact ordered comparison valid:
// single-source projections (scan order is preserved by every mode) and
// scalar aggregates (one row, exactly-summable arguments). Joins and
// GROUP BY emit in implementation-defined order — the adaptive optimizer
// may re-plan them between runs once statistics warm up — so those fall
// back to the oracle-tier rules.
func (q *querySpec) exactOrder() bool {
	switch q.mode {
	case modeAgg:
		return true
	case modeProject:
		return len(q.tables) == 1
	default:
		return false
	}
}

// orderableCols lists output column names usable in ORDER BY. Results must
// be records: multi-item projections, or any grouped query.
func (q *querySpec) orderableCols() []string {
	var cols []string
	switch q.mode {
	case modeProject:
		if len(q.items) < 2 {
			return nil
		}
		for _, it := range q.items {
			cols = append(cols, it.alias)
		}
	case modeGroup:
		for _, it := range q.items {
			cols = append(cols, it.alias)
		}
		for _, a := range q.aggs {
			cols = append(cols, a.alias)
		}
	}
	return cols
}

func tableScope(alias string, t *qTable) []colRef {
	var out []colRef
	for _, c := range t.Cols {
		if c.NaNZones {
			continue // reached only through genZoneRanges
		}
		out = append(out, colRef{
			alias: alias, name: c.Name, kind: c.Kind, key: c.Key,
			str: c.Kind == types.KindString,
		})
	}
	return out
}

func pick(r *rand.Rand, scope []colRef, ok func(colRef) bool) (colRef, bool) {
	var cands []colRef
	for _, c := range scope {
		if ok(c) {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 {
		return colRef{}, false
	}
	return cands[r.Intn(len(cands))], true
}

func genJoinPred(r *rand.Rand, left, right []colRef) expr.Expr {
	// String-key joins exercise the boxed-key join path (build, probe, and
	// their vectorized variants); int keys take the specialized int path.
	if r.Intn(3) == 0 {
		lk, lok := pick(r, left, func(c colRef) bool { return c.key && c.kind == types.KindString })
		rk, rok := pick(r, right, func(c colRef) bool { return c.key && c.kind == types.KindString })
		if lok && rok {
			return &expr.BinOp{Op: expr.OpEq, L: fa(lk.alias, lk.name), R: fa(rk.alias, rk.name)}
		}
	}
	lk, lok := pick(r, left, func(c colRef) bool { return c.key && c.kind == types.KindInt })
	rk, rok := pick(r, right, func(c colRef) bool { return c.key && c.kind == types.KindInt })
	if !lok || !rok {
		return nil
	}
	pred := &expr.BinOp{Op: expr.OpEq, L: fa(lk.alias, lk.name), R: fa(rk.alias, rk.name)}
	// Occasionally AND a string key pair on top: a multi-key equi-join with
	// mixed kinds forces the boxed multi-key table.
	if r.Intn(4) == 0 {
		ls, lsok := pick(r, left, func(c colRef) bool { return c.key && c.kind == types.KindString })
		rs, rsok := pick(r, right, func(c colRef) bool { return c.key && c.kind == types.KindString })
		if lsok && rsok {
			return &expr.BinOp{Op: expr.OpAnd, L: pred,
				R: &expr.BinOp{Op: expr.OpEq, L: fa(ls.alias, ls.name), R: fa(rs.alias, rs.name)}}
		}
	}
	return pred
}

// genNumExpr builds a numeric expression over the scope (or a constant if
// the scope has no numeric columns).
func genNumExpr(r *rand.Rand, scope []colRef, depth int) expr.Expr {
	c, ok := pick(r, scope, func(c colRef) bool {
		return c.kind == types.KindInt || c.kind == types.KindFloat
	})
	if !ok {
		return &expr.Const{V: types.IntValue(int64(r.Intn(9)))}
	}
	base := fa(c.alias, c.name)
	if depth == 0 || r.Intn(2) == 0 {
		return base
	}
	ops := []expr.BinKind{expr.OpAdd, expr.OpSub, expr.OpMul, expr.OpDiv}
	if c.kind == types.KindInt {
		ops = append(ops, expr.OpMod)
	}
	op := ops[r.Intn(len(ops))]
	var rhs expr.Expr
	if r.Intn(2) == 0 {
		if c2, ok := pick(r, scope, func(x colRef) bool { return x.kind == c.kind }); ok {
			rhs = fa(c2.alias, c2.name)
		}
	}
	if rhs == nil {
		if c.kind == types.KindFloat {
			rhs = &expr.Const{V: types.FloatValue(genFloat(r))}
		} else {
			rhs = &expr.Const{V: types.IntValue(int64(r.Intn(13) - 6))}
		}
	}
	if op == expr.OpMod {
		// Mod is int×int only: a float partner would compile-error.
		if c2, ok := rhs.(*expr.Const); ok && c2.V.Kind == types.KindFloat {
			rhs = &expr.Const{V: types.IntValue(1 + int64(r.Intn(7)))}
		}
	}
	if r.Intn(6) == 0 {
		rhs = &expr.Neg{E: rhs}
	}
	return &expr.BinOp{Op: op, L: base, R: rhs}
}

var cmpOps = []expr.BinKind{expr.OpEq, expr.OpNe, expr.OpLt, expr.OpLe, expr.OpGt, expr.OpGe}

// genBoundaryPred builds a comparison whose constant is exactly a numeric
// column's minimum or maximum over the table's truth rows. These predicates
// sit on the zone-map boundary: Eq/Le at the min (or Eq/Ge at the max) must
// keep the window, Lt at the min (Gt at the max) must be free to skip it —
// both with the edge rows intact.
func genBoundaryPred(r *rand.Rand, t *qTable, alias string) expr.Expr {
	var cands []qColumn
	for _, c := range t.Cols {
		if (c.Kind == types.KindInt || c.Kind == types.KindFloat) && !c.NaNZones {
			cands = append(cands, c)
		}
	}
	if len(cands) == 0 || len(t.Rows) == 0 {
		return nil
	}
	c := cands[r.Intn(len(cands))]
	var lo, hi types.Value
	found := false
	for _, row := range t.Rows {
		v, ok := row.Field(c.Name)
		if !ok || v.IsNull() {
			continue
		}
		if !found || v.AsFloat() < lo.AsFloat() {
			lo = v
		}
		if !found || v.AsFloat() > hi.AsFloat() {
			hi = v
		}
		found = true
	}
	if !found {
		return nil // all-NULL column: no boundary to aim at
	}
	bound := lo
	if r.Intn(2) == 0 {
		bound = hi
	}
	op := cmpOps[r.Intn(len(cmpOps))]
	return &expr.BinOp{Op: op, L: fa(alias, c.Name), R: &expr.Const{V: bound}}
}

// genZoneRanges draws, for a table with an ascending column, half the time
// a window lo <= ka < hi over (and past) its values, and a third of the time
// fz < c or fz > c over the NaN-zoned column — the only comparisons whose
// NaN semantics the oracle shares.
func genZoneRanges(r *rand.Rand, t *qTable, alias string) []expr.Expr {
	var out []expr.Expr
	for _, c := range t.Cols {
		switch {
		case c.Asc && r.Intn(2) == 0:
			var lo, hi int64
			if n := len(t.Rows); n > 0 {
				first, _ := t.Rows[0].Field(c.Name)
				last, _ := t.Rows[n-1].Field(c.Name)
				span := last.I - first.I + 1
				lo = first.I - 2 + r.Int63n(span+4)
				hi = lo + r.Int63n(span/2+2)
			}
			out = append(out,
				&expr.BinOp{Op: expr.OpGe, L: fa(alias, c.Name), R: &expr.Const{V: types.IntValue(lo)}},
				&expr.BinOp{Op: expr.OpLt, L: fa(alias, c.Name), R: &expr.Const{V: types.IntValue(hi)}})
		case c.NaNZones && r.Intn(3) == 0:
			op := []expr.BinKind{expr.OpLt, expr.OpGt}[r.Intn(2)]
			out = append(out, &expr.BinOp{Op: op, L: fa(alias, c.Name), R: &expr.Const{V: types.FloatValue(genFloat(r))}})
		}
	}
	return out
}

// genPred builds a boolean predicate over the scope.
func genPred(r *rand.Rand, scope []colRef, depth int) expr.Expr {
	if depth > 0 {
		switch r.Intn(5) {
		case 0:
			return &expr.BinOp{Op: expr.OpAnd,
				L: genPred(r, scope, depth-1), R: genPred(r, scope, depth-1)}
		case 1:
			return &expr.BinOp{Op: expr.OpOr,
				L: genPred(r, scope, depth-1), R: genPred(r, scope, depth-1)}
		case 2:
			return &expr.Not{E: genPred(r, scope, depth-1)}
		}
	}
	// Leaves.
	switch r.Intn(6) {
	case 0: // string comparison against a safe literal, or LIKE
		if c, ok := pick(r, scope, func(c colRef) bool { return c.str }); ok {
			switch r.Intn(3) {
			case 0:
				return &expr.Like{E: fa(c.alias, c.name), Needle: likeNeedles[r.Intn(len(likeNeedles))]}
			case 1:
				return &expr.Like{E: fa(c.alias, c.name),
					Needle: prefixNeedles[r.Intn(len(prefixNeedles))], Prefix: true}
			}
			lit := keyStrings[r.Intn(len(keyStrings))]
			op := cmpOps[r.Intn(len(cmpOps))]
			return &expr.BinOp{Op: op, L: fa(c.alias, c.name),
				R: &expr.Const{V: types.StringValue(lit)}}
		}
	case 1: // bool column as predicate
		if c, ok := pick(r, scope, func(c colRef) bool { return c.kind == types.KindBool }); ok {
			if r.Intn(2) == 0 {
				return &expr.Not{E: fa(c.alias, c.name)}
			}
			return fa(c.alias, c.name)
		}
	case 2: // IS [NOT] NULL
		if len(scope) > 0 {
			c := scope[r.Intn(len(scope))]
			var e expr.Expr = &expr.IsNull{E: fa(c.alias, c.name)}
			if r.Intn(2) == 0 {
				e = &expr.Not{E: e}
			}
			return e
		}
	}
	// Default: numeric comparison.
	l := genNumExpr(r, scope, 1)
	op := cmpOps[r.Intn(len(cmpOps))]
	var rhs expr.Expr
	switch r.Intn(3) {
	case 0:
		rhs = genNumExpr(r, scope, 0)
	case 1:
		rhs = &expr.Const{V: types.IntValue(int64(r.Intn(17) - 8))}
	default:
		rhs = &expr.Const{V: types.FloatValue(genFloat(r))}
	}
	return &expr.BinOp{Op: op, L: l, R: rhs}
}

// genItems builds 1–4 projection items.
func genItems(r *rand.Rand, scope []colRef) []item {
	n := 1 + r.Intn(4)
	items := make([]item, 0, n)
	for i := 0; i < n; i++ {
		var e expr.Expr
		if r.Intn(3) == 0 {
			e = genNumExpr(r, scope, 1)
		} else if len(scope) > 0 {
			c := scope[r.Intn(len(scope))]
			e = fa(c.alias, c.name)
		} else {
			e = &expr.Const{V: types.IntValue(int64(i))}
		}
		items = append(items, item{e: e, alias: fmt.Sprintf("p%d", i)})
	}
	return items
}

// genAggArg builds a sum-safe aggregate argument: every value it produces
// is exactly representable (dyadic floats of bounded magnitude, bounded
// ints), so partial-sum merge order across morsels cannot change SUM/AVG.
// Division, float Mod, and int products (which can exceed 2^53 and go
// inexact through AVG's float accumulator) are projection/predicate-only.
func genAggArg(r *rand.Rand, scope []colRef) expr.Expr {
	c, ok := pick(r, scope, func(c colRef) bool {
		return c.kind == types.KindInt || c.kind == types.KindFloat
	})
	if !ok {
		return &expr.Const{V: types.IntValue(int64(r.Intn(9)))}
	}
	base := fa(c.alias, c.name)
	switch r.Intn(4) {
	case 0:
		op := []expr.BinKind{expr.OpAdd, expr.OpSub}[r.Intn(2)]
		var rhs expr.Expr
		if c.kind == types.KindFloat {
			rhs = &expr.Const{V: types.FloatValue(genFloat(r))}
		} else {
			rhs = &expr.Const{V: types.IntValue(int64(r.Intn(13) - 6))}
		}
		return &expr.BinOp{Op: op, L: base, R: rhs}
	case 1:
		if c2, ok := pick(r, scope, func(x colRef) bool { return x.kind == c.kind }); ok {
			return &expr.BinOp{Op: expr.OpAdd, L: base, R: fa(c2.alias, c2.name)}
		}
		return base
	default:
		return base
	}
}

func genAgg(r *rand.Rand, scope []colRef, i int) aggSpec {
	alias := fmt.Sprintf("z%d", i)
	kinds := []expr.AggKind{expr.AggCount, expr.AggSum, expr.AggMin, expr.AggMax, expr.AggAvg}
	k := kinds[r.Intn(len(kinds))]
	if k == expr.AggCount {
		return aggSpec{kind: expr.AggCount, alias: alias}
	}
	if (k == expr.AggMin || k == expr.AggMax) && r.Intn(3) == 0 {
		if c, ok := pick(r, scope, func(c colRef) bool { return c.str }); ok {
			return aggSpec{kind: k, arg: fa(c.alias, c.name), alias: alias}
		}
	}
	return aggSpec{kind: k, arg: genAggArg(r, scope), alias: alias}
}

// genGroup fills key items and aggregates for a GROUP BY query.
func genGroup(r *rand.Rand, q *querySpec, scope []colRef) {
	var keys []colRef
	for _, c := range scope {
		if c.key {
			keys = append(keys, c)
		}
	}
	if len(keys) == 0 {
		// Degenerate scope: fall back to scalar aggregation.
		q.mode = modeAgg
		q.aggs = []aggSpec{genAgg(r, scope, 0)}
		return
	}
	r.Shuffle(len(keys), func(i, j int) { keys[i], keys[j] = keys[j], keys[i] })
	nk := 1
	if len(keys) > 1 && r.Intn(3) == 0 {
		nk = 2
	}
	for i := 0; i < nk; i++ {
		e := fa(keys[i].alias, keys[i].name)
		q.keys = append(q.keys, e)
		q.items = append(q.items, item{e: e, alias: fmt.Sprintf("g%d", i)})
	}
	for i, n := 0, 1+r.Intn(2); i < n; i++ {
		q.aggs = append(q.aggs, genAgg(r, scope, i))
	}
}
