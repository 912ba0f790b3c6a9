// Rebinding: the engine shares one compiled program among the query texts
// of one shape, binding each text's comparison literals — and the index
// bitmaps, zone tests and dictionary codes derived from them — per run. The
// rebind config re-runs every generated query with its literals redrawn,
// kinds kept, on the same engine, so each redrawn text binds into the
// program compiled for the original one, and then alternates the two texts
// so each run re-installs the other's binding. Every run is checked against
// the oracle.
package qcheck

import (
	"fmt"
	"hash/fnv"
	"math/rand"

	"proteus/internal/engine"
	"proteus/internal/expr"
	"proteus/internal/types"
)

// rebound returns a copy of q whose column-vs-constant comparison literals
// in top-level WHERE conjuncts — the ones the engine binds per run — are
// redrawn, each keeping its kind. The draw is seeded by q's text, so a
// shrunken case redraws deterministically too.
func (q *querySpec) rebound(u *universe) *querySpec {
	h := fnv.New64a()
	h.Write([]byte(q.render()))
	r := rand.New(rand.NewSource(int64(h.Sum64())))
	c := q.clone()
	for i, w := range c.where {
		c.where[i] = q.redraw(r, u, w)
	}
	return c
}

// redraw replaces the literals of e's AND-connected comparisons.
func (q *querySpec) redraw(r *rand.Rand, u *universe, e expr.Expr) expr.Expr {
	x, ok := e.(*expr.BinOp)
	if !ok {
		return e
	}
	if x.Op == expr.OpAnd {
		return &expr.BinOp{Op: x.Op, L: q.redraw(r, u, x.L), R: q.redraw(r, u, x.R)}
	}
	if !x.Op.IsComparison() {
		return e
	}
	if k, ok := x.R.(*expr.Const); ok {
		if v, ok := q.drawLike(r, u, k.V, x.L); ok {
			return &expr.BinOp{Op: x.Op, L: x.L, R: &expr.Const{V: v}}
		}
	}
	if k, ok := x.L.(*expr.Const); ok {
		if v, ok := q.drawLike(r, u, k.V, x.R); ok {
			return &expr.BinOp{Op: x.Op, L: &expr.Const{V: v}, R: x.R}
		}
	}
	return e
}

// drawLike draws a literal of old's kind to compare with col: half the time
// one of the column's own values (so equalities and range bounds land on
// index keys), else a value beside one or an arbitrary one. ok is false
// when col is not a column or old's kind is not bound per run.
func (q *querySpec) drawLike(r *rand.Rand, u *universe, old types.Value, col expr.Expr) (types.Value, bool) {
	fa, ok := col.(*expr.FieldAcc)
	if !ok {
		return types.Value{}, false
	}
	var vals []types.Value
	if ref, ok := fa.Base.(*expr.Ref); ok {
		for i, alias := range q.aliases {
			if t := u.table(q.tables[i]); alias == ref.Name && t != nil {
				for _, row := range t.Rows {
					if v, ok := row.Field(fa.Name); ok && !v.IsNull() {
						vals = append(vals, v)
					}
				}
			}
		}
	}
	pick := func() (types.Value, bool) {
		if len(vals) == 0 || r.Intn(2) == 0 {
			return types.Value{}, false
		}
		return vals[r.Intn(len(vals))], true
	}
	switch old.Kind {
	case types.KindInt:
		if v, ok := pick(); ok && (v.Kind == types.KindInt || v.Kind == types.KindFloat) {
			return types.IntValue(v.AsInt() + int64(r.Intn(3)-1)), true
		}
		return types.IntValue(int64(r.Intn(17) - 8)), true
	case types.KindFloat:
		if v, ok := pick(); ok && (v.Kind == types.KindInt || v.Kind == types.KindFloat) {
			return types.FloatValue(v.AsFloat()), true
		}
		return types.FloatValue(genFloat(r)), true
	case types.KindString:
		// Key strings only (rendered literals never contain a quote), plus
		// one that no column holds, which misses every dictionary.
		if r.Intn(4) == 0 {
			return types.StringValue("maple"), true
		}
		return types.StringValue(keyStrings[r.Intn(len(keyStrings))]), true
	}
	return types.Value{}, false
}

// rebindDiverges runs the rebound text, then the original and the rebound
// one again, on e — which has already run the original — and checks each
// against the oracle. It returns "" when every run agrees.
func rebindDiverges(e *engine.Engine, u *universe, spec *querySpec) string {
	texts := []*querySpec{spec.rebound(u), spec}
	texts = append(texts, texts[0])
	for i, s := range texts {
		text := s.render()
		oracle, c, oerr := runOracle(u, s.lang, text)
		res, err := runEngineQuery(e, s.lang, text)
		switch {
		case oerr != nil && err != nil:
			continue
		case oerr != nil:
			return fmt.Sprintf("rebind run %d %q: oracle rejects (%v) but the engine accepts", i, text, oerr)
		case err != nil:
			return fmt.Sprintf("rebind run %d %q: engine rejects (%v) but the oracle accepts", i, text, err)
		}
		if d := compareOracle(oracle, res, c.OrderBy, c.Limit); d != "" {
			return fmt.Sprintf("rebind run %d %q: %s", i, text, d)
		}
	}
	return ""
}
