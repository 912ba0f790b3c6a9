package main

import (
	"fmt"
	"math"
	"sort"
	"strconv"

	"proteus/internal/baseline/volcano"
	"proteus/internal/calculus"
	"proteus/internal/comp"
	"proteus/internal/optimizer"
	"proteus/internal/sql"
	"proteus/internal/types"

	"proteus"
)

// digest identifies a result set: row count plus a hash of the rows. For an
// ordered result the hash chains rows in sequence; otherwise per-row hashes
// are summed, so any row order gives the same digest. The generated floats
// are binary fractions whose sums are exact in any order (see rng.frac), so
// engines that associate a SUM differently still produce the same bits;
// hashing nine significant digits only absorbs a last-ULP difference in a
// derived value such as AVG.
type digest struct {
	Rows int
	Hash uint64
}

func (d digest) String() string { return fmt.Sprintf("%d rows #%016x", d.Rows, d.Hash) }

// hasher hashes boxed values without allocating per row.
type hasher struct{ buf []byte }

func (h *hasher) value(v types.Value) {
	switch v.Kind {
	case types.KindNull:
		h.buf = append(h.buf, 'n')
	case types.KindBool:
		h.buf = append(h.buf, 'b', byte(v.I))
	case types.KindInt:
		h.buf = strconv.AppendInt(append(h.buf, 'i'), v.I, 10)
	case types.KindFloat:
		// An integral float hashes like the int it equals, so COUNT-like
		// columns compare equal whichever numeric kind an engine picked.
		if v.F == math.Trunc(v.F) && math.Abs(v.F) < 1e15 {
			h.buf = strconv.AppendInt(append(h.buf, 'i'), int64(v.F), 10)
		} else {
			h.buf = strconv.AppendFloat(append(h.buf, 'f'), v.F, 'e', 8, 64)
		}
	case types.KindString:
		h.buf = append(append(h.buf, 's'), v.S...)
	case types.KindRecord:
		// Field names are not hashed: engines label unnamed expressions
		// differently, and positions already identify the columns.
		h.buf = append(h.buf, '(')
		if v.Rec != nil {
			for _, f := range v.Rec.Values {
				h.value(f)
				h.buf = append(h.buf, ',')
			}
		}
		h.buf = append(h.buf, ')')
	default:
		h.buf = append(h.buf, '[')
		for _, e := range v.Elems {
			h.value(e)
			h.buf = append(h.buf, ',')
		}
		h.buf = append(h.buf, ']')
	}
}

// row is the FNV-1a hash of a row's canonical text.
func (h *hasher) row(v types.Value) uint64 {
	h.buf = h.buf[:0]
	h.value(v)
	sum := uint64(14695981039346656037)
	for _, b := range h.buf {
		sum = (sum ^ uint64(b)) * 1099511628211
	}
	return sum
}

// digestRows digests a result. A one-column record row hashes like the bare
// scalar, because the engine and the reference box single aggregates
// differently.
func digestRows(rows []types.Value, ordered bool) digest {
	var h hasher
	d := digest{Rows: len(rows)}
	for _, row := range rows {
		if row.Kind == types.KindRecord && row.Rec != nil && len(row.Rec.Values) == 1 {
			row = row.Rec.Values[0]
		}
		rh := h.row(row)
		if ordered {
			d.Hash = d.Hash*1099511628211 + rh
		} else {
			d.Hash += rh
		}
	}
	return d
}

// reference answers queries with the Volcano baseline — an independent
// tree-walking interpreter that shares the parser, the calculus translation
// and the optimizer's logical rewrites with the engine, and nothing of its
// plug-ins, compiler, executor or caches — over boxed copies of the
// generated rows.
type reference struct {
	vol  *volcano.Engine
	cat  calculus.MapCatalog
	memo map[string]digest
}

func newReference(tables ...*table) *reference {
	ref := &reference{vol: volcano.New(), cat: calculus.MapCatalog{}, memo: map[string]digest{}}
	for _, t := range tables {
		ref.vol.Load(t.Name+"_bin", t.boxed())
		ref.cat[t.Name+"_bin"] = t.refSchema()
	}
	return ref
}

// parserOf names the front-end layer a query text's syntax selects, and
// returns its parser.
func parserOf(text string) (layer string, parse func(string) (*calculus.Comprehension, error)) {
	if proteus.IsComprehension(text) {
		return "comp", comp.Parse
	}
	return "sql", sql.Parse
}

// answer digests the reference result of one logical query.
func (ref *reference) answer(text string, ordered bool) (digest, error) {
	if d, ok := ref.memo[text]; ok {
		return d, nil
	}
	_, parse := parserOf(text)
	c, err := parse(text)
	if err != nil {
		return digest{}, err
	}
	if err := calculus.ResolveColumns(c, ref.cat); err != nil {
		return digest{}, err
	}
	plan, err := calculus.Translate(calculus.Normalize(c), ref.cat)
	if err != nil {
		return digest{}, err
	}
	// Logical rewrites only (no statistics, no costs): they turn the
	// translated cross product + filter into the equi-join the interpreter
	// can hash, without which a join reference would be quadratic.
	res, err := ref.vol.RunPlan(optimizer.Optimize(plan, nil))
	if err != nil {
		return digest{}, err
	}
	rows := res.Rows
	if len(c.OrderBy) > 0 {
		sort.SliceStable(rows, func(i, j int) bool {
			for k, col := range c.OrderBy {
				a, _ := rows[i].Field(col)
				b, _ := rows[j].Field(col)
				if cmp := types.Compare(a, b); cmp != 0 {
					return (cmp < 0) != c.OrderDesc[k]
				}
			}
			return false
		})
	}
	if c.Limit > 0 && len(rows) > c.Limit {
		rows = rows[:c.Limit]
	}
	d := digestRows(rows, ordered)
	ref.memo[text] = d
	return d, nil
}

// fill computes the reference digest of every operation.
func (ref *reference) fill(ops []op) error {
	for i := range ops {
		d, err := ref.answer(ops[i].logical(), ops[i].Ordered)
		if err != nil {
			return fmt.Errorf("reference for %s %q: %w", ops[i].Label, ops[i].Text, err)
		}
		ops[i].ref = d
	}
	return nil
}
