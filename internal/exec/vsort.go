// Vectorized collection and ORDER BY. A bag/list yield over a vectorizable
// chain accumulates typed columns straight from batches instead of boxing a
// record per row; when the engine pushes its ORDER BY / LIMIT spec into the
// compilation (Env.Sort), the sort runs as an index sort over the
// accumulated columns and only the emitted rows — at most LIMIT of them —
// are ever boxed. The tuple buffer the engine used to sort disappears on
// this path; Program.Sorted tells the engine not to sort again.
//
// OrderAndLimit at the bottom is the fallback for results that were still
// produced row-wise: column-wise key extraction (one Field lookup per row
// per key, not per comparison) followed by the same index sort.
package exec

import (
	"fmt"
	"sort"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// SortSpec is the engine's ORDER BY / LIMIT request, pushed into compilation
// so an eligible plan can sort columns before boxing rows. By names output
// columns; Desc aligns with By (short = ascending); Limit 0 means no limit.
type SortSpec struct {
	By    []string
	Desc  []bool
	Limit int
}

// Column is one typed output column of a columnar collect, accumulated
// across batches and handed to the result unboxed. Exactly one of the typed
// arrays is populated, per Kind; Nulls has one entry per row.
type Column struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	Nulls  []bool
}

func (c *Column) rows() int { return len(c.Nulls) }

func (c *Column) concat(o *Column) {
	c.Ints = append(c.Ints, o.Ints...)
	c.Floats = append(c.Floats, o.Floats...)
	c.Bools = append(c.Bools, o.Bools...)
	c.Strs = append(c.Strs, o.Strs...)
	c.Nulls = append(c.Nulls, o.Nulls...)
}

func (c *Column) clear() {
	c.Ints, c.Floats, c.Bools, c.Strs, c.Nulls = nil, nil, nil, nil, nil
}

// compare orders two rows of the column exactly like types.Compare orders
// their boxed values: null first, then the kind's natural order.
func (c *Column) compare(a, b int) int {
	an, bn := c.Nulls[a], c.Nulls[b]
	if an || bn {
		switch {
		case an == bn:
			return 0
		case an:
			return -1
		default:
			return 1
		}
	}
	switch c.Kind {
	case types.KindInt:
		x, y := c.Ints[a], c.Ints[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case types.KindFloat:
		x, y := c.Floats[a], c.Floats[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case types.KindString:
		x, y := c.Strs[a], c.Strs[b]
		switch {
		case x < y:
			return -1
		case x > y:
			return 1
		}
	case types.KindBool:
		x, y := c.Bools[a], c.Bools[b]
		switch {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

// box materializes one row of the column.
func (c *Column) box(i int) types.Value {
	if c.Nulls[i] {
		return types.NullValue()
	}
	switch c.Kind {
	case types.KindInt:
		return types.IntValue(c.Ints[i])
	case types.KindFloat:
		return types.FloatValue(c.Floats[i])
	case types.KindString:
		return types.StringValue(c.Strs[i])
	default:
		return types.BoolValue(c.Bools[i])
	}
}

// vecColAppender evaluates one output field's kernel once per batch and
// appends the selected lanes onto the partial's column.
type vecColAppender func(b *vbuf.Batch, col *Column)

func (c *Compiler) compileVecColAppender(e expr.Expr, kind types.Kind) (vecColAppender, error) {
	switch kind {
	case types.KindInt:
		ev, err := c.compileVecInt(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch, col *Column) {
			v, nn := ev(b)
			for _, j := range b.Sel {
				col.Ints = append(col.Ints, v[j])
				col.Nulls = append(col.Nulls, nn != nil && nn[j])
			}
		}, nil
	case types.KindFloat:
		ev, err := c.compileVecFloat(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch, col *Column) {
			v, nn := ev(b)
			for _, j := range b.Sel {
				col.Floats = append(col.Floats, v[j])
				col.Nulls = append(col.Nulls, nn != nil && nn[j])
			}
		}, nil
	case types.KindString:
		ev, err := c.compileVecStr(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch, col *Column) {
			v, nn := ev(b)
			for _, j := range b.Sel {
				col.Strs = append(col.Strs, v[j])
				col.Nulls = append(col.Nulls, nn != nil && nn[j])
			}
		}, nil
	case types.KindBool:
		ev, err := c.compileVecBool(e)
		if err != nil {
			return nil, err
		}
		return func(b *vbuf.Batch, col *Column) {
			v, nn := ev(b)
			for _, j := range b.Sel {
				col.Bools = append(col.Bools, v[j])
				col.Nulls = append(col.Nulls, nn != nil && nn[j])
			}
		}, nil
	}
	return nil, fmt.Errorf("exec: output kind %v is not batch-capable", kind)
}

// vecCollectPartial is the mergeable state of a columnar bag/list yield:
// one typed column per output field, sorted at result time and boxed only
// if a caller asks for boxed rows (Result.Box).
type vecCollectPartial struct {
	resName  string // the Reduce's synthetic result column name
	names    []string
	cols     []*Column
	keyIdx   []int // column indices of the sort keys; nil = no in-program sort
	desc     []bool
	limit    int
	rowsCell *int64
	gauge    *memGauge
}

func (p *vecCollectPartial) reset() {
	for _, c := range p.cols {
		c.clear()
	}
}

func (p *vecCollectPartial) merge(o partialState) error {
	other, ok := o.(*vecCollectPartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into vectorized collect state", o)
	}
	for i, c := range p.cols {
		c.concat(other.cols[i])
	}
	return nil
}

func (p *vecCollectPartial) result() (*Result, error) {
	n := 0
	if len(p.cols) > 0 {
		n = p.cols[0].rows()
	}
	if p.rowsCell != nil {
		*p.rowsCell = int64(n)
	}
	emit := n
	var perm []int32
	if len(p.keyIdx) > 0 {
		// The permutation stands in for the engine's sort buffer; charge it
		// like the row-wise path would.
		if p.gauge != nil {
			if err := p.gauge.charge(64 * int64(n)); err != nil {
				return nil, err
			}
		}
		perm = make([]int32, n)
		for i := range perm {
			perm[i] = int32(i)
		}
		keys := make([]*Column, len(p.keyIdx))
		for i, ci := range p.keyIdx {
			keys[i] = p.cols[ci]
		}
		desc := p.desc
		sort.Slice(perm, func(a, b int) bool {
			ra, rb := int(perm[a]), int(perm[b])
			for k, col := range keys {
				c := col.compare(ra, rb)
				if c == 0 {
					continue
				}
				if k < len(desc) && desc[k] {
					return c > 0
				}
				return c < 0
			}
			return ra < rb // index tiebreak reproduces the stable sort
		})
		if p.limit > 0 && emit > p.limit {
			emit = p.limit
		}
	}
	// The result takes the columns' current slices; reset gives the state
	// fresh ones, so a later run of the program never writes under a result
	// that is still being streamed.
	cols := make([]Column, len(p.cols))
	for i, c := range p.cols {
		cols[i] = *c
	}
	return &Result{Cols: []string{p.resName}, out: &collectRows{fields: p.names, cols: cols, perm: perm, n: emit}}, nil
}

// tryVecCollect compiles a bag/list Reduce over a vectorizable chain whose
// yield is a record of batch-capable scalar expressions into the columnar
// collect. ok=false leaves no side effects; the tuple path proceeds. When
// Env.Sort covers only columns this yield produces, the sort and limit run
// in-program (Compiler.sorted → Program.Sorted) and the engine skips its
// row-wise ORDER BY entirely.
func (c *Compiler) tryVecCollect(red *algebra.Reduce) (func(r *vbuf.Regs) error, *vecCollectPartial, bool, error) {
	if len(red.Aggs) != 1 || (red.Aggs[0].Kind != expr.AggBag && red.Aggs[0].Kind != expr.AggList) {
		return nil, nil, false, nil
	}
	rec, ok := red.Aggs[0].Arg.(*expr.RecordCtor)
	if !ok {
		return nil, nil, false, nil
	}
	ch := vecChainOf(red.Child)
	if ch == nil {
		return nil, nil, false, nil
	}
	schema, ok := c.vecEligible(ch)
	if !ok {
		return nil, nil, false, nil
	}
	kinds := make([]types.Kind, len(rec.Exprs))
	for i, e := range rec.Exprs {
		k, ok := c.canVecExpr(e, schema, ch.scan.Binding)
		if !ok || !k.IsScalar() {
			return nil, nil, false, nil
		}
		kinds[i] = k
	}
	if red.Pred != nil {
		if k, ok := c.canVecExpr(red.Pred, schema, ch.scan.Binding); !ok || k != types.KindBool {
			return nil, nil, false, nil
		}
	}

	seg, err := c.compileVecSeg(ch)
	if err != nil {
		return nil, nil, true, err
	}
	var predFilter vecFilter
	if red.Pred != nil {
		predFilter, err = c.compileVecFilter(red.Pred)
		if err != nil {
			return nil, nil, true, err
		}
	}
	st := &vecCollectPartial{
		resName:  red.Names[0],
		names:    rec.Names,
		rowsCell: c.rootRowsCell(red),
		gauge:    c.mem,
	}
	appenders := make([]vecColAppender, len(rec.Exprs))
	for i, e := range rec.Exprs {
		app, err := c.compileVecColAppender(e, kinds[i])
		if err != nil {
			return nil, nil, true, err
		}
		appenders[i] = app
		st.cols = append(st.cols, &Column{Kind: kinds[i]})
	}

	// Adopt the engine's ORDER BY / LIMIT when every key is one of this
	// yield's columns; otherwise the engine sorts the boxed result itself.
	if s := c.env.Sort; s != nil && len(s.By) > 0 {
		idx := make([]int, 0, len(s.By))
		for _, by := range s.By {
			found := -1
			for i, name := range rec.Names {
				if name == by {
					found = i
					break
				}
			}
			if found < 0 {
				idx = nil
				break
			}
			idx = append(idx, found)
		}
		if idx != nil {
			st.keyIdx = idx
			st.desc = append([]bool(nil), s.Desc...)
			st.limit = s.Limit
			c.sorted = true
			c.note("order by: columnar index sort over %d collected columns (limit %d)", len(idx), s.Limit)
		}
	}

	gauge := c.mem
	cols := st.cols
	var pending int64
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		for i, app := range appenders {
			app(b, cols[i])
		}
		if gauge != nil {
			if pending += 64 * int64(len(b.Sel)); pending >= memQuantum {
				err := gauge.charge(pending)
				pending = 0
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	c.note("reduce over %s: vectorized collect (%d columns)", ch.scan.Dataset, len(cols))
	return c.compileVecDriver(seg, terminate), st, true, nil
}

// OrderAndLimit sorts materialized rows by the named output columns and
// truncates to the limit (0 = no limit). The sort keys are extracted
// column-wise first — one Field lookup per row per key — and an index sort
// with index tiebreak reproduces the stable row sort without moving boxed
// rows until the final permutation.
func OrderAndLimit(res *Result, orderBy []string, desc []bool, limit int) (*Result, error) {
	if len(orderBy) > 0 && len(res.Rows) > 1 {
		keys := make([][]types.Value, len(orderBy))
		for k, col := range orderBy {
			keyCol := make([]types.Value, len(res.Rows))
			for i, row := range res.Rows {
				keyCol[i], _ = row.Field(col)
			}
			keys[k] = keyCol
		}
		perm := make([]int32, len(res.Rows))
		for i := range perm {
			perm[i] = int32(i)
		}
		sort.Slice(perm, func(a, b int) bool {
			ra, rb := perm[a], perm[b]
			for k := range keys {
				c := types.Compare(keys[k][ra], keys[k][rb])
				if c == 0 {
					continue
				}
				if k < len(desc) && desc[k] {
					return c > 0
				}
				return c < 0
			}
			return ra < rb
		})
		rows := make([]types.Value, len(res.Rows))
		for i, p := range perm {
			rows[i] = res.Rows[p]
		}
		res.Rows = rows
	}
	if limit > 0 && len(res.Rows) > limit {
		res.Rows = res.Rows[:limit]
	}
	return res, nil
}
