// Vectorized collection and ORDER BY. A bag/list yield over a vectorizable
// chain accumulates typed columns straight from batches instead of boxing a
// record per row. When the engine pushes its ORDER BY / LIMIT spec into the
// compilation (Env.Sort), the collect keeps only what it emits: under a
// LIMIT k it holds at most k rows in a bounded heap (top-k), without one it
// index-sorts every collected row at result time. Either way only the
// emitted rows are ever boxed, and Program.Sorted tells the engine not to
// sort again.
//
// OrderAndLimit at the bottom is the fallback for results the pipeline did
// not order: the same total order (keys, then input position) over boxed
// rows or over a columnar result's positions, with the same bounded
// selection when a LIMIT cuts.
package exec

import (
	"cmp"
	"fmt"
	"slices"

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

// Column is one typed output column of a columnar collect or grouping,
// accumulated across batches and handed to the result unboxed. Exactly one
// of the typed arrays is populated, per Kind; Nulls has one entry per row.
// A batch view — a kernel's output for one batch — is a Column too, whose
// Nulls may be nil (every lane valid).
type Column struct {
	Kind   types.Kind
	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	Nulls  []bool
}

func (c *Column) rows() int { return len(c.Nulls) }

func (c *Column) null(i int) bool { return c.Nulls != nil && c.Nulls[i] }

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

func appendLanes[T any](dst, src []T, sel []int32) []T {
	for _, j := range sel {
		dst = append(dst, src[j])
	}
	return dst
}

// appendSel appends the lanes sel of the view v.
func (c *Column) appendSel(v *Column, sel []int32) {
	switch c.Kind {
	case types.KindInt:
		c.Ints = appendLanes(c.Ints, v.Ints, sel)
	case types.KindFloat:
		c.Floats = appendLanes(c.Floats, v.Floats, sel)
	case types.KindString:
		c.Strs = appendLanes(c.Strs, v.Strs, sel)
	default:
		c.Bools = appendLanes(c.Bools, v.Bools, sel)
	}
	if v.Nulls == nil {
		c.Nulls = append(c.Nulls, make([]bool, len(sel))...)
		return
	}
	c.Nulls = appendLanes(c.Nulls, v.Nulls, sel)
}

// setRow overwrites row i with row j of v.
func (c *Column) setRow(i int, v *Column, j int) {
	switch c.Kind {
	case types.KindInt:
		c.Ints[i] = v.Ints[j]
	case types.KindFloat:
		c.Floats[i] = v.Floats[j]
	case types.KindString:
		c.Strs[i] = v.Strs[j]
	default:
		c.Bools[i] = v.Bools[j]
	}
	c.Nulls[i] = v.null(j)
}

func order[T int64 | float64 | string](x, y T) int {
	switch {
	case x < y:
		return -1
	case x > y:
		return 1
	}
	return 0
}

// compareAt orders row a of x against row b of y (same Kind) exactly like
// types.Compare orders their boxed values: null first, then the kind's
// natural order.
func compareAt(x *Column, a int, y *Column, b int) int {
	an, bn := x.null(a), y.null(b)
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
	switch x.Kind {
	case types.KindInt:
		return order(x.Ints[a], y.Ints[b])
	case types.KindFloat:
		return order(x.Floats[a], y.Floats[b])
	case types.KindString:
		return order(x.Strs[a], y.Strs[b])
	case types.KindBool:
		switch x, y := x.Bools[a], y.Bools[b]; {
		case !x && y:
			return -1
		case x && !y:
			return 1
		}
	}
	return 0
}

// directed applies sort key k's direction to the comparison c.
func directed(c, k int, desc []bool) int {
	if k < len(desc) && desc[k] {
		return -c
	}
	return c
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

// boundedHeap is a max-heap of row ids under a total order cmp (negative:
// a sorts first): ids[0] is the worst row kept. Holding at most k ids, it
// selects the first k rows of a stream in one pass.
type boundedHeap struct {
	ids []int32
	cmp func(a, b int32) int
}

func (h *boundedHeap) push(id int32) {
	h.ids = append(h.ids, id)
	for i := len(h.ids) - 1; i > 0; {
		parent := (i - 1) / 2
		if h.cmp(h.ids[parent], h.ids[i]) >= 0 {
			break
		}
		h.ids[parent], h.ids[i] = h.ids[i], h.ids[parent]
		i = parent
	}
}

// fixRoot restores the heap after the root's row got better.
func (h *boundedHeap) fixRoot() {
	n := len(h.ids)
	for i := 0; ; {
		worst, l := i, 2*i+1
		if l < n && h.cmp(h.ids[l], h.ids[worst]) > 0 {
			worst = l
		}
		if r := l + 1; r < n && h.cmp(h.ids[r], h.ids[worst]) > 0 {
			worst = r
		}
		if worst == i {
			return
		}
		h.ids[i], h.ids[worst] = h.ids[worst], h.ids[i]
		i = worst
	}
}

// orderedIDs returns 0..n-1 ordered by cmp, a total order, cut to the first
// limit (0 = all). When the limit cuts, a bounded heap selects the first
// limit ids in one pass and only those are sorted.
func orderedIDs(n, limit int, cmp func(a, b int32) int) []int32 {
	if limit <= 0 || limit >= n {
		ids := make([]int32, n)
		for i := range ids {
			ids[i] = int32(i)
		}
		slices.SortFunc(ids, cmp)
		return ids
	}
	h := boundedHeap{ids: make([]int32, 0, limit), cmp: cmp}
	for i := range int32(n) {
		if len(h.ids) < limit {
			h.push(i)
		} else if cmp(i, h.ids[0]) < 0 {
			h.ids[0] = i
			h.fixRoot()
		}
	}
	slices.SortFunc(h.ids, cmp)
	return h.ids
}

// orderByKey sorts ids stably by ascending keys[id]: a least-significant-
// digit radix sort over the bytes in which the keys differ, so grouping
// results of any size sort in a few linear passes.
func orderByKey(keys []int64, ids []int32) {
	if len(ids) < 256 {
		slices.SortStableFunc(ids, func(a, b int32) int { return cmp.Compare(keys[a], keys[b]) })
		return
	}
	n := len(ids)
	digits, spare := make([]uint64, n), make([]uint64, n)
	spareIDs := make([]int32, n)
	var differ uint64
	for i, id := range ids {
		digits[i] = uint64(keys[id]) ^ 1<<63 // signed order as unsigned
		differ |= digits[i] ^ digits[0]
	}
	for shift := 0; shift < 64; shift += 8 {
		if byte(differ>>shift) == 0 {
			continue
		}
		var start [256]int
		for _, d := range digits {
			start[byte(d>>shift)]++
		}
		for b, sum := 0, 0; b < 256; b++ {
			start[b], sum = sum, sum+start[b]
		}
		for i, d := range digits {
			pos := &start[byte(d>>shift)]
			spare[*pos], spareIDs[*pos] = d, ids[i]
			*pos++
		}
		digits, spare = spare, digits
		copy(ids, spareIDs)
	}
}

// vecColEval evaluates one output field's kernel once per batch into a
// view the collect copies its selected lanes from.
type vecColEval func(b *vbuf.Batch, view *Column)

func (c *Compiler) compileVecColEval(e expr.Expr, kind types.Kind) (vecColEval, error) {
	switch kind {
	case types.KindInt:
		ev, err := c.compileVecInt(e)
		return func(b *vbuf.Batch, v *Column) { v.Ints, v.Nulls = ev(b) }, err
	case types.KindFloat:
		ev, err := c.compileVecFloat(e)
		return func(b *vbuf.Batch, v *Column) { v.Floats, v.Nulls = ev(b) }, err
	case types.KindString:
		ev, err := c.compileVecStr(e)
		return func(b *vbuf.Batch, v *Column) { v.Strs, v.Nulls = ev(b) }, err
	case types.KindBool:
		ev, err := c.compileVecBool(e)
		return func(b *vbuf.Batch, v *Column) { v.Bools, v.Nulls = ev(b) }, err
	}
	return nil, fmt.Errorf("exec: output kind %v is not batch-capable", kind)
}

// vecCollectPartial is the mergeable state of a columnar bag/list yield:
// one typed column per output field, ordered at result time and boxed only
// if a caller asks for boxed rows (Result.Box).
//
// Under an adopted ORDER BY … LIMIT k (keyIdx set, limit > 0) it is a top-k:
// the columns hold at most k rows, seq numbers each kept row by its arrival
// among the rows seen, and top is the max-heap of kept rows under (keys,
// seq), so its root is the row the next better one replaces. A row equal to
// the root on every key arrived later and sorts after it, so it is rejected
// too; the kept rows are therefore exactly the first k of a stable sort of
// everything seen.
type vecCollectPartial struct {
	resName  string // the Reduce's synthetic result column name
	names    []string
	cols     []*Column
	keyIdx   []int // column indices of the sort keys; nil = no in-program sort
	desc     []bool
	limit    int
	rowsCell *int64
	gauge    *memGauge

	seen int64 // rows that reached the collect
	seq  []int64
	top  boundedHeap
}

func (p *vecCollectPartial) topK() bool { return p.keyIdx != nil && p.limit > 0 }

func (p *vecCollectPartial) reset() {
	for _, c := range p.cols {
		c.clear()
	}
	p.seen, p.seq, p.top.ids = 0, p.seq[:0], p.top.ids[:0]
}

// compareKeys orders row a of the columns x against row b of y by the sort
// keys alone.
func (p *vecCollectPartial) compareKeys(x []*Column, a int, y []*Column, b int) int {
	for k, ci := range p.keyIdx {
		if c := compareAt(x[ci], a, y[ci], b); c != 0 {
			return directed(c, k, p.desc)
		}
	}
	return 0
}

// compareKept is the top-k heap's total order over kept rows.
func (p *vecCollectPartial) compareKept(a, b int32) int {
	if c := p.compareKeys(p.cols, int(a), p.cols, int(b)); c != 0 {
		return c
	}
	return cmp.Compare(p.seq[a], p.seq[b])
}

// offer considers row j of src, which arrived as number seq, for the top-k
// and reports whether it was kept in a new slot (rather than in place of
// the worst kept row, or not at all).
func (p *vecCollectPartial) offer(src []*Column, j int, seq int64) bool {
	if len(p.top.ids) < p.limit {
		for i, c := range p.cols {
			c.appendSel(src[i], []int32{int32(j)})
		}
		p.seq = append(p.seq, seq)
		p.top.push(int32(len(p.seq) - 1))
		return true
	}
	w := p.top.ids[0]
	if c := p.compareKeys(src, j, p.cols, int(w)); c > 0 || c == 0 && seq > p.seq[w] {
		return false
	}
	for i, c := range p.cols {
		c.setRow(int(w), src[i], j)
	}
	p.seq[w] = seq
	p.top.fixRoot()
	return false
}

// merge appends another partial's rows after this one's. A top-k offers
// the other's kept rows with their sequence numbers shifted past every row
// this partial has seen, so ties resolve in morsel order exactly as in the
// concatenation.
func (p *vecCollectPartial) merge(o partialState) error {
	other, ok := o.(*vecCollectPartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into vectorized collect state", o)
	}
	if p.topK() {
		for j, seq := range other.seq {
			p.offer(other.cols, j, p.seen+seq)
		}
	} else {
		for i, c := range p.cols {
			c.concat(other.cols[i])
		}
	}
	p.seen += other.seen
	return nil
}

func (p *vecCollectPartial) result() (*Result, error) {
	if p.rowsCell != nil {
		*p.rowsCell = p.seen
	}
	n := 0
	if len(p.cols) > 0 {
		n = p.cols[0].rows()
	}
	var perm []int32
	switch {
	case p.topK():
		perm = slices.Clone(p.top.ids)
		slices.SortFunc(perm, p.compareKept)
	case p.keyIdx != nil:
		// The permutation stands in for the engine's sort buffer; charge it
		// like the row-wise path would.
		if p.gauge != nil {
			if err := p.gauge.charge(64 * int64(n)); err != nil {
				return nil, err
			}
		}
		perm = orderedIDs(n, 0, func(a, b int32) int {
			if c := p.compareKeys(p.cols, int(a), p.cols, int(b)); c != 0 {
				return c
			}
			return cmp.Compare(a, b) // index tiebreak reproduces the stable sort
		})
	}
	// The result takes the columns' current slices; reset gives the state
	// fresh ones, so a later run of the program never writes under a result
	// that is still being streamed.
	cols := make([]Column, len(p.cols))
	for i, c := range p.cols {
		cols[i] = *c
	}
	return &Result{Cols: []string{p.resName}, out: &collectRows{fields: p.names, cols: cols, perm: perm, n: n}}, nil
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
	st.top.cmp = st.compareKept
	evals := make([]vecColEval, len(rec.Exprs))
	views := make([]*Column, len(rec.Exprs))
	for i, e := range rec.Exprs {
		if evals[i], err = c.compileVecColEval(e, kinds[i]); err != nil {
			return nil, nil, true, err
		}
		st.cols = append(st.cols, &Column{Kind: kinds[i]})
		views[i] = &Column{Kind: kinds[i]}
	}

	// Adopt the engine's ORDER BY / LIMIT when every key is one of this
	// yield's columns; otherwise the engine sorts the boxed result itself.
	if s := c.env.Sort; s != nil && len(s.By) > 0 {
		idx := make([]int, 0, len(s.By))
		for _, by := range s.By {
			found := slices.Index(rec.Names, by)
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
			if st.topK() {
				c.note("order by: top-k (limit %d) on %d keys, kept in %d collected columns", s.Limit, len(idx), len(st.cols))
			} else {
				c.note("order by: full sort on %d keys over %d collected columns", len(idx), len(st.cols))
			}
		}
	}

	gauge := c.mem
	cols := st.cols
	topK := st.topK()
	var pending int64
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		for i, ev := range evals {
			ev(b, views[i])
		}
		grown := len(b.Sel)
		if topK {
			// Memory is charged per kept row, not per row seen.
			grown = 0
			for _, j := range b.Sel {
				if st.offer(views, int(j), st.seen) {
					grown++
				}
				st.seen++
			}
		} else {
			for i, col := range cols {
				col.appendSel(views[i], b.Sel)
			}
			st.seen += int64(grown)
		}
		if gauge != nil {
			if pending += 64 * int64(grown); pending >= memQuantum {
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

// OrderAndLimit orders a result by the named output columns and cuts it to
// the limit (0 = no limit). The order is total: keys, then input position,
// which reproduces a stable sort. When the limit cuts, a bounded heap
// selects the emitted rows in one pass instead of sorting them all. A
// columnar result stays columnar — only its permutation changes, so only
// the emitted rows are ever boxed; boxed rows are ordered by keys extracted
// column-wise first, one Field lookup per row per key.
func OrderAndLimit(res *Result, orderBy []string, desc []bool, limit int) (*Result, error) {
	if s := res.out; s.unboxed() {
		if len(orderBy) == 0 {
			if limit > 0 && s.n > limit {
				res.out = &collectRows{fields: s.fields, cols: s.cols, perm: s.perm, n: limit}
			}
			return res, nil
		}
		keys := make([]*Column, len(orderBy))
		for k, name := range orderBy {
			i := slices.Index(s.fields, name)
			if i < 0 {
				return OrderAndLimit(res.Box(), orderBy, desc, limit)
			}
			keys[k] = &s.cols[i]
		}
		ids := orderedIDs(s.n, limit, func(a, b int32) int {
			ra, rb := s.row(int(a)), s.row(int(b))
			for k, col := range keys {
				if c := compareAt(col, ra, col, rb); c != 0 {
					return directed(c, k, desc)
				}
			}
			return cmp.Compare(a, b)
		})
		for i, id := range ids {
			ids[i] = int32(s.row(int(id)))
		}
		res.out = &collectRows{fields: s.fields, cols: s.cols, perm: ids, n: len(ids)}
		return res, nil
	}
	if len(orderBy) == 0 || len(res.Rows) <= 1 {
		if limit > 0 && len(res.Rows) > limit {
			res.Rows = res.Rows[:limit]
		}
		return res, nil
	}
	keys := make([][]types.Value, len(orderBy))
	for k, col := range orderBy {
		keyCol := make([]types.Value, len(res.Rows))
		for i, row := range res.Rows {
			keyCol[i], _ = row.Field(col)
		}
		keys[k] = keyCol
	}
	ids := orderedIDs(len(res.Rows), limit, func(a, b int32) int {
		for k := range keys {
			if c := types.Compare(keys[k][a], keys[k][b]); c != 0 {
				return directed(c, k, desc)
			}
		}
		return cmp.Compare(a, b)
	})
	rows := make([]types.Value, len(ids))
	for i, id := range ids {
		rows[i] = res.Rows[id]
	}
	res.Rows = rows
	return res, nil
}
