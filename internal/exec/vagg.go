// Vectorized aggregation: when the root Reduce/Nest sits directly on a
// vectorizable chain, the fold consumes whole batches — the segment never
// crosses the batch→tuple boundary at all. Each aggregate is one typed
// accumulator column indexed by group id: a Nest maps every lane's key to
// its group's dense id and each aggregate folds the batch in one loop over
// those ids; an ungrouped Reduce is the same with a single group. The
// accumulators mirror the tuple monoids exactly (same fold order, same
// identities and combine functions), so results are bit-identical, parallel
// merging is unchanged and fragments encode the same frames.
package exec

import (
	"fmt"
	"math"
	"math/bits"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// aggColumn is one aggregate's accumulators, one per group, indexed by
// dense group id. Its wire partials and the identities fresh groups start
// from are the tuple monoids', so both styles encode the same frames.
type aggColumn interface {
	grow()                            // appends a fresh accumulator for a new group
	fold(b *vbuf.Batch, gids []int32) // gids[i] is the group of lane b.Sel[i]
	absorb(o aggColumn, dst []int32)  // folds o's group g into group dst[g]
	part(g int32) any                 // the wire partial of group g
	column(order []int32) Column      // the result column, groups in order
	truncate()                        // drops every group
}

type countColumn struct{ n []int64 }

func (s *countColumn) grow()     { s.n = append(s.n, 0) }
func (s *countColumn) truncate() { s.n = s.n[:0] }

func (s *countColumn) fold(b *vbuf.Batch, gids []int32) {
	if len(s.n) == 1 { // one group: every lane is in it
		s.n[0] += int64(len(gids))
		return
	}
	for _, g := range gids {
		s.n[g]++
	}
}

func (s *countColumn) absorb(o aggColumn, dst []int32) {
	for g, d := range dst {
		s.n[d] += o.(*countColumn).n[g]
	}
}

func (s *countColumn) part(g int32) any { return s.n[g] }

func (s *countColumn) column(order []int32) Column {
	c := Column{Kind: types.KindInt, Ints: make([]int64, len(order)), Nulls: make([]bool, len(order))}
	for i, g := range order {
		c.Ints[i] = s.n[g]
	}
	return c
}

// scalarColumn is SUM, MIN or MAX over one scalar type, with the tuple
// accumulator's first-seen protocol and combine function (nil: SUM).
type scalarColumn[T int64 | float64 | string] struct {
	ev      func(b *vbuf.Batch) ([]T, []bool)
	combine func(a, v T) T
	zero    T // the tuple accumulator's initial value, which an unseen group carries
	kind    types.Kind
	v       []T
	seen    []bool
}

func (s *scalarColumn[T]) grow() {
	s.v = append(s.v, s.zero)
	s.seen = append(s.seen, false)
}

func (s *scalarColumn[T]) truncate() { s.v, s.seen = s.v[:0], s.seen[:0] }

func (s *scalarColumn[T]) add(g int32, x T) {
	switch {
	case !s.seen[g]:
		s.v[g], s.seen[g] = x, true
	case s.combine == nil:
		s.v[g] += x
	default:
		s.v[g] = s.combine(s.v[g], x)
	}
}

func (s *scalarColumn[T]) fold(b *vbuf.Batch, gids []int32) {
	v, nn := s.ev(b)
	acc, seen, combine := s.v, s.seen, s.combine
	if len(acc) == 1 { // one group: fold in a local, not through memory
		x, ok := acc[0], seen[0]
		for _, j := range b.Sel {
			switch {
			case nn != nil && nn[j]:
			case !ok:
				x, ok = v[j], true
			case combine == nil:
				x += v[j]
			default:
				x = combine(x, v[j])
			}
		}
		acc[0], seen[0] = x, ok
		return
	}
	for i, j := range b.Sel {
		switch g := gids[i]; {
		case nn != nil && nn[j]:
		case !seen[g]:
			acc[g], seen[g] = v[j], true
		case combine == nil:
			acc[g] += v[j]
		default:
			acc[g] = combine(acc[g], v[j])
		}
	}
}

func (s *scalarColumn[T]) absorb(o aggColumn, dst []int32) {
	other := o.(*scalarColumn[T])
	for g, d := range dst {
		if other.seen[g] {
			s.add(d, other.v[g])
		}
	}
}

func (s *scalarColumn[T]) part(g int32) any { return scalarPart[T]{v: s.v[g], seen: s.seen[g]} }

func (s *scalarColumn[T]) column(order []int32) Column {
	vals, nulls := make([]T, len(order)), make([]bool, len(order))
	for i, g := range order {
		vals[i], nulls[i] = s.v[g], !s.seen[g]
	}
	c := Column{Kind: s.kind, Nulls: nulls}
	switch vs := any(vals).(type) {
	case []int64:
		c.Ints = vs
	case []float64:
		c.Floats = vs
	case []string:
		c.Strs = vs
	}
	return c
}

// avgColumn folds AVG as (sum, count), merged before the quotient.
type avgColumn struct {
	ev  vecFloat
	sum []float64
	n   []int64
}

func (s *avgColumn) grow() {
	s.sum = append(s.sum, 0)
	s.n = append(s.n, 0)
}

func (s *avgColumn) truncate() { s.sum, s.n = s.sum[:0], s.n[:0] }

func (s *avgColumn) fold(b *vbuf.Batch, gids []int32) {
	v, nn := s.ev(b)
	for i, j := range b.Sel {
		if nn == nil || !nn[j] {
			g := gids[i]
			s.sum[g] += v[j]
			s.n[g]++
		}
	}
}

func (s *avgColumn) absorb(o aggColumn, dst []int32) {
	other := o.(*avgColumn)
	for g, d := range dst {
		s.sum[d] += other.sum[g]
		s.n[d] += other.n[g]
	}
}

func (s *avgColumn) part(g int32) any { return avgPart{sum: s.sum[g], n: s.n[g]} }

func (s *avgColumn) column(order []int32) Column {
	c := Column{Kind: types.KindFloat, Floats: make([]float64, len(order)), Nulls: make([]bool, len(order))}
	for i, g := range order {
		if s.n[g] == 0 {
			c.Nulls[i] = true
			continue
		}
		c.Floats[i] = s.sum[g] / float64(s.n[g])
	}
	return c
}

// compileAggColumn builds one aggregate's accumulator column with the tuple
// accumulators' identities and combine functions (intAccumulator,
// floatAccumulator, strAccumulator), so results and frames match theirs.
func (c *Compiler) compileAggColumn(a expr.Agg) (aggColumn, error) {
	if a.Kind == expr.AggCount {
		return &countColumn{}, nil
	}
	t, err := c.typeOf(a.Arg)
	if err != nil {
		return nil, err
	}
	if a.Kind == expr.AggAvg {
		ev, err := c.compileVecFloat(a.Arg)
		return &avgColumn{ev: ev}, err
	}
	mn, mx := a.Kind == expr.AggMin, a.Kind == expr.AggMax
	switch k := t.Kind(); {
	case k == types.KindInt:
		ev, err := c.compileVecInt(a.Arg)
		s := &scalarColumn[int64]{ev: ev, kind: types.KindInt}
		if mn {
			s.zero, s.combine = math.MaxInt64, func(a, v int64) int64 { return min(a, v) }
		} else if mx {
			s.zero, s.combine = math.MinInt64, func(a, v int64) int64 { return max(a, v) }
		}
		return s, err
	case k == types.KindFloat:
		ev, err := c.compileVecFloat(a.Arg)
		s := &scalarColumn[float64]{ev: ev, kind: types.KindFloat}
		if mn {
			s.zero, s.combine = math.Inf(1), math.Min
		} else if mx {
			s.zero, s.combine = math.Inf(-1), math.Max
		}
		return s, err
	case k == types.KindString && (mn || mx):
		ev, err := c.compileVecStr(a.Arg)
		s := &scalarColumn[string]{ev: ev, kind: types.KindString}
		s.combine = func(a, v string) string { return max(a, v) }
		if mn {
			s.combine = func(a, v string) string { return min(a, v) }
		}
		return s, err
	}
	return nil, fmt.Errorf("exec: aggregate %s is not vectorizable", a.Kind)
}

// canVecAgg statically mirrors compileAggColumn's coverage.
func (c *Compiler) canVecAgg(a expr.Agg, schema *types.RecordType, bind string) bool {
	switch a.Kind {
	case expr.AggCount:
		return true
	case expr.AggSum, expr.AggAvg:
		k, ok := c.canVecExpr(a.Arg, schema, bind)
		return ok && (k == types.KindInt || k == types.KindFloat)
	case expr.AggMin, expr.AggMax:
		k, ok := c.canVecExpr(a.Arg, schema, bind)
		return ok && (k == types.KindInt || k == types.KindFloat || k == types.KindString)
	}
	return false
}

// zeroGroups is the group-id vector of a one-group table: every lane is
// in group 0 (read-only, shared by every program).
var zeroGroups = make([]int32, vbuf.BatchSize)

// vecReducePartial is the mergeable state of a vectorized ungrouped Reduce:
// aggregate columns holding the one group.
type vecReducePartial struct {
	names    []string
	aggs     []aggColumn
	rowsCell *int64
}

func (p *vecReducePartial) reset() {
	for _, a := range p.aggs {
		a.truncate()
		a.grow()
	}
}

func (p *vecReducePartial) merge(o partialState) error {
	other, ok := o.(*vecReducePartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into vectorized reduce state", o)
	}
	for i, a := range p.aggs {
		a.absorb(other.aggs[i], zeroGroups[:1])
	}
	return nil
}

func (p *vecReducePartial) result() (*Result, error) {
	if p.rowsCell != nil {
		*p.rowsCell = 1
	}
	vals := make([]types.Value, len(p.aggs))
	for i, a := range p.aggs {
		col := a.column(zeroGroups[:1])
		vals[i] = col.box(0)
	}
	return &Result{Cols: p.names, Rows: []types.Value{types.RecordValue(p.names, vals)}}, nil
}

// vecAggChain is the static check and the compilation shared by the
// batch-folding roots: the child must be a vectorizable chain, and the
// aggregates, the predicate and the int group keys batch-capable. ok=false
// means nothing was committed and the tuple path proceeds normally; every
// check precedes slot allocation.
func (c *Compiler) vecAggChain(child algebra.Node, aggs []expr.Agg, pred expr.Expr, keys []expr.Expr) (seg *vecSeg, filter vecFilter, dataset string, ok bool, err error) {
	ch := vecChainOf(child)
	if ch == nil {
		return nil, nil, "", false, nil
	}
	schema, ok := c.vecEligible(ch)
	if !ok {
		return nil, nil, "", false, nil
	}
	for _, a := range aggs {
		if !c.canVecAgg(a, schema, ch.scan.Binding) {
			return nil, nil, "", false, nil
		}
	}
	if pred != nil {
		if k, ok := c.canVecExpr(pred, schema, ch.scan.Binding); !ok || k != types.KindBool {
			return nil, nil, "", false, nil
		}
	}
	for _, e := range keys {
		if k, ok := c.canVecExpr(e, schema, ch.scan.Binding); !ok || k != types.KindInt {
			return nil, nil, "", false, nil
		}
	}
	if seg, err = c.compileVecSeg(ch); err == nil && pred != nil {
		filter, err = c.compileVecFilter(pred)
	}
	return seg, filter, ch.scan.Dataset, true, err
}

// tryVecReduce compiles a Reduce whose child is a vectorizable chain into a
// batch-folding driver (ok=false: see vecAggChain).
func (c *Compiler) tryVecReduce(red *algebra.Reduce) (func(r *vbuf.Regs) error, *vecReducePartial, bool, error) {
	if len(red.Aggs) == 1 && (red.Aggs[0].Kind == expr.AggBag || red.Aggs[0].Kind == expr.AggList) {
		return nil, nil, false, nil // collection yield stays tuple-at-a-time
	}
	seg, predFilter, dataset, ok, err := c.vecAggChain(red.Child, red.Aggs, red.Pred, nil)
	if !ok || err != nil {
		return nil, nil, ok, err
	}
	st := &vecReducePartial{names: red.Names, rowsCell: c.rootRowsCell(red)}
	for _, a := range red.Aggs {
		agg, err := c.compileAggColumn(a)
		if err != nil {
			return nil, nil, true, err
		}
		st.aggs = append(st.aggs, agg)
	}
	st.reset()
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		for _, a := range st.aggs {
			a.fold(b, zeroGroups[:len(b.Sel)])
		}
		return nil
	}
	c.note("reduce over %s: vectorized fold (%d aggregates)", dataset, len(st.aggs))
	return c.compileVecDriver(seg, terminate), st, true, nil
}

// Grouped aggregation --------------------------------------------------------

// vecNestPartial is the mergeable state of a vectorized single-int-key Nest:
// a columnar group table. keys holds the keys by dense group id in
// first-encounter order (id nullGid, when set, is the NULL-key group,
// matching the tuple paths and the Volcano baseline), and each aggregate
// keeps one typed accumulator per id. The result is ascending by key with
// the NULL group first, like the tuple fast path.
type vecNestPartial struct {
	outNames []string
	aggs     []aggColumn
	keys     []int64
	nullGid  int32 // -1: no NULL key seen
	// index finds a key's id by open addressing with linear probing: a
	// power-of-two table of id+1 (0 = empty), kept at most half full.
	index    []int32
	gids     []int32
	rowsCell *int64
}

func (p *vecNestPartial) reset() {
	clear(p.index)
	p.keys, p.nullGid = p.keys[:0], -1
	for _, a := range p.aggs {
		a.truncate()
	}
}

// slot returns where k's id is, or belongs, in the index.
func (p *vecNestPartial) slot(k int64) int {
	mask := len(p.index) - 1 // Fibonacci hashing: the product's top bits
	for i := int(uint64(k) * 0x9E3779B97F4A7C15 >> bits.LeadingZeros64(uint64(mask))); ; i = (i + 1) & mask {
		if id := p.index[i]; id == 0 || p.keys[id-1] == k {
			return i
		}
	}
}

// group returns key k's group id, adding the group when k is new.
func (p *vecNestPartial) group(k int64, null bool) (g int32, added bool) {
	if null {
		if p.nullGid < 0 {
			p.nullGid, added = p.newGroup(0), true
		}
		return p.nullGid, added
	}
	if 2*len(p.keys) >= len(p.index) {
		p.index = make([]int32, max(1024, 2*len(p.index)))
		for g, k := range p.keys {
			if int32(g) != p.nullGid {
				p.index[p.slot(k)] = int32(g) + 1
			}
		}
	}
	i := p.slot(k)
	if p.index[i] != 0 {
		return p.index[i] - 1, false
	}
	g = p.newGroup(k)
	p.index[i] = g + 1
	return g, true
}

func (p *vecNestPartial) newGroup(k int64) int32 {
	p.keys = append(p.keys, k)
	for _, a := range p.aggs {
		a.grow()
	}
	return int32(len(p.keys) - 1)
}

// merge adds the other table's groups in its first-encounter order,
// combining each aggregate as the tuple monoid would.
func (p *vecNestPartial) merge(o partialState) error {
	other, ok := o.(*vecNestPartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into vectorized nest state", o)
	}
	dst := make([]int32, len(other.keys))
	for g, k := range other.keys {
		dst[g], _ = p.group(k, int32(g) == other.nullGid)
	}
	for i, a := range p.aggs {
		a.absorb(other.aggs[i], dst)
	}
	return nil
}

// sortedGroups returns the group ids in result order: the NULL group,
// then ascending keys.
func (p *vecNestPartial) sortedGroups() []int32 {
	order := make([]int32, 0, len(p.keys))
	if p.nullGid >= 0 {
		order = append(order, p.nullGid)
	}
	first := len(order)
	for g := range int32(len(p.keys)) {
		if g != p.nullGid {
			order = append(order, g)
		}
	}
	orderByKey(p.keys, order[first:])
	return order
}

func (p *vecNestPartial) result() (*Result, error) {
	if p.rowsCell != nil {
		*p.rowsCell = int64(len(p.keys))
	}
	order := p.sortedGroups()
	cols := make([]Column, 0, len(p.outNames))
	key := Column{Kind: types.KindInt, Ints: make([]int64, len(order)), Nulls: make([]bool, len(order))}
	for i, g := range order {
		key.Ints[i], key.Nulls[i] = p.keys[g], g == p.nullGid
	}
	cols = append(cols, key)
	for _, a := range p.aggs {
		cols = append(cols, a.column(order))
	}
	return &Result{Cols: p.outNames, out: &collectRows{fields: p.outNames, cols: cols, n: len(order)}}, nil
}

// nestGroupBytes is the memory charged per new group, from what the table
// holds for it: an 8-byte key and, per aggregate, at most 16 bytes of
// accumulator (a string header, or AVG's sum and count) plus a seen flag,
// in slices that may be up to twice their length; and the index's 4-byte
// slots, of which a group has two to four (the table doubles when half
// full).
func nestGroupBytes(aggs int) int64 { return 2*(8+17*int64(aggs)) + 4*4 }

// tryVecNest compiles a single-int-key Nest over a vectorizable chain into
// a batch-grouping driver: the key column is evaluated once per batch and
// mapped to dense group ids, then each aggregate folds the batch in one
// typed loop over those ids. Composite and non-int keys stay
// tuple-at-a-time.
func (c *Compiler) tryVecNest(n *algebra.Nest) (func(r *vbuf.Regs) error, *vecNestPartial, bool, error) {
	if len(n.GroupBy) != 1 {
		return nil, nil, false, nil
	}
	seg, predFilter, dataset, ok, err := c.vecAggChain(n.Child, n.Aggs, n.Pred, n.GroupBy)
	if !ok || err != nil {
		return nil, nil, ok, err
	}
	keyKernel, err := c.compileVecInt(n.GroupBy[0])
	if err != nil {
		return nil, nil, true, err
	}
	st := &vecNestPartial{
		rowsCell: c.rootRowsCell(n),
		outNames: append(append([]string{}, n.GroupNames...), n.AggNames...),
		nullGid:  -1,
	}
	for _, a := range n.Aggs {
		agg, err := c.compileAggColumn(a)
		if err != nil {
			return nil, nil, true, err
		}
		st.aggs = append(st.aggs, agg)
	}

	gauge := c.mem
	var pending int64
	groupBytes := nestGroupBytes(len(n.Aggs))
	terminate := func(b *vbuf.Batch, _ *vbuf.Regs) error {
		if predFilter != nil {
			predFilter(b)
		}
		kv, kn := keyKernel(b)
		gids := st.gids[:0]
		var added int64
		for _, j := range b.Sel {
			g, isNew := st.group(kv[j], kn != nil && kn[j])
			if isNew {
				added++
			}
			gids = append(gids, g)
		}
		st.gids = gids
		for _, a := range st.aggs {
			a.fold(b, gids)
		}
		if gauge != nil && added > 0 {
			if pending += added * groupBytes; pending >= memQuantum {
				err := gauge.charge(pending)
				pending = 0
				if err != nil {
					return err
				}
			}
		}
		return nil
	}
	c.note("nest over %s: vectorized columnar grouping (int key, %d aggregates)", dataset, len(st.aggs))
	return c.compileVecDriver(seg, terminate), st, true, nil
}
