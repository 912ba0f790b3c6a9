package exec

import (
	"fmt"
	"math"
	"sort"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// accumulator is one compiled aggregate monoid: fold consumes the current
// tuple, result yields the final value. partial/absorb expose the monoid's
// internal state so morsel-parallel workers can merge their thread-local
// aggregates at the pipeline breaker (merge is the monoid ⊕, so the merged
// result equals the serial fold).
type accumulator struct {
	fold   func(r *vbuf.Regs)
	result func() types.Value
	// fresh clones the accumulator with zeroed state (for per-group use).
	fresh func() *accumulator
	// partial snapshots the internal state; absorb folds another
	// accumulator's partial into this one.
	partial func() any
	absorb  func(p any)
}

// scalarPart is the partial state of min/max/sum over one scalar type.
type scalarPart[T int64 | float64 | string] struct {
	v    T
	seen bool
}

// avgPart is the partial state of AVG: merging needs sum and count, not the
// quotient.
type avgPart struct {
	sum float64
	n   int64
}

// compileAgg builds the type-specialized accumulator for one aggregate.
func (c *Compiler) compileAgg(a expr.Agg) (*accumulator, error) {
	switch a.Kind {
	case expr.AggCount:
		var make_ func() *accumulator
		make_ = func() *accumulator {
			var n int64
			return &accumulator{
				fold:    func(*vbuf.Regs) { n++ },
				result:  func() types.Value { return types.IntValue(n) },
				fresh:   func() *accumulator { return make_() },
				partial: func() any { return n },
				absorb:  func(p any) { n += p.(int64) },
			}
		}
		return make_(), nil
	case expr.AggBag, expr.AggList:
		ev, err := c.compileVal(a.Arg)
		if err != nil {
			return nil, err
		}
		kind := types.KindBag
		if a.Kind == expr.AggList {
			kind = types.KindList
		}
		var make_ func() *accumulator
		make_ = func() *accumulator {
			var elems []types.Value
			return &accumulator{
				fold: func(r *vbuf.Regs) {
					v, ok := ev(r)
					if !ok {
						v = types.NullValue()
					}
					elems = append(elems, v)
				},
				result:  func() types.Value { return types.Value{Kind: kind, Elems: elems} },
				fresh:   func() *accumulator { return make_() },
				partial: func() any { return elems },
				absorb:  func(p any) { elems = append(elems, p.([]types.Value)...) },
			}
		}
		return make_(), nil
	}

	t, err := c.typeOf(a.Arg)
	if err != nil {
		return nil, err
	}
	switch {
	case a.Kind == expr.AggAvg:
		ev, err := c.compileFloat(a.Arg)
		if err != nil {
			return nil, err
		}
		var make_ func() *accumulator
		make_ = func() *accumulator {
			var sum float64
			var n int64
			return &accumulator{
				fold: func(r *vbuf.Regs) {
					if v, ok := ev(r); ok {
						sum += v
						n++
					}
				},
				result: func() types.Value {
					if n == 0 {
						return types.NullValue()
					}
					return types.FloatValue(sum / float64(n))
				},
				fresh:   func() *accumulator { return make_() },
				partial: func() any { return avgPart{sum: sum, n: n} },
				absorb: func(p any) {
					ap := p.(avgPart)
					sum += ap.sum
					n += ap.n
				},
			}
		}
		return make_(), nil
	case t.Kind() == types.KindInt:
		ev, err := c.compileInt(a.Arg)
		if err != nil {
			return nil, err
		}
		return intAccumulator(a.Kind, ev)
	case t.Kind() == types.KindFloat:
		ev, err := c.compileFloat(a.Arg)
		if err != nil {
			return nil, err
		}
		return floatAccumulator(a.Kind, ev)
	case t.Kind() == types.KindString && (a.Kind == expr.AggMax || a.Kind == expr.AggMin):
		ev, err := c.compileStr(a.Arg)
		if err != nil {
			return nil, err
		}
		return strAccumulator(a.Kind, ev)
	}
	return nil, fmt.Errorf("exec: unsupported aggregate %s over %s", a.Kind, t)
}

// scalarAccumulator builds sum/max/min over one scalar representation from
// the fold step, the binary merge, and the boxing function.
func scalarAccumulator[T int64 | float64 | string](
	zero T,
	ev func(r *vbuf.Regs) (T, bool),
	combine func(acc, v T) T,
	box func(T) types.Value,
) *accumulator {
	var make_ func() *accumulator
	make_ = func() *accumulator {
		st := scalarPart[T]{v: zero}
		return &accumulator{
			fold: func(r *vbuf.Regs) {
				v, ok := ev(r)
				if !ok {
					return
				}
				if !st.seen {
					st.v = v
					st.seen = true
					return
				}
				st.v = combine(st.v, v)
			},
			result: func() types.Value {
				if !st.seen {
					return types.NullValue()
				}
				return box(st.v)
			},
			fresh:   func() *accumulator { return make_() },
			partial: func() any { return st },
			absorb: func(p any) {
				o := p.(scalarPart[T])
				if !o.seen {
					return
				}
				if !st.seen {
					st = o
					return
				}
				st.v = combine(st.v, o.v)
			},
		}
	}
	return make_()
}

func intAccumulator(kind expr.AggKind, ev evalInt) (*accumulator, error) {
	switch kind {
	case expr.AggSum:
		return scalarAccumulator[int64](0, ev, func(a, v int64) int64 { return a + v }, types.IntValue), nil
	case expr.AggMax:
		return scalarAccumulator[int64](math.MinInt64, ev, func(a, v int64) int64 { return max(a, v) }, types.IntValue), nil
	case expr.AggMin:
		return scalarAccumulator[int64](math.MaxInt64, ev, func(a, v int64) int64 { return min(a, v) }, types.IntValue), nil
	default:
		return nil, fmt.Errorf("exec: aggregate %s not defined on int", kind)
	}
}

func floatAccumulator(kind expr.AggKind, ev evalFloat) (*accumulator, error) {
	switch kind {
	case expr.AggSum:
		return scalarAccumulator[float64](0, ev, func(a, v float64) float64 { return a + v }, types.FloatValue), nil
	case expr.AggMax:
		return scalarAccumulator(math.Inf(-1), ev, func(a, v float64) float64 { return math.Max(a, v) }, types.FloatValue), nil
	case expr.AggMin:
		return scalarAccumulator(math.Inf(1), ev, func(a, v float64) float64 { return math.Min(a, v) }, types.FloatValue), nil
	default:
		return nil, fmt.Errorf("exec: aggregate %s not defined on float", kind)
	}
}

func strAccumulator(kind expr.AggKind, ev evalStr) (*accumulator, error) {
	if kind == expr.AggMax {
		return scalarAccumulator("", ev, func(a, v string) string { return max(a, v) }, types.StringValue), nil
	}
	return scalarAccumulator("", ev, func(a, v string) string { return min(a, v) }, types.StringValue), nil
}

// reducePartial is the mergeable state of one Reduce evaluation: either the
// collected output rows (bag/list yield) or the accumulator set. Parallel
// workers each hold one and merge them at the pipeline breaker; the serial
// path holds exactly one.
type reducePartial struct {
	collect bool
	names   []string
	out     *collectRows // a record collect's field names, shared by its results (nil: none)
	rows    []types.Value
	accs    []*accumulator
	// rowsCell, when profiled, receives the output cardinality at result
	// materialization — blocking roots never flow through a consume wrapper,
	// so they self-report (see profile.go).
	rowsCell *int64
}

func (p *reducePartial) reset() {
	p.rows = nil
	for i := range p.accs {
		p.accs[i] = p.accs[i].fresh()
	}
}

func (p *reducePartial) merge(o partialState) error {
	other, ok := o.(*reducePartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into reduce state", o)
	}
	if p.collect {
		p.rows = append(p.rows, other.rows...)
		return nil
	}
	for i := range p.accs {
		p.accs[i].absorb(other.accs[i].partial())
	}
	return nil
}

func (p *reducePartial) result() (*Result, error) {
	if p.collect {
		if p.rowsCell != nil {
			*p.rowsCell = int64(len(p.rows))
		}
		return &Result{Cols: []string{p.names[0]}, Rows: p.rows, out: p.out}, nil
	}
	if p.rowsCell != nil {
		*p.rowsCell = 1
	}
	vals := make([]types.Value, len(p.accs))
	for i, acc := range p.accs {
		vals[i] = acc.result()
	}
	return &Result{Cols: p.names, Rows: []types.Value{types.RecordValue(p.names, vals)}}, nil
}

// compileReducePartial compiles the Reduce pipeline into a driver plus the
// mergeable partial state it folds into. A vectorizable pipeline compiles
// into batch kernels instead (vagg.go); both states implement partialState,
// and all parallel clones of a plan make the same choice.
func (c *Compiler) compileReducePartial(red *algebra.Reduce) (func(r *vbuf.Regs) error, partialState, error) {
	if run, vst, ok, err := c.tryVecReduce(red); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	if run, vst, ok, err := c.tryVecCollect(red); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	st := &reducePartial{names: red.Names, rowsCell: c.rootRowsCell(red)}
	var pred evalBool
	gauge := c.mem
	var pending int64

	// Collection yield: one bag/list aggregate produces the result rows.
	if len(red.Aggs) == 1 && (red.Aggs[0].Kind == expr.AggBag || red.Aggs[0].Kind == expr.AggList) {
		st.collect = true
		if rec, ok := red.Aggs[0].Arg.(*expr.RecordCtor); ok {
			st.out = &collectRows{fields: rec.Names}
		}
		var ev evalVal
		run, err := c.compileChildThen(red.Child, func() (Kont, error) {
			e, err := c.compileVal(red.Aggs[0].Arg)
			if err != nil {
				return nil, err
			}
			ev = e
			if red.Pred != nil {
				p, err := c.compileBool(red.Pred)
				if err != nil {
					return nil, err
				}
				pred = p
			}
			return func(r *vbuf.Regs) error {
				if pred != nil {
					if v, ok := pred(r); !ok || !v {
						return nil
					}
				}
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				st.rows = append(st.rows, v)
				if gauge != nil {
					if pending += 64; pending >= memQuantum {
						err := gauge.charge(pending)
						pending = 0
						if err != nil {
							return err
						}
					}
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return run, st, nil
	}

	// Aggregate yield: fold every accumulator in one pass.
	st.accs = make([]*accumulator, len(red.Aggs))
	run, err := c.compileChildThen(red.Child, func() (Kont, error) {
		for i, a := range red.Aggs {
			acc, err := c.compileAgg(a)
			if err != nil {
				return nil, err
			}
			st.accs[i] = acc
		}
		if red.Pred != nil {
			p, err := c.compileBool(red.Pred)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		return func(r *vbuf.Regs) error {
			if pred != nil {
				if v, ok := pred(r); !ok || !v {
					return nil
				}
			}
			for _, acc := range st.accs {
				acc.fold(r)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return run, st, nil
}

// group holds one hash-group's accumulators during Nest evaluation.
type group struct {
	hash    uint64
	keyVals []types.Value
	accs    []*accumulator
}

// nestPartial is the mergeable grouping state of one Nest evaluation.
// Merging adopts groups first seen by later workers in worker order, so the
// merged first-encounter order equals the serial scan order (workers hold
// contiguous, ordered morsel ranges).
type nestPartial struct {
	outNames  []string // numKeys group columns, then the aggregates
	numKeys   int
	freshAccs func() []*accumulator

	// Fast path: single integer key. NULL keys form their own group
	// (intNull), matching the general path and the Volcano baseline.
	singleInt bool
	intGroups map[int64][]*accumulator
	intOrder  []int64
	intNull   []*accumulator

	// General path: composite/boxed keys hashed by canonical value hash.
	groups map[uint64][]*group
	order  []*group

	// rowsCell, when profiled, receives the group count at result
	// materialization (see reducePartial.rowsCell).
	rowsCell *int64
}

func (p *nestPartial) reset() {
	if p.singleInt {
		p.intGroups = map[int64][]*accumulator{}
		p.intOrder = nil
		p.intNull = nil
		return
	}
	p.groups = map[uint64][]*group{}
	p.order = nil
}

func (p *nestPartial) merge(o partialState) error {
	other, ok := o.(*nestPartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into nest state", o)
	}
	if p.singleInt {
		for _, k := range other.intOrder {
			accs, exists := p.intGroups[k]
			if !exists {
				p.intGroups[k] = other.intGroups[k]
				p.intOrder = append(p.intOrder, k)
				continue
			}
			for i, acc := range accs {
				acc.absorb(other.intGroups[k][i].partial())
			}
		}
		if other.intNull != nil {
			if p.intNull == nil {
				p.intNull = other.intNull
			} else {
				for i, acc := range p.intNull {
					acc.absorb(other.intNull[i].partial())
				}
			}
		}
		return nil
	}
	for _, og := range other.order {
		var g *group
		for _, cand := range p.groups[og.hash] {
			if sameKeys(cand.keyVals, og.keyVals) {
				g = cand
				break
			}
		}
		if g == nil {
			p.groups[og.hash] = append(p.groups[og.hash], og)
			p.order = append(p.order, og)
			continue
		}
		for i, acc := range g.accs {
			acc.absorb(og.accs[i].partial())
		}
	}
	return nil
}

// hashKeys is the group hash of a composite key.
func hashKeys(keyVals []types.Value) uint64 {
	h := uint64(14695981039346656037)
	for _, v := range keyVals {
		h = hashMix(h, v.Hash())
	}
	return h
}

func sameKeys(a, b []types.Value) bool {
	for i := range a {
		if types.Compare(a[i], b[i]) != 0 {
			return false
		}
	}
	return true
}

func (p *nestPartial) result() (*Result, error) {
	if p.rowsCell != nil {
		if p.singleInt {
			n := int64(len(p.intOrder))
			if p.intNull != nil {
				n++
			}
			*p.rowsCell = n
		} else {
			*p.rowsCell = int64(len(p.order))
		}
	}
	if p.singleInt {
		sort.Slice(p.intOrder, func(i, j int) bool { return p.intOrder[i] < p.intOrder[j] })
		rows := make([]types.Value, 0, len(p.intOrder)+1)
		if p.intNull != nil {
			vals := make([]types.Value, 0, len(p.outNames))
			vals = append(vals, types.NullValue())
			for _, acc := range p.intNull {
				vals = append(vals, acc.result())
			}
			rows = append(rows, types.RecordValue(p.outNames, vals))
		}
		for _, k := range p.intOrder {
			vals := make([]types.Value, 0, len(p.outNames))
			vals = append(vals, types.IntValue(k))
			for _, acc := range p.intGroups[k] {
				vals = append(vals, acc.result())
			}
			rows = append(rows, types.RecordValue(p.outNames, vals))
		}
		return &Result{Cols: p.outNames, Rows: rows}, nil
	}
	rows := make([]types.Value, 0, len(p.order))
	for _, g := range p.order {
		vals := make([]types.Value, 0, len(p.outNames))
		vals = append(vals, g.keyVals...)
		for _, acc := range g.accs {
			vals = append(vals, acc.result())
		}
		rows = append(rows, types.RecordValue(p.outNames, vals))
	}
	return &Result{Cols: p.outNames, Rows: rows}, nil
}

// compileNestPartial compiles the Nest pipeline (radix-hash grouping with
// per-group accumulators, §5.1) into a driver plus its mergeable state.
// Single integer group-by keys take a specialized path — vectorized when
// the pipeline below allows it (vagg.go), tuple-at-a-time otherwise.
func (c *Compiler) compileNestPartial(n *algebra.Nest) (func(r *vbuf.Regs) error, partialState, error) {
	if run, vst, ok, err := c.tryVecNest(n); err != nil {
		return nil, nil, err
	} else if ok {
		return run, vst, nil
	}
	var pred evalBool
	protoAccs := make([]*accumulator, len(n.Aggs))
	gauge := c.mem
	var pending int64
	// Estimated footprint of one new group: map/order bookkeeping plus the
	// per-group accumulator states.
	groupBytes := int64(96 + len(n.GroupBy)*48 + len(n.Aggs)*96)
	st := &nestPartial{
		rowsCell: c.rootRowsCell(n),
		outNames: append(append([]string{}, n.GroupNames...), n.AggNames...),
		numKeys:  len(n.GroupBy),
		freshAccs: func() []*accumulator {
			accs := make([]*accumulator, len(protoAccs))
			for i, p := range protoAccs {
				accs[i] = p.fresh()
			}
			return accs
		},
	}

	if len(n.GroupBy) == 1 {
		if t, err := c.typeOf(n.GroupBy[0]); err == nil && t.Kind() == types.KindInt {
			st.singleInt = true
		}
	}

	if st.singleInt {
		run, err := c.compileChildThen(n.Child, func() (Kont, error) {
			keyEval, err := c.compileInt(n.GroupBy[0])
			if err != nil {
				return nil, err
			}
			for i, a := range n.Aggs {
				acc, err := c.compileAgg(a)
				if err != nil {
					return nil, err
				}
				protoAccs[i] = acc
			}
			if n.Pred != nil {
				p, err := c.compileBool(n.Pred)
				if err != nil {
					return nil, err
				}
				pred = p
			}
			return func(r *vbuf.Regs) error {
				if pred != nil {
					if v, ok := pred(r); !ok || !v {
						return nil
					}
				}
				k, ok := keyEval(r)
				if !ok {
					// NULL key: its own group, like the general path.
					if st.intNull == nil {
						st.intNull = st.freshAccs()
						if gauge != nil {
							if pending += groupBytes; pending >= memQuantum {
								err := gauge.charge(pending)
								pending = 0
								if err != nil {
									return err
								}
							}
						}
					}
					for _, acc := range st.intNull {
						acc.fold(r)
					}
					return nil
				}
				accs, exists := st.intGroups[k]
				if !exists {
					accs = st.freshAccs()
					st.intGroups[k] = accs
					st.intOrder = append(st.intOrder, k)
					if gauge != nil {
						if pending += groupBytes; pending >= memQuantum {
							err := gauge.charge(pending)
							pending = 0
							if err != nil {
								return err
							}
						}
					}
				}
				for _, acc := range accs {
					acc.fold(r)
				}
				return nil
			}, nil
		})
		if err != nil {
			return nil, nil, err
		}
		return run, st, nil
	}

	keyEvals := make([]evalVal, len(n.GroupBy))
	run, err := c.compileChildThen(n.Child, func() (Kont, error) {
		for i, g := range n.GroupBy {
			ev, err := c.compileVal(g)
			if err != nil {
				return nil, err
			}
			keyEvals[i] = ev
		}
		for i, a := range n.Aggs {
			acc, err := c.compileAgg(a)
			if err != nil {
				return nil, err
			}
			protoAccs[i] = acc
		}
		if n.Pred != nil {
			p, err := c.compileBool(n.Pred)
			if err != nil {
				return nil, err
			}
			pred = p
		}
		return func(r *vbuf.Regs) error {
			if pred != nil {
				if v, ok := pred(r); !ok || !v {
					return nil
				}
			}
			keyVals := make([]types.Value, len(keyEvals))
			for i, ev := range keyEvals {
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				keyVals[i] = v
			}
			h := hashKeys(keyVals)
			var g *group
			for _, cand := range st.groups[h] {
				if sameKeys(cand.keyVals, keyVals) {
					g = cand
					break
				}
			}
			if g == nil {
				g = &group{hash: h, keyVals: keyVals, accs: st.freshAccs()}
				st.groups[h] = append(st.groups[h], g)
				st.order = append(st.order, g)
				if gauge != nil {
					if pending += groupBytes; pending >= memQuantum {
						err := gauge.charge(pending)
						pending = 0
						if err != nil {
							return err
						}
					}
				}
			}
			for _, acc := range g.accs {
				acc.fold(r)
			}
			return nil
		}, nil
	})
	if err != nil {
		return nil, nil, err
	}
	return run, st, nil
}
