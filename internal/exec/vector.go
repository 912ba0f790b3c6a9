// Vectorized pipeline segments (the block-at-a-time half of the hybrid
// engine). A segment is a driving scan plus the consecutive Selects above
// it; when every expression in the segment is batch-capable the compiler
// emits column kernels over vbuf.Batch instead of per-tuple closures, and
// bridges back to the tuple engine at the segment's top (vecAdapter) unless
// the root aggregation itself vectorizes (vagg.go). Mode selection is per
// segment and fully static: a plan can mix vectorized and tuple segments.
package exec

import (
	"errors"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/plugin/cachepg"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// vecChain is a maximal Scan→Select* pipeline prefix, selects bottom-up.
type vecChain struct {
	scan    *algebra.Scan
	selects []*algebra.Select
}

// vecChainOf unwinds Selects down to a Scan; nil when anything else (a join,
// an unnest) sits in between — those operators stay tuple-at-a-time.
func vecChainOf(n algebra.Node) *vecChain {
	var sels []*algebra.Select
	for {
		switch x := n.(type) {
		case *algebra.Select:
			sels = append(sels, x)
			n = x.Child
		case *algebra.Scan:
			for i, j := 0, len(sels)-1; i < j; i, j = i+1, j-1 {
				sels[i], sels[j] = sels[j], sels[i]
			}
			return &vecChain{scan: x, selects: sels}
		default:
			return nil
		}
	}
}

// vecEligible decides — before any slot is allocated, so the tuple path can
// still be taken with zero side effects — whether a chain can vectorize:
// every field the query needs from the scan's binding must be a scalar, and
// every Select predicate must compile to column kernels. Under VecAuto,
// datasets smaller than two batches stay on the tuple path (the batch
// machinery would not amortize), and so do plug-ins without a native batch
// producer: transposing a tuple scan into batches costs about what the
// column kernels save, so auto mode never gambles on it. VecOn still forces
// the transposing fallback, which the equivalence tests rely on.
func (c *Compiler) vecEligible(ch *vecChain) (*types.RecordType, bool) {
	if c.env.Vectorize == VecOff {
		return nil, false
	}
	s := ch.scan
	ds, in, err := c.env.Catalog.Dataset(s.Dataset)
	if err != nil {
		return nil, false
	}
	if c.env.Vectorize == VecAuto {
		if in.Cardinality(ds) < 2*vbuf.BatchSize {
			return nil, false
		}
		if _, ok := in.(plugin.BatchScanner); !ok {
			return nil, false
		}
	}
	schema := in.Schema(ds)
	for p := range c.needs[s.Binding] {
		if p == "" {
			return nil, false // whole-record boxing cannot be columnized
		}
		t, err := typeOfPath(schema, splitPath(p))
		if err != nil || !t.Kind().IsScalar() {
			return nil, false
		}
	}
	for _, sel := range ch.selects {
		if k, ok := c.canVecExpr(sel.Pred, schema, s.Binding); !ok || k != types.KindBool {
			return nil, false
		}
	}
	return schema, true
}

// canVecExpr statically checks that an expression compiles to column
// kernels over the given scan binding, returning its result kind. It
// mirrors the vectorized compilers' coverage exactly so a positive answer
// guarantees compilation succeeds.
func (c *Compiler) canVecExpr(e expr.Expr, schema *types.RecordType, bind string) (types.Kind, bool) {
	if root, path, ok := expr.PathOf(e); ok {
		if root != bind || len(path) == 0 {
			return 0, false
		}
		t, err := typeOfPath(schema, path)
		if err != nil || !t.Kind().IsScalar() {
			return 0, false
		}
		return t.Kind(), true
	}
	numeric := func(k types.Kind) bool { return k == types.KindInt || k == types.KindFloat }
	switch x := e.(type) {
	case *expr.Const:
		k := types.TypeOf(x.V).Kind()
		return k, k.IsScalar()
	case *expr.Neg:
		k, ok := c.canVecExpr(x.E, schema, bind)
		return k, ok && numeric(k)
	case *expr.Not:
		k, ok := c.canVecExpr(x.E, schema, bind)
		return types.KindBool, ok && k == types.KindBool
	case *expr.Like:
		k, ok := c.canVecExpr(x.E, schema, bind)
		return types.KindBool, ok && k == types.KindString
	case *expr.IsNull:
		_, ok := c.canVecExpr(x.E, schema, bind)
		return types.KindBool, ok
	case *expr.BinOp:
		lk, lok := c.canVecExpr(x.L, schema, bind)
		rk, rok := c.canVecExpr(x.R, schema, bind)
		if !lok || !rok {
			return 0, false
		}
		switch {
		case x.Op.IsArith():
			if !numeric(lk) || !numeric(rk) {
				return 0, false
			}
			switch x.Op {
			case expr.OpDiv:
				return types.KindFloat, true
			case expr.OpMod:
				return types.KindInt, lk == types.KindInt && rk == types.KindInt
			}
			if lk == types.KindFloat || rk == types.KindFloat {
				return types.KindFloat, true
			}
			return types.KindInt, true
		case x.Op.IsComparison():
			switch {
			case numeric(lk) && numeric(rk),
				lk == types.KindString && rk == types.KindString:
				return types.KindBool, true
			}
			return 0, false // boxed comparisons stay tuple-at-a-time
		case x.Op.IsLogic():
			return types.KindBool, lk == types.KindBool && rk == types.KindBool
		}
	}
	return 0, false
}

// vecSeg is one compiled vectorized segment: the batch, its producer, the
// cache overlay and population hooks, the filter cascade, and the late
// column loaders of predicate-first materialization.
type vecSeg struct {
	si       *scanInfo
	batch    *vbuf.Batch
	producer plugin.BatchRunFunc
	overlay  []cachepg.BatchLoader // cached fields merged into plug-in batches
	builders []*cachepg.Builder
	selects  []segSelect         // bottom-up
	late     []plugin.LaneLoader // columns no filter reads, loaded after the cascade
}

// segSelect is one Select of a segment: a filter per top-level conjunct,
// each preceded by the lane loaders of the columns it is the first to read
// (none unless the segment materializes predicate-first).
type segSelect struct {
	filters []vecFilter
	loads   [][]plugin.LaneLoader // per conjunct
	cell    *opCounters           // nil when unprofiled
}

// compileVecSeg compiles an eligible chain into a segment. Must only be
// called after vecEligible said yes: analyzeScan commits slot allocations
// and cache-builder claims, so there is no falling back afterwards.
func (c *Compiler) compileVecSeg(ch *vecChain) (*vecSeg, error) {
	si, err := c.analyzeScan(ch.scan)
	if err != nil {
		return nil, err
	}
	seg := &vecSeg{si: si, batch: vbuf.NewBatch(&c.alloc)}

	producerTag := "native"
	var lazy map[string]plugin.LaneLoader
	if len(si.pluginFields) == 0 && len(si.cachedFields) > 0 {
		// Full cache hit: batches alias the cache blocks' arrays directly.
		var loaders []cachepg.BatchLoader
		for _, cf := range si.cachedFields {
			ld, err := cachepg.CompileBatchLoader(cf.block, cf.slot)
			if err != nil {
				return nil, err
			}
			loaders = append(loaders, ld)
		}
		// Zone-map window skipping is safe here: no builders exist on this
		// path, so nothing downstream needs to observe the skipped rows.
		seg.producer = cachepg.CompileBatchScan(si.rows, loaders, &si.b.oidSlot, si.morsel, si.scanProf, c.cancel, si.zoneSkip)
		producerTag = "cache"
	} else {
		if lazy, err = c.laneLoaders(si); err != nil {
			return nil, err
		}
		fields := si.pluginFields
		if lazy != nil {
			fields = nil // the producer decodes only OIDs; loaders do the rest
		}
		seg.producer, err = c.compileBatchProducer(si, c.scanSpec(si, fields), &producerTag)
		if err != nil {
			return nil, err
		}
		// Cached fields not produced by the plug-in overlay onto each batch
		// as zero-copy block windows [Base, Base+N).
		for _, cf := range si.cachedFields {
			ld, err := cachepg.CompileBatchLoader(cf.block, cf.slot)
			if err != nil {
				return nil, err
			}
			seg.overlay = append(seg.overlay, ld)
		}
	}

	for _, br := range si.buildReqs {
		seg.builders = append(seg.builders, cachepg.NewBuilder(si.s.Dataset, br.key, br.kind, si.bias, br.slot, si.rows))
	}

	// The conjuncts of the whole chain on one indexed column share one
	// bitmap (vindex.go) — in a profiled program only within each Select,
	// so every Select still counts its own rows.
	var sites []selectSite
	for _, sel := range ch.selects {
		if c.prof != nil {
			sites = nil
		}
		conj, filters, err := c.compileSegFilter(si, sel.Pred, &sites)
		if err != nil {
			return nil, err
		}
		ss := segSelect{filters: filters, loads: make([][]plugin.LaneLoader, len(conj)), cell: c.opCtr(sel)}
		for i, e := range conj {
			for _, p := range exprPaths(e, si.s.Binding) {
				if ld, ok := lazy[p]; ok {
					ss.loads[i] = append(ss.loads[i], ld)
					delete(lazy, p)
				}
			}
		}
		seg.selects = append(seg.selects, ss)
	}
	for _, p := range sortedKeys(lazy) {
		seg.late = append(seg.late, lazy[p])
	}
	c.note("scan %s: vectorized segment (%s producer, %d filters)", ch.scan.Dataset, producerTag, len(seg.selects))
	if len(seg.late) > 0 && len(seg.selects) > 0 {
		c.note("scan %s: predicate-first, %d of %d columns decoded only for rows that pass the filters",
			ch.scan.Dataset, len(seg.late), len(si.pluginFields))
	}
	c.vectorized = true
	return seg, nil
}

// laneLoaders sets up predicate-first materialization when the plug-in can
// decode single columns lane by lane (plugin.LaneLoaders): each plug-in
// field gets a loader, keyed by path, that the driver runs right before the
// first filter reading the column — or after the cascade, for the rows that
// survived it. Nil (every column decoded up front) when a cache builder
// must see whole batches, or the plug-in cannot.
func (c *Compiler) laneLoaders(si *scanInfo) (map[string]plugin.LaneLoader, error) {
	ll, ok := si.in.(plugin.LaneLoaders)
	if !ok || len(si.buildReqs) > 0 || len(si.pluginFields) == 0 {
		return nil, nil
	}
	loaders, err := ll.CompileLaneLoaders(si.ds, c.scanSpec(si, si.pluginFields))
	if errors.Is(err, plugin.ErrUnsupported) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	out := make(map[string]plugin.LaneLoader, len(loaders))
	for i, f := range si.pluginFields {
		out[pathKey(f.Path)] = loaders[i]
	}
	return out, nil
}

// exprPaths lists the field paths of binding bind that e reads.
func exprPaths(e expr.Expr, bind string) []string {
	var out []string
	expr.Walk(e, func(sub expr.Expr) bool {
		root, path, ok := expr.PathOf(sub)
		if ok && root == bind {
			out = append(out, pathKey(path))
		}
		return !ok
	})
	return out
}

// compileBatchProducer asks the plug-in for a native batch scan and falls
// back to transposing its tuple scan when the format (or this particular
// field list) cannot produce columns directly.
func (c *Compiler) compileBatchProducer(si *scanInfo, spec plugin.ScanSpec, tag *string) (plugin.BatchRunFunc, error) {
	if bs, ok := si.in.(plugin.BatchScanner); ok {
		run, err := bs.CompileBatchScan(si.ds, spec)
		if err == nil {
			return run, nil
		}
		if !errors.Is(err, plugin.ErrUnsupported) {
			return nil, err
		}
	}
	tuple, err := si.in.CompileScan(si.ds, spec)
	if err != nil {
		return nil, err
	}
	*tag = "transposed"
	return plugin.BatchFromTuples(tuple, spec), nil
}

// compileVecDriver assembles the segment's run function: per batch it
// overlays cached columns, feeds cache population, runs the filter cascade
// with per-operator accounting — loading each predicate-first column just
// before its first reader — loads the remaining late columns for the
// survivors, and hands the selection to terminate (the adapter or a
// vectorized aggregation).
//
// Profiling replicates the tuple path's shape. Untimed mode pays only
// counter increments: rows-out per filter, batches everywhere, and the
// scan's rows arithmetically in the outer wrapper. Timed (EXPLAIN ANALYZE)
// mode also records, per batch, the time spent above the scan and above
// each filter, so self-time derivation in profile.go works unchanged.
func (c *Compiler) compileVecDriver(seg *vecSeg, terminate func(b *vbuf.Batch, r *vbuf.Regs) error) func(r *vbuf.Regs) error {
	si := seg.si
	batch := seg.batch
	overlay := seg.overlay
	builders := seg.builders
	selects := seg.selects
	late := seg.late
	scanCell := c.opCtr(si.s)
	timing := c.prof != nil && c.prof.timing
	var tAfter []time.Time
	if timing {
		tAfter = make([]time.Time, len(selects))
	}

	credit := si.credit
	run := func(r *vbuf.Regs) error {
		if credit != nil {
			credit()
		}
		for _, bd := range builders {
			bd.Reset()
		}
		consume := func() error {
			for _, ld := range overlay {
				ld(batch, batch.Base, batch.Base+int64(batch.N))
			}
			for _, bd := range builders {
				bd.AppendBatch(batch)
			}
			var t0 time.Time
			if timing {
				t0 = time.Now()
				scanCell.rows += int64(batch.N)
			}
			if scanCell != nil {
				scanCell.batches++
			}
			// Lane loaders decode only the lanes still selected, so a column
			// loaded after a filter that emptied the batch costs nothing.
			for i, sel := range selects {
				for k, f := range sel.filters {
					for _, ld := range sel.loads[k] {
						ld(batch)
					}
					f(batch)
				}
				if cell := sel.cell; cell != nil {
					cell.rows += int64(len(batch.Sel))
					cell.batches++
				}
				if timing {
					tAfter[i] = time.Now()
				}
			}
			for _, ld := range late {
				ld(batch)
			}
			err := terminate(batch, r)
			if timing {
				end := time.Now()
				scanCell.nanos += int64(end.Sub(t0))
				for i, sel := range selects {
					if sel.cell != nil {
						sel.cell.nanos += int64(end.Sub(tAfter[i]))
					}
				}
			}
			return err
		}
		if err := seg.producer(r, batch, consume); err != nil {
			return err
		}
		c.finishScanBuilders(si, builders)
		return nil
	}
	return c.vecProfRun(si.s, run, morselRows(si.morsel, si.rows))
}

// vecProfRun is profScanRun for vectorized drivers: driver wall time and
// the arithmetic rows-out count, but no per-invocation batch increment —
// the driver counts real batches itself.
func (c *Compiler) vecProfRun(s *algebra.Scan, run func(r *vbuf.Regs) error, rows int64) func(r *vbuf.Regs) error {
	oc := c.opCtr(s)
	if oc == nil {
		return run
	}
	countRows := !c.prof.timing
	events := c.prof.events
	name := "morsel " + s.Dataset
	return func(r *vbuf.Regs) error {
		t0 := time.Now()
		err := run(r)
		d := time.Since(t0)
		oc.driverNanos += int64(d)
		if events {
			oc.events = append(oc.events, obs.Span{Name: name, Start: t0, Dur: d})
		}
		if err == nil && countRows {
			oc.rows += rows
		}
		return err
	}
}

// tryVecSelectChain intercepts a Select whose subtree is a vectorizable
// chain and compiles it as one segment that re-materializes surviving rows
// into the register file for the tuple operators above (handled=false means
// the caller proceeds tuple-at-a-time with no state disturbed).
func (c *Compiler) tryVecSelectChain(sel *algebra.Select, consume Kont) (func(r *vbuf.Regs) error, bool, error) {
	ch := vecChainOf(sel)
	if ch == nil {
		return nil, false, nil
	}
	if _, ok := c.vecEligible(ch); !ok {
		return nil, false, nil
	}
	seg, err := c.compileVecSeg(ch)
	if err != nil {
		return nil, true, err
	}
	return c.compileVecDriver(seg, c.vecAdapter(seg.si, consume)), true, nil
}

// vecAdapter is the batch→tuple boundary: it scatters each selected row's
// columns back into the register file and calls the tuple continuation once
// per row. One writer closure per extracted slot, compiled once.
func (c *Compiler) vecAdapter(si *scanInfo, consume Kont) func(b *vbuf.Batch, r *vbuf.Regs) error {
	scatter := c.vecRowScatter(si)
	return func(b *vbuf.Batch, r *vbuf.Regs) error {
		for _, j := range b.Sel {
			scatter(b, r, j)
			if err := consume(r); err != nil {
				return err
			}
		}
		return nil
	}
}

// vecRowScatter compiles the per-lane register scatter of a segment's
// binding: one writer closure per extracted slot plus the OID, applied to a
// single selected lane. The adapter runs it for every selected row; the
// vectorized join probe only for lanes with a candidate match.
func (c *Compiler) vecRowScatter(si *scanInfo) func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
	type writer func(b *vbuf.Batch, r *vbuf.Regs, j int32)
	var writers []writer
	add := func(s vbuf.Slot) {
		switch s.Class {
		case vbuf.ClassInt:
			writers = append(writers, func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
				r.I[s.Idx] = b.I[s.Idx][j]
				nc := b.Null[s.Null]
				r.Null[s.Null] = nc != nil && nc[j]
			})
		case vbuf.ClassFloat:
			writers = append(writers, func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
				r.F[s.Idx] = b.F[s.Idx][j]
				nc := b.Null[s.Null]
				r.Null[s.Null] = nc != nil && nc[j]
			})
		case vbuf.ClassBool:
			writers = append(writers, func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
				r.B[s.Idx] = b.B[s.Idx][j]
				nc := b.Null[s.Null]
				r.Null[s.Null] = nc != nil && nc[j]
			})
		case vbuf.ClassString:
			writers = append(writers, func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
				r.S[s.Idx] = b.S[s.Idx][j]
				nc := b.Null[s.Null]
				r.Null[s.Null] = nc != nil && nc[j]
			})
		}
	}
	for _, p := range sortedKeys(si.b.slots) {
		add(si.b.slots[p])
	}
	oid := si.b.oidSlot
	writers = append(writers, func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
		r.I[oid.Idx] = b.I[oid.Idx][j]
		r.Null[oid.Null] = false
	})
	return func(b *vbuf.Batch, r *vbuf.Regs, j int32) {
		for _, w := range writers {
			w(b, r, j)
		}
	}
}
