package exec

import (
	"fmt"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/expr"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/plugin/cachepg"
	"proteus/internal/stats"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Catalog resolves dataset names to their registered plug-in and dataset.
type Catalog interface {
	Dataset(name string) (*plugin.Dataset, plugin.Input, error)
}

// VecMode selects the execution style for batch-capable pipeline segments
// (a driving scan plus the consecutive filters above it).
type VecMode int

const (
	// VecAuto vectorizes capable segments over datasets large enough to
	// amortize the batch machinery (the default).
	VecAuto VecMode = iota
	// VecOn vectorizes every capable segment regardless of dataset size.
	VecOn
	// VecOff compiles the pure tuple-at-a-time engine.
	VecOff
)

// Env carries the services a compilation needs.
type Env struct {
	Catalog Catalog
	Caches  *cache.Manager
	// Stats, when set, receives min/max observations profiled from
	// materialized join build sides (§5.2's blocking-operator statistics
	// gathering).
	Stats *stats.Store
	// Profile, when set, makes compilation thread per-operator counters into
	// the generated closures; nil compiles the exact unprofiled code.
	Profile *ProfileSpec
	// Metrics, when set, receives cumulative engine-level counters
	// (workers launched, morsels scanned, active-worker gauge).
	Metrics *obs.Metrics
	// MemBudget, when positive, bounds the estimated bytes a query may pin
	// in pipeline-breaker state (hash-join build sides, aggregation tables,
	// collected rows, ORDER BY buffers). Exceeding it fails the query with
	// ErrMemBudget instead of risking the process.
	MemBudget int64
	// Vectorize selects tuple-at-a-time vs. block-at-a-time compilation for
	// batch-capable pipeline segments (see vector.go).
	Vectorize VecMode
	// Sort, when set, is the caller's ORDER BY / LIMIT request. An eligible
	// plan absorbs it into the pipeline (columnar index sort, vsort.go) and
	// reports that via Program.Sorted; otherwise the caller post-sorts.
	Sort *SortSpec
}

// Kont is the consume continuation of the push model: called once per
// tuple, reading the current tuple from the register file.
type Kont func(r *vbuf.Regs) error

// binding tracks where a plan variable's data lives at run time.
type binding struct {
	name string
	typ  types.Type
	// Dataset provenance (nil for unnest-introduced bindings).
	ds *plugin.Dataset
	in plugin.Input
	// oidSlot carries the record OID when ds != nil.
	oidSlot vbuf.Slot
	hasOID  bool
	// slots maps extracted dotted field paths ("" = whole value) to their
	// registers.
	slots map[string]vbuf.Slot
}

// Compiler performs the single post-order traversal of the physical plan
// that produces the specialized query program (§5.1).
type Compiler struct {
	env      *Env
	alloc    vbuf.Alloc
	bindings map[string]*binding
	// env for type inference: binding name → type.
	envTypes expr.Env
	// needs: binding → set of dotted paths required by expressions.
	needs map[string]map[string]bool
	// lazyUnnest: binding → set of collection paths served by plug-in
	// unnests (not extracted at scan).
	lazyUnnest map[string]map[string]bool
	// explain accumulates human-readable compilation decisions.
	explain []string

	// cacheBuilding dedupes cache-population builders within one
	// compilation: a query that scans the same dataset twice (self-join)
	// must attach the builder for a field to only one of the scans, or two
	// builders would race to register overlapping blocks in one run.
	cacheBuilding map[string]bool

	// Morsel-parallel compilation context (zero for serial compiles).
	// CompileParallel compiles one pipeline clone per worker; each clone
	// gets its own Compiler with the same plan but a different morsel.
	driveScan *algebra.Scan  // the scan that is range-partitioned
	morsel    *plugin.Morsel // this worker's record range of driveScan
	shared    *sharedRun     // cross-worker shared state (joins, cache frags)
	workerID  int

	// prof, when non-nil, makes the compiler thread per-operator counters
	// into the generated closures (see profile.go). All pipeline clones of a
	// parallel program share one progProf; each clone writes its own cells.
	prof *progProf

	// cancel is the program's cooperative cancellation token, threaded into
	// every scan driver. All pipeline clones share one token.
	cancel *plugin.Cancel
	// mem is the query's memory accountant (shared across clones); nil when
	// no budget is configured, which compiles all accounting out.
	mem *memGauge

	// vectorized records that at least one pipeline segment compiled to
	// batch kernels (surfaced as Program.Vectorized for the feedback store).
	vectorized bool
	// sorted records that the plan absorbed Env.Sort into the pipeline
	// (surfaced as Program.Sorted so the caller skips its own sort).
	sorted bool
}

func (c *Compiler) note(format string, args ...any) {
	c.explain = append(c.explain, fmt.Sprintf(format, args...))
}

// field needs inference ----------------------------------------------------

// analyze walks the plan collecting, per binding, the set of field paths
// referenced by any expression — this is the projection-pushdown
// information the input plug-ins use to extract only what the query needs.
func (c *Compiler) analyze(plan algebra.Node) {
	c.needs = map[string]map[string]bool{}
	c.lazyUnnest = map[string]map[string]bool{}
	addPath := func(root string, path []string) {
		set, ok := c.needs[root]
		if !ok {
			set = map[string]bool{}
			c.needs[root] = set
		}
		set[pathKey(path)] = true
	}
	var addExpr func(e expr.Expr)
	addExpr = func(e expr.Expr) {
		if e == nil {
			return
		}
		if root, path, ok := expr.PathOf(e); ok {
			addPath(root, path)
			return
		}
		switch x := e.(type) {
		case *expr.BinOp:
			addExpr(x.L)
			addExpr(x.R)
		case *expr.Not:
			addExpr(x.E)
		case *expr.Neg:
			addExpr(x.E)
		case *expr.IsNull:
			addExpr(x.E)
		case *expr.Like:
			addExpr(x.E)
		case *expr.RecordCtor:
			for _, sub := range x.Exprs {
				addExpr(sub)
			}
		}
	}
	algebra.Walk(plan, func(n algebra.Node) bool {
		switch x := n.(type) {
		case *algebra.Select:
			addExpr(x.Pred)
		case *algebra.Join:
			addExpr(x.Pred)
		case *algebra.Unnest:
			addExpr(x.Pred)
			// The unnest path itself: plug-in unnests resolve it lazily via
			// the OID; value-mode unnests need the collection extracted.
			if root, path, ok := expr.PathOf(x.Path); ok {
				if c.isPluginUnnest(plan, root) {
					set, ok := c.lazyUnnest[root]
					if !ok {
						set = map[string]bool{}
						c.lazyUnnest[root] = set
					}
					set[pathKey(path)] = true
				} else {
					addPath(root, path)
				}
			}
		case *algebra.Reduce:
			addExpr(x.Pred)
			for _, a := range x.Aggs {
				addExpr(a.Arg)
			}
		case *algebra.Nest:
			addExpr(x.Pred)
			for _, g := range x.GroupBy {
				addExpr(g)
			}
			for _, a := range x.Aggs {
				addExpr(a.Arg)
			}
		}
		return true
	})
}

// isPluginUnnest reports whether binding root is dataset-backed by a
// plug-in that supports lazy unnesting (JSON).
func (c *Compiler) isPluginUnnest(plan algebra.Node, root string) bool {
	for _, s := range algebra.Scans(plan) {
		if s.Binding == root {
			_, in, err := c.env.Catalog.Dataset(s.Dataset)
			if err != nil {
				return false
			}
			type unnester interface {
				CompileUnnest(*plugin.Dataset, plugin.UnnestSpec) (plugin.UnnestFunc, error)
			}
			_, ok := in.(unnester)
			if !ok {
				return false
			}
			return in.Format() == "json"
		}
	}
	return false
}

// compileNode dispatches on the operator kind, compiling the subtree into a
// driver that calls consume per produced tuple.
func (c *Compiler) compileNode(n algebra.Node, consume Kont) (func(r *vbuf.Regs) error, error) {
	// Vectorized interception happens before any profiling wrapper: a
	// batch-capable Select chain compiles into one segment whose kernels
	// count rows per batch themselves (see vector.go), so wrapping the top
	// Select here would double-count it.
	if sel, ok := n.(*algebra.Select); ok {
		if run, handled, err := c.tryVecSelectChain(sel, consume); handled {
			return run, err
		}
	}
	// Profiling: Join and Unnest count emitted rows through a consume
	// wrapper; Scan and Select fuse the counter into their own closures so
	// the densest paths pay no extra call layer. Timed (EXPLAIN ANALYZE)
	// runs wrap every operator to measure pipeline time above it.
	if c.prof != nil {
		switch n.(type) {
		case *algebra.Join, *algebra.Unnest:
			consume = c.profKont(n, consume)
		default:
			if c.prof.timing {
				consume = c.profKont(n, consume)
			}
		}
	}
	switch x := n.(type) {
	case *algebra.Scan:
		return c.compileScan(x, consume)
	case *algebra.Select:
		return c.compileChildThen(x.Child, func() (Kont, error) {
			pred, err := c.compileBool(x.Pred)
			if err != nil {
				return nil, fmt.Errorf("select %s: %w", x.Pred, err)
			}
			if rows := c.inlineRows(x); rows != nil {
				return func(r *vbuf.Regs) error {
					if v, ok := pred(r); ok && v {
						*rows++
						return consume(r)
					}
					return nil
				}, nil
			}
			return func(r *vbuf.Regs) error {
				if v, ok := pred(r); ok && v {
					return consume(r)
				}
				return nil
			}, nil
		})
	case *algebra.Join:
		return c.compileJoin(x, consume)
	case *algebra.Unnest:
		return c.compileUnnest(x, consume)
	default:
		return nil, fmt.Errorf("exec: unexpected operator %T below the root", n)
	}
}

// compileChildThen compiles the child subtree first (post-order DFS: the
// child's bindings and slots must exist before this operator's expressions
// are compiled), then asks mk for the operator's consume and installs it
// through an indirection.
func (c *Compiler) compileChildThen(child algebra.Node, mk func() (Kont, error)) (func(r *vbuf.Regs) error, error) {
	var k Kont
	run, err := c.compileNode(child, func(r *vbuf.Regs) error { return k(r) })
	if err != nil {
		return nil, err
	}
	k, err = mk()
	if err != nil {
		return nil, err
	}
	return run, nil
}

// cachedField is one needed path served from a complete cache block.
type cachedField struct {
	path  string
	block *cache.Block
	slot  vbuf.Slot
}

// buildReq is one cache block to populate as a scan side effect.
type buildReq struct {
	key  string
	kind types.Kind
	slot vbuf.Slot
}

// scanInfo is the resolved state of one scan: the binding with its slot
// assignments, and the classification of every needed path into plug-in
// extraction, cache service, or cache population. The tuple and vectorized
// scan compilers share this analysis, so mode selection never changes slot
// layout or cache policy.
type scanInfo struct {
	s        *algebra.Scan
	ds       *plugin.Dataset
	in       plugin.Input
	b        *binding
	bias     float64
	rows     int64
	morsel   *plugin.Morsel
	oc       *opCounters
	scanProf *plugin.ScanProf

	pluginFields []plugin.FieldReq
	cachedFields []cachedField
	buildReqs    []buildReq

	// zoneSkip (nil when no pushed predicate maps onto zone maps — a cached
	// column's, or the plug-in's own) reports whether a window of row
	// ordinals can be skipped wholesale. It is only safe to consult where no
	// builder observes the row stream (see scanSpec).
	zoneSkip func(lo, hi int64) bool
	// credit (nil likewise) notifies the cache manager at run time that the
	// scan's pushed predicates touched their columns again — the adaptive
	// index-selection signal.
	credit func()
}

// analyzeScan installs the scan's binding, allocates a slot per needed path,
// and decides each path's source (§5.2 + §6). It has compilation side
// effects (slots, binding registration, cache-builder dedup), so callers
// commit to compiling the scan once they call it.
func (c *Compiler) analyzeScan(s *algebra.Scan) (*scanInfo, error) {
	ds, in, err := c.env.Catalog.Dataset(s.Dataset)
	if err != nil {
		return nil, err
	}
	schema := in.Schema(ds)
	b := &binding{name: s.Binding, typ: schema, ds: ds, in: in, slots: map[string]vbuf.Slot{}}
	b.oidSlot = c.alloc.Int()
	b.hasOID = true
	c.bindings[s.Binding] = b
	c.envTypes[s.Binding] = schema

	caches := c.env.Caches
	si := &scanInfo{
		s:    s,
		ds:   ds,
		in:   in,
		b:    b,
		bias: in.FieldCost(),
		rows: in.Cardinality(ds),
		oc:   c.opCtr(s),
	}
	if si.oc != nil {
		si.scanProf = &si.oc.scan
	}

	paths := sortedKeys(c.needs[s.Binding])
	for _, p := range paths {
		var t types.Type = schema
		if p != "" {
			pt, err := typeOfPath(schema, splitPath(p))
			if err != nil {
				return nil, fmt.Errorf("scan %s: %w", s.Dataset, err)
			}
			t = pt
		}
		slot := c.alloc.ForType(t)
		b.slots[p] = slot
		if p == "" {
			// Whole-record reference: box via the plug-in.
			si.pluginFields = append(si.pluginFields, plugin.FieldReq{Path: nil, Slot: slot, Type: t})
			continue
		}
		if blk, ok := caches.Lookup(s.Dataset, p); ok && blk.Rows == si.rows {
			si.cachedFields = append(si.cachedFields, cachedField{path: p, block: blk, slot: slot})
			c.note("scan %s: field %s served from cache", s.Dataset, p)
			// Per-query attribution: a compile-time fact, counted once per
			// logical scan (clone 0 under parallelism, where every clone
			// resolves the same blocks).
			if c.prof != nil && (c.shared == nil || c.workerID == 0) {
				c.prof.cacheHits++
			}
			continue
		}
		si.pluginFields = append(si.pluginFields, plugin.FieldReq{Path: splitPath(p), Slot: slot, Type: t})
		if caches.ShouldCache(si.bias, t.Kind()) && !caches.Has(s.Dataset, p) {
			if c.cacheBuilding == nil {
				c.cacheBuilding = map[string]bool{}
			}
			if bk := s.Dataset + "\x00" + p; !c.cacheBuilding[bk] {
				c.cacheBuilding[bk] = true
				si.buildReqs = append(si.buildReqs, buildReq{key: p, kind: t.Kind(), slot: slot})
				c.note("scan %s: populating cache for field %s", s.Dataset, p)
			}
		}
	}

	// Morsel restriction: only the driving scan of a parallel compilation is
	// range-partitioned; every other scan runs in full in each worker (or
	// once, for shared join build sides).
	if c.driveScan != nil && s == c.driveScan {
		si.morsel = c.morsel
	}
	c.setupIndexHints(si)
	return si, nil
}

// finishScanBuilders hands off the cache blocks built during one scan pass.
// Under parallelism a morselized scan only produced a fragment — stash it
// for the coordinator to concatenate and register once all workers finish —
// and a full (non-driving) scan registers through the shared run so exactly
// one worker's block wins.
func (c *Compiler) finishScanBuilders(si *scanInfo, builders []*cachepg.Builder) {
	if len(builders) == 0 {
		return
	}
	caches := c.env.Caches
	t0 := time.Now()
	for _, bd := range builders {
		blk := bd.Finish()
		switch {
		case c.shared != nil && si.morsel != nil:
			c.shared.addFrag(c.workerID, blk)
		case c.shared != nil:
			c.shared.registerOnce(caches, blk)
		default:
			caches.Register(blk)
		}
	}
	d := int64(time.Since(t0))
	caches.AddBuildNanos(d)
	if si.oc != nil {
		si.oc.cacheBuildNanos += d
	}
}

// compileScan emits the scan driver for a dataset: the plug-in's generated
// access code, the cache-block fast path when every needed field is cached,
// the mixed path when some are, and the cache-population side-effect wiring
// (§5.2 + §6).
func (c *Compiler) compileScan(s *algebra.Scan, consume Kont) (func(r *vbuf.Regs) error, error) {
	si, err := c.analyzeScan(s)
	if err != nil {
		return nil, err
	}

	// Cache loaders read by row ordinal — the OID the scan produces.
	oid := si.b.oidSlot
	var rawLoaders []cachepg.Loader
	for _, cf := range si.cachedFields {
		ld, err := cachepg.CompileLoader(cf.block, cf.slot)
		if err != nil {
			return nil, err
		}
		rawLoaders = append(rawLoaders, ld)
	}

	if len(si.pluginFields) == 0 && len(si.cachedFields) > 0 {
		// Full cache hit: never touch the original dataset — the cache
		// plug-in drives the loop straight off the binary blocks. (No
		// builders can exist here: population only attaches to
		// plug-in-extracted fields.)
		c.note("scan %s: fully served from cache (%d fields)", s.Dataset, len(si.cachedFields))
		drv := cachepg.CompileScan(si.rows, rawLoaders, &si.b.oidSlot, si.morsel, si.scanProf, c.cancel, si.zoneSkip)
		credit := si.credit
		run := func(r *vbuf.Regs) error {
			if credit != nil {
				credit()
			}
			return drv(r, func() error { return consume(r) })
		}
		return c.profScanRun(s, run, morselRows(si.morsel, si.rows)), nil
	}

	inner := consume
	if len(rawLoaders) > 0 {
		next := inner
		lds := rawLoaders
		inner = func(r *vbuf.Regs) error {
			row := r.I[oid.Idx]
			for _, ld := range lds {
				ld(r, row)
			}
			return next(r)
		}
	}

	// Cache population wraps the consume *before* any filtering above, so
	// the block covers every record (the cache is a full column).
	var builders []*cachepg.Builder
	if len(si.buildReqs) > 0 {
		for _, br := range si.buildReqs {
			builders = append(builders, cachepg.NewBuilder(s.Dataset, br.key, br.kind, si.bias, br.slot, si.rows))
		}
		next := inner
		bds := builders
		inner = func(r *vbuf.Regs) error {
			for _, bd := range bds {
				bd.Append(r)
			}
			return next(r)
		}
	}

	pluginRun, err := si.in.CompileScan(si.ds, c.scanSpec(si, si.pluginFields))
	if err != nil {
		return nil, err
	}
	credit := si.credit
	run := func(r *vbuf.Regs) error {
		if credit != nil {
			credit()
		}
		for _, bd := range builders {
			bd.Reset()
		}
		if err := pluginRun(r, func() error { return inner(r) }); err != nil {
			return err
		}
		c.finishScanBuilders(si, builders)
		return nil
	}
	return c.profScanRun(s, run, morselRows(si.morsel, si.rows)), nil
}

// scanSpec is the plug-in request of a scan for the given fields. The
// zone-skip test rides along unless a cache builder must see every row.
func (c *Compiler) scanSpec(si *scanInfo, fields []plugin.FieldReq) plugin.ScanSpec {
	spec := plugin.ScanSpec{Fields: fields, OIDSlot: &si.b.oidSlot, Morsel: si.morsel, Prof: si.scanProf, Cancel: c.cancel}
	if len(si.buildReqs) == 0 {
		spec.Skip = si.zoneSkip
	}
	return spec
}

// morselRows returns the number of records a scan driver will emit: the
// morsel's clamped span, or the whole dataset when unrestricted.
func morselRows(m *plugin.Morsel, rows int64) int64 {
	lo, hi := int64(0), rows
	if m != nil {
		if lo = m.Start; lo < 0 {
			lo = 0
		}
		if hi = m.End; hi > rows {
			hi = rows
		}
	}
	if hi < lo {
		return 0
	}
	return hi - lo
}

// compileUnnest emits the element loop over a nested collection: lazily
// through the input plug-in when the collection's record is plug-in backed
// (JSON), or by iterating a boxed list value otherwise.
func (c *Compiler) compileUnnest(u *algebra.Unnest, consume Kont) (func(r *vbuf.Regs) error, error) {
	root, path, ok := expr.PathOf(u.Path)
	if !ok {
		return nil, fmt.Errorf("exec: unnest path %s is not a field path", u.Path)
	}

	// Element type.
	collType, err := expr.InferType(u.Path, u.Child.Bindings())
	if err != nil {
		return nil, fmt.Errorf("exec: unnest %s: %w", u.Path, err)
	}
	elemType := types.ElemType(collType)
	if elemType == nil {
		return nil, fmt.Errorf("exec: unnest %s: %s is not a collection", u.Path, collType)
	}

	return c.compileChildThen(u.Child, func() (Kont, error) {
		eb := &binding{name: u.Binding, typ: elemType, slots: map[string]vbuf.Slot{}}
		c.bindings[u.Binding] = eb
		c.envTypes[u.Binding] = elemType

		// Paths of the element needed above.
		elemPaths := sortedKeys(c.needs[u.Binding])

		parent := c.bindings[root]
		usePlugin := parent != nil && parent.ds != nil && c.lazyUnnest[root][pathKey(path)]

		if usePlugin {
			var elemFields []plugin.FieldReq
			var elemSlot *vbuf.Slot
			for _, p := range elemPaths {
				if p == "" {
					t := elemType
					slot := c.alloc.ForType(t)
					eb.slots[""] = slot
					elemSlot = &slot
					continue
				}
				pt, err := typeOfPathFrom(elemType, splitPath(p))
				if err != nil {
					return nil, fmt.Errorf("exec: unnest %s: %w", u.Path, err)
				}
				slot := c.alloc.ForType(pt)
				eb.slots[p] = slot
				elemFields = append(elemFields, plugin.FieldReq{Path: splitPath(p), Slot: slot, Type: pt})
			}
			if len(elemFields) == 0 && elemSlot == nil && elemType.Kind().IsScalar() {
				// Nothing above references the element (pure counting
				// unnest); a scalar element still gets a slot so the loop
				// has a destination.
				slot := c.alloc.ForType(elemType)
				eb.slots[""] = slot
				elemSlot = &slot
			}
			spec := plugin.UnnestSpec{
				OIDSlot:    parent.oidSlot,
				Path:       path,
				ElemFields: elemFields,
				ElemSlot:   elemSlot,
				ElemType:   elemType,
			}
			unnestRun, err := parent.in.CompileUnnest(parent.ds, spec)
			if err != nil {
				return nil, fmt.Errorf("exec: unnest %s: %w", u.Path, err)
			}
			c.note("unnest %s: lazy plug-in iteration over %s", u.Path, parent.ds.Name)

			inner, err := c.unnestConsume(u, consume)
			if err != nil {
				return nil, err
			}
			outer := u.Outer
			elemSlots := collectSlots(eb)
			return func(r *vbuf.Regs) error {
				matched := false
				err := unnestRun(r, func() error {
					matched = true
					return inner(r)
				})
				if err != nil {
					return err
				}
				if outer && !matched {
					for _, s := range elemSlots {
						r.Null[s.Null] = true
					}
					return consume(r)
				}
				return nil
			}, nil
		}

		// Value mode: the collection is materialized as a boxed list.
		collEval, err := c.compileVal(u.Path)
		if err != nil {
			return nil, fmt.Errorf("exec: unnest %s: %w", u.Path, err)
		}
		// The element is presented boxed; field accesses on it go through
		// the boxed path of the expression compiler.
		slot := c.alloc.Value()
		eb.slots[""] = slot
		c.note("unnest %s: boxed-list iteration", u.Path)

		inner, err := c.unnestConsume(u, consume)
		if err != nil {
			return nil, err
		}
		outer := u.Outer
		return func(r *vbuf.Regs) error {
			coll, ok := collEval(r)
			if !ok || len(coll.Elems) == 0 {
				if outer {
					r.Null[slot.Null] = true
					return consume(r)
				}
				return nil
			}
			for _, el := range coll.Elems {
				r.V[slot.Idx] = el
				r.Null[slot.Null] = false
				if err := inner(r); err != nil {
					return err
				}
			}
			return nil
		}, nil
	})
}

// unnestConsume wraps consume with the unnest's embedded filter, if any.
func (c *Compiler) unnestConsume(u *algebra.Unnest, consume Kont) (Kont, error) {
	if u.Pred == nil {
		return consume, nil
	}
	pred, err := c.compileBool(u.Pred)
	if err != nil {
		return nil, fmt.Errorf("exec: unnest filter %s: %w", u.Pred, err)
	}
	return func(r *vbuf.Regs) error {
		if v, ok := pred(r); ok && v {
			return consume(r)
		}
		return nil
	}, nil
}

func collectSlots(b *binding) []vbuf.Slot {
	out := make([]vbuf.Slot, 0, len(b.slots))
	for _, s := range b.slots {
		out = append(out, s)
	}
	return out
}
