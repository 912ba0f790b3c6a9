// Morsel-driven intra-query parallelism for the closure-compiled engine.
//
// CompileParallel partitions the plan's driving scan (its leftmost leaf)
// into morsels — contiguous record-ordinal ranges that the input plug-in
// derives from its structural index, byte-balanced for the raw formats —
// and compiles one full pipeline clone per worker. Each clone is an
// independent compilation: its own register-file layout (vbuf.Alloc), its
// own typed closures, and its own thread-local root state (accumulators,
// group tables, or row buffers). Workers therefore share no mutable state
// except the sharedRun rendezvous, which owns the two things that must
// happen exactly once per run: hash-join build sides (built by the first
// worker to arrive, then shared read-only) and cache population (per-morsel
// fragments concatenated and registered complete by the coordinator).
//
// Morsels are assigned statically, one contiguous range per worker in scan
// order. That makes the merged output deterministic and byte-identical to
// the serial program: concatenating bag rows in worker order reproduces the
// serial scan order, and merging group tables in worker order reproduces
// the serial first-encounter order. The one exception is float SUM/AVG,
// where merging per-morsel partial sums reassociates floating-point
// addition and can shift the last ULPs relative to serial; results remain
// deterministic for a fixed worker count.
package exec

import (
	"fmt"
	"sync"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/expr"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/vbuf"
)

// sharedJoin is the once-per-run rendezvous for one hash-join build side.
type sharedJoin struct {
	once sync.Once
	jt   *joinTable
	err  error
}

// sharedRun is the cross-worker state of one parallel execution. It is
// reset at the start of every Run of the parallel program.
type sharedRun struct {
	workers int

	mu    sync.Mutex
	joins map[string]*sharedJoin
	// frags collects per-morsel cache fragments: block key → one fragment
	// per worker, indexed by worker ID (i.e. morsel order).
	frags map[string][]*cache.Block
	// registered dedupes full-block registrations from non-driving scans
	// that every worker executes.
	registered map[string]bool
}

func newSharedRun(workers int) *sharedRun {
	sh := &sharedRun{workers: workers}
	sh.reset()
	return sh
}

func (sh *sharedRun) reset() {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.joins = map[string]*sharedJoin{}
	sh.frags = map[string][]*cache.Block{}
	sh.registered = map[string]bool{}
}

// joinFor returns the rendezvous for a build-side fingerprint, creating it
// on first use.
func (sh *sharedRun) joinFor(fp string) *sharedJoin {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sj, ok := sh.joins[fp]
	if !ok {
		sj = &sharedJoin{}
		sh.joins[fp] = sj
	}
	return sj
}

// addFrag stashes the cache fragment one worker's morsel produced.
func (sh *sharedRun) addFrag(worker int, blk *cache.Block) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	key := blk.Dataset + "\x00" + blk.Key
	fr := sh.frags[key]
	if fr == nil {
		fr = make([]*cache.Block, sh.workers)
		sh.frags[key] = fr
	}
	fr[worker] = blk
}

// registerOnce registers a complete block produced redundantly by every
// worker (a non-driving scan), letting exactly one copy through.
func (sh *sharedRun) registerOnce(m *cache.Manager, blk *cache.Block) {
	key := blk.Dataset + "\x00" + blk.Key
	sh.mu.Lock()
	if sh.registered[key] {
		sh.mu.Unlock()
		return
	}
	sh.registered[key] = true
	sh.mu.Unlock()
	m.Register(blk)
}

// finishCaches concatenates the per-morsel fragments into full columns and
// registers them — only when every worker contributed its fragment and the
// union covers the whole dataset, so a block is never registered complete
// unless it actually is.
func (sh *sharedRun) finishCaches(m *cache.Manager, totalRows int64) {
	sh.mu.Lock()
	defer sh.mu.Unlock()
	for _, parts := range sh.frags {
		var rows int64
		complete := true
		for _, p := range parts {
			if p == nil {
				complete = false
				break
			}
			rows += p.Rows
		}
		if !complete || rows != totalRows {
			continue
		}
		// ConcatBlocks validates the fragments and propagates Complete (all
		// builder fragments are finished, so the union is complete); nil means
		// the fragments were inconsistent and must not be registered.
		if blk := cache.ConcatBlocks(parts); blk != nil {
			m.Register(blk)
		}
	}
}

// drivingScan returns the plan's leftmost leaf scan — the pipeline's source
// operator, whose records every produced tuple descends from — or nil.
func drivingScan(n algebra.Node) *algebra.Scan {
	for n != nil {
		if s, ok := n.(*algebra.Scan); ok {
			return s
		}
		ch := n.Children()
		if len(ch) == 0 {
			return nil
		}
		n = ch[0]
	}
	return nil
}

// workerUnit is one compiled pipeline clone: a driver that runs the plan's
// scan → … → pipeline-breaker chain over the compiler's morsel (the whole
// scan when it has none) and the thread-local root state the driver folds
// into. It is the one unit every execution style is assembled from: the
// serial program holds one, CompileParallel one per morsel, a remote
// fragment one restricted to its morsel range, and the gather merge one
// whose driver is never run.
type workerUnit struct {
	alloc vbuf.Alloc
	run   func(r *vbuf.Regs) error
	state partialState
	// Compile-time facts of this clone (see Program's fields of the same names).
	explain            []string
	vectorized, sorted bool
}

// compileUnit compiles plan into one worker unit. The receiver carries only
// the compilation context — env, and for morsel clones driveScan, morsel,
// shared, workerID, prof, cancel and mem; everything else is set up here.
// The root operator picks its state: Reduce and Nest try their batch kernels
// first and fall back to the tuple closures where the pipeline below is not
// batch-capable (a static property of plan, catalog and Env.Vectorize), so
// every clone of one plan under one Env makes the same choice.
func (c *Compiler) compileUnit(plan algebra.Node) (*workerUnit, error) {
	c.bindings = map[string]*binding{}
	c.envTypes = expr.Env{}
	// Seed the type environment with every binding the plan introduces so
	// expression compilation can infer types anywhere in the tree.
	algebra.Walk(plan, func(n algebra.Node) bool {
		for name, t := range n.Bindings() {
			if _, exists := c.envTypes[name]; !exists {
				c.envTypes[name] = t
			}
		}
		return true
	})
	c.analyze(plan)

	var run func(r *vbuf.Regs) error
	var st partialState
	var err error
	switch root := plan.(type) {
	case *algebra.Reduce:
		run, st, err = c.compileReducePartial(root)
	case *algebra.Nest:
		run, st, err = c.compileNestPartial(root)
	default:
		// A bare plan (no Reduce/Nest root) yields its tuples as records of
		// all visible bindings — used by tests and EXPLAIN-style tooling.
		run, st, err = c.compileBarePartial(plan)
	}
	if err != nil {
		return nil, err
	}
	return &workerUnit{
		alloc: c.alloc, run: run, state: st,
		explain: c.explain, vectorized: c.vectorized, sorted: c.sorted,
	}, nil
}

// exec re-arms the unit's state and drives its pipeline to the breaker over
// a fresh register file.
func (u *workerUnit) exec() error {
	u.state.reset()
	return u.run(vbuf.NewRegs(&u.alloc))
}

// newMemGauge returns the accountant for a budget, nil (accounting compiled
// out) when there is none.
func newMemGauge(budget int64) *memGauge {
	if budget <= 0 {
		return nil
	}
	return &memGauge{budget: budget}
}

// CompileParallel compiles plan into a morsel-parallel program over at most
// `workers` pipeline clones. It falls back to the serial Compile when the
// plan cannot be partitioned: a single worker, no driving scan, a plug-in
// without the Partitioner capability, or fewer than two morsels. The
// returned Program behaves exactly like a serial one (including WrapResult
// post-processing for ORDER BY / LIMIT), so callers need not care which
// they got.
func CompileParallel(plan algebra.Node, env *Env, workers int) (*Program, error) {
	if workers <= 1 {
		return Compile(plan, env)
	}
	drive := drivingScan(plan)
	if drive == nil {
		return Compile(plan, env)
	}
	ds, in, err := env.Catalog.Dataset(drive.Dataset)
	if err != nil {
		return nil, err
	}
	part, ok := in.(plugin.Partitioner)
	if !ok {
		return Compile(plan, env)
	}
	morsels, err := part.PartitionScan(ds, workers)
	if err != nil {
		return nil, err
	}
	if len(morsels) < 2 {
		return Compile(plan, env)
	}
	totalRows := in.Cardinality(ds)

	sh := newSharedRun(len(morsels))
	units := make([]*workerUnit, len(morsels))
	// All clones share one cancellation token and one memory gauge: a signal
	// from any worker (or the context) stops every sibling's scan driver, and
	// charges from all clones count against the same budget.
	cancel := &plugin.Cancel{}
	gauge := newMemGauge(env.MemBudget)
	// All pipeline clones share one profiling state; each writes the cells
	// indexed by its worker ID.
	var prof *progProf
	if env.Profile != nil {
		prof = newProgProf(plan, env.Profile, len(morsels))
	}
	var vectorized, sorted bool
	for i := range morsels {
		c := &Compiler{
			env: env, driveScan: drive, morsel: &morsels[i], shared: sh,
			workerID: i, prof: prof, cancel: cancel, mem: gauge,
		}
		if units[i], err = c.compileUnit(plan); err != nil {
			return nil, err
		}
		vectorized = vectorized || units[i].vectorized
		sorted = sorted || units[i].sorted
	}
	explain := units[0].explain
	explain = append(explain,
		fmt.Sprintf("parallel: %d workers over %s (%d morsels)", len(morsels), drive.Dataset, len(morsels)))

	caches := env.Caches
	met := env.Metrics
	fingerprint := plan.Fingerprint()
	run := func(_ *vbuf.Regs) (*Result, error) {
		sh.reset()
		if met != nil {
			met.WorkersLaunched.Add(int64(len(units)))
			met.MorselsScanned.Add(int64(len(morsels)))
			met.ActiveWorkers.Add(int64(len(units)))
			defer met.ActiveWorkers.Add(-int64(len(units)))
		}
		var spans []obs.Span
		if prof != nil {
			spans = make([]obs.Span, len(units))
		}
		var wg sync.WaitGroup
		errs := make([]error, len(units))
		for i, u := range units {
			wg.Add(1)
			go func(i int, u *workerUnit) {
				defer wg.Done()
				// Per-worker panic barrier: a panicking goroutine would kill
				// the whole process before the query-boundary recover could
				// see it, so each clone converts its own panics — and signals
				// the shared token so sibling scans abort instead of running
				// their morsels to completion.
				defer func() {
					if rec := recover(); rec != nil {
						errs[i] = newPanicError(fingerprint, rec)
						cancel.Signal(errs[i])
					}
				}()
				t0 := time.Now()
				if errs[i] = u.exec(); errs[i] != nil {
					cancel.Signal(errs[i])
				}
				if spans != nil {
					spans[i] = obs.Span{
						Name:  fmt.Sprintf("worker %d (rows %d..%d)", i, morsels[i].Start, morsels[i].End),
						Start: t0,
						Dur:   time.Since(t0),
					}
				}
			}(i, u)
		}
		wg.Wait()
		if prof != nil {
			// When morsel events were sampled, hang each worker's event spans
			// under its execute span for trace export.
			if prof.events {
				for i := range spans {
					spans[i].Children = prof.eventsOf(i)
				}
			}
			prof.workerSpans = spans
		}
		// Prefer a panic over the derived errors siblings return after the
		// token fires, so the caller sees the root cause.
		var firstErr error
		for _, e := range errs {
			if e == nil {
				continue
			}
			if _, isPanic := e.(*PanicError); isPanic {
				firstErr = e
				break
			}
			if firstErr == nil {
				firstErr = e
			}
		}
		if firstErr != nil {
			return nil, firstErr
		}
		// Pipeline breaker: merge the thread-local partials in worker
		// (= morsel, = scan) order.
		merged := units[0].state
		for _, u := range units[1:] {
			if err := merged.merge(u.state); err != nil {
				return nil, err
			}
		}
		// All workers succeeded: cache fragments now tile the dataset, so
		// the concatenated blocks can be registered, complete, exactly once.
		tC := time.Now()
		sh.finishCaches(caches, totalRows)
		caches.AddBuildNanos(int64(time.Since(tC)))
		return merged.result()
	}
	p := &Program{
		alloc: units[0].alloc, run: run, Explain: explain,
		Workers: len(units), Morsels: len(morsels),
		Fingerprint: fingerprint, cancel: cancel, mem: gauge,
		Vectorized: vectorized, Sorted: sorted,
	}
	p.attachProf(prof)
	return p, nil
}
