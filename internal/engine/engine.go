// Package engine wires the full Proteus architecture together (Figure 2):
// the catalog of registered datasets and their input plug-ins, the query
// life-cycle (parse → calculus → nested relational algebra → optimize →
// cache-match → compile → run), the Memory and Caching Managers, and the
// statistics store.
package engine

import (
	"context"
	"errors"
	"fmt"
	"io"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/calculus"
	"proteus/internal/cluster"
	"proteus/internal/comp"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/optimizer"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/plugin/csvpg"
	"proteus/internal/plugin/jsonpg"
	"proteus/internal/sql"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
)

// Config tunes an Engine.
type Config struct {
	// CacheEnabled turns adaptive caching on (§6).
	CacheEnabled bool
	// CacheBudget bounds the cache arena in bytes (0 = unlimited).
	CacheBudget int64
	// CacheStrings overrides the default don't-cache-strings policy.
	CacheStrings bool
	// Indexes selects the bitmap-index policy for cached columns:
	// cache.IndexAuto (default) builds indexes on columns that repeated
	// selective predicates mark as hot, cache.IndexOn indexes every
	// predicate-touched cached column immediately, cache.IndexOff disables
	// bitmap indexes (zone maps are always built — they are 21 bytes per
	// 1024 rows).
	Indexes cache.IndexMode
	// SampleEvery is the statistics sampling stride during cold access
	// (default 64; negative disables cold-access statistics gathering).
	SampleEvery int
	// Parallelism is the number of morsel-parallel workers per query
	// (0 = GOMAXPROCS; 1 forces serial execution). Each worker gets its own
	// compiled pipeline clone over one contiguous morsel of the driving
	// scan; plans whose driving plug-in cannot partition fall back to
	// serial automatically.
	Parallelism int
	// Observability turns per-query lifecycle tracing and operator row
	// counting on for every query (see DESIGN.md, Observability). Engine
	// metrics and EXPLAIN ANALYZE work regardless of this flag; it controls
	// only whether ordinary queries record profiles into the ring. Traced
	// programs are plan-cached under their own key, so a repeated statement
	// skips parse..compile either way.
	Observability bool
	// ProfileRingSize bounds how many recent query profiles are retained
	// (default 32; values below 1 retain only the most recent profile).
	ProfileRingSize int
	// OnQueryDone, when set, is invoked synchronously with every finished
	// query's profile — the structured slow-query-log hook. It runs on the
	// query's goroutine; keep it cheap or hand off.
	OnQueryDone func(obs.QueryProfile)
	// SlowQueryThreshold, when positive, records every query whose
	// end-to-end time reaches it into the slow-query log (surfaced at
	// /debug/slow and Engine.SlowQueries). Setting it traces every query even
	// when Observability is off, so slow queries always carry their full
	// profile; traced programs hit the plan cache like untraced ones. 0
	// disables the log.
	SlowQueryThreshold time.Duration
	// SlowQueryLogSize bounds the retained slow-query records (default 128).
	SlowQueryLogSize int
	// SlowQueryWriter, when set, additionally receives every slow-query
	// record as one JSON line (the production log sink).
	SlowQueryWriter io.Writer
	// TraceMorsels samples per-morsel event spans into observed query
	// profiles for trace export: every Nth observed query records one span
	// per scan-driver invocation (0 = off, the default — EXPLAIN ANALYZE
	// runs always record events).
	TraceMorsels int
	// PlanFeedbackSize bounds the per-plan-fingerprint feedback store —
	// executions, latency mean/stddev, per-phase means — in tracked plans
	// (0 = default 256; negative disables the store). The store is read-only
	// telemetry: no execution decision consults it.
	PlanFeedbackSize int
	// QueryTimeout bounds each query's wall time, covering the whole
	// life-cycle from parse through execute (0 = no timeout). Expired
	// queries return context.DeadlineExceeded.
	QueryTimeout time.Duration
	// QueryMemBudget bounds the bytes a single query may pin in operator
	// state — hash-join build sides, aggregation tables, ORDER BY buffers
	// (0 = unlimited). Exceeding it fails the query with exec.ErrMemBudget;
	// the engine and its caches stay usable.
	QueryMemBudget int64
	// MaxConcurrentQueries gates admission: queries beyond the limit wait
	// until a slot frees or their context is cancelled (0 = unlimited).
	MaxConcurrentQueries int
	// Vectorized selects the execution mode for eligible pipeline segments
	// (scan→filter chains over scalar columns feeding an aggregate):
	// exec.VecAuto (default) applies the compiler's static heuristic —
	// batch kernels for scans with a native batch producer over at least two
	// batches — so the mode is a deterministic function of plan, catalog and
	// config, never of run history; exec.VecOn forces batch kernels wherever
	// eligible, exec.VecOff forces the tuple-at-a-time path everywhere.
	Vectorized exec.VecMode
	// PlanCacheSize bounds the compiled-plan cache in entries (0 = default
	// 64; negative disables plan caching entirely).
	PlanCacheSize int
	// Cluster, when set, makes this engine a scatter/gather coordinator:
	// eligible plans (partitionable driving scan, ≥ 2 worker morsels) are
	// distributed across the coordinator's workers and merged through the
	// same discipline the in-process parallel path uses; ineligible plans
	// and worker plan-fingerprint divergence fall back to local execution
	// transparently.
	Cluster *cluster.Coordinator
}

// Engine is a Proteus instance: a catalog plus the managers every query
// compilation consults.
type Engine struct {
	mu          sync.Mutex
	mem         *storage.Manager
	stats       *stats.Store
	caches      *cache.Manager
	registry    *plugin.Registry
	env         *plugin.Env
	datasets    map[string]*plugin.Dataset
	parallelism int
	vectorize   exec.VecMode
	cluster     *cluster.Coordinator

	// Compiled-plan cache: every query's lookup stage consults it before
	// re-running the front end. planEpoch advances on every catalog mutation
	// (register, drop, plug-in registration) so cached programs compiled
	// against a stale catalog are invalidated; cache-content changes are
	// tracked separately through the cache manager's own epoch.
	plans     *planCache
	planEpoch atomic.Uint64

	// Robustness knobs (see Config).
	timeout   time.Duration
	memBudget int64
	admit     chan struct{} // nil = unlimited concurrency

	// Drain state (see Close): lcMu guards closed and inflight; drained is
	// closed exactly once, when the engine is closed and the last in-flight
	// query has finished.
	lcMu     sync.Mutex
	closed   bool
	inflight int
	drained  chan struct{}

	// Observability state. metrics and profiles are always allocated so
	// Metrics() and the HTTP handler work even when per-query profiling is
	// off; obsEnabled only gates whether ordinary queries trace themselves.
	obsEnabled bool
	metrics    *obs.Metrics
	profiles   *obs.Ring
	onDone     func(obs.QueryProfile)
	queryID    atomic.Int64

	// Observability v2 state. slowlog is nil unless SlowQueryThreshold is
	// set; feedback is nil when PlanFeedbackSize is negative; traceMorsels
	// samples morsel events on every Nth observed query via obsSeq.
	slowlog      *obs.SlowLog
	feedback     *obs.PlanFeedback
	traceMorsels int
	obsSeq       atomic.Int64
}

// New creates an engine with the standard plug-ins registered (CSV, JSON,
// binary).
func New(cfg Config) *Engine {
	if cfg.SampleEvery == 0 {
		cfg.SampleEvery = 64
	}
	if cfg.SampleEvery < 0 {
		cfg.SampleEvery = 0 // explicit opt-out of cold-access sampling
	}
	mem := storage.NewManager(cfg.CacheBudget)
	st := stats.NewStore()
	cm := cache.NewManager(mem, cfg.CacheEnabled)
	cm.CacheStrings = cfg.CacheStrings
	cm.Indexes = cfg.Indexes
	reg := plugin.NewRegistry()
	reg.Register(csvpg.New())
	reg.Register(jsonpg.New())
	reg.Register(binpg.New())
	par := cfg.Parallelism
	if par <= 0 {
		par = runtime.GOMAXPROCS(0)
	}
	ringSize := cfg.ProfileRingSize
	if ringSize == 0 {
		ringSize = 32
	}
	if ringSize < 0 {
		ringSize = 0
	}
	var slowlog *obs.SlowLog
	if cfg.SlowQueryThreshold > 0 {
		logSize := cfg.SlowQueryLogSize
		if logSize == 0 {
			logSize = 128
		}
		slowlog = obs.NewSlowLog(cfg.SlowQueryThreshold, logSize, cfg.SlowQueryWriter)
	}
	var feedback *obs.PlanFeedback
	if cfg.PlanFeedbackSize >= 0 {
		feedback = obs.NewPlanFeedback(cfg.PlanFeedbackSize)
	}
	var admit chan struct{}
	if cfg.MaxConcurrentQueries > 0 {
		admit = make(chan struct{}, cfg.MaxConcurrentQueries)
	}
	planCap := cfg.PlanCacheSize
	if planCap == 0 {
		planCap = 64
	}
	var plans *planCache
	if planCap > 0 {
		plans = newPlanCache(planCap)
	}
	return &Engine{
		mem:          mem,
		drained:      make(chan struct{}),
		stats:        st,
		caches:       cm,
		registry:     reg,
		env:          &plugin.Env{Mem: mem, Stats: st, SampleEvery: cfg.SampleEvery},
		datasets:     map[string]*plugin.Dataset{},
		parallelism:  par,
		vectorize:    cfg.Vectorized,
		cluster:      cfg.Cluster,
		plans:        plans,
		timeout:      cfg.QueryTimeout,
		memBudget:    cfg.QueryMemBudget,
		admit:        admit,
		obsEnabled:   cfg.Observability,
		metrics:      &obs.Metrics{},
		profiles:     obs.NewRing(ringSize),
		onDone:       cfg.OnQueryDone,
		slowlog:      slowlog,
		feedback:     feedback,
		traceMorsels: cfg.TraceMorsels,
	}
}

// Mem exposes the memory manager (data generators write synthetic files
// through it).
func (e *Engine) Mem() *storage.Manager { return e.mem }

// Caches exposes the caching manager (experiments toggle and inspect it).
func (e *Engine) Caches() *cache.Manager { return e.caches }

// Stats exposes the statistics store.
func (e *Engine) Stats() *stats.Store { return e.stats }

// RegisterPlugin adds a custom input plug-in (§5.2 "Adding More Inputs").
func (e *Engine) RegisterPlugin(in plugin.Input) {
	e.registry.Register(in)
	e.planEpoch.Add(1)
}

// Register adds a dataset to the catalog and opens it through its format's
// plug-in (building structural indexes and gathering cold statistics).
func (e *Engine) Register(name, path, format string, schema *types.RecordType, opts plugin.Options) error {
	in, err := e.registry.For(format)
	if err != nil {
		return err
	}
	ds := &plugin.Dataset{Name: name, Path: path, Format: format, Schema: schema, Opts: opts}
	if err := in.Open(e.env, ds); err != nil {
		return fmt.Errorf("engine: opening %s: %w", name, err)
	}
	e.mu.Lock()
	e.datasets[name] = ds
	e.mu.Unlock()
	e.planEpoch.Add(1)
	return nil
}

// Drop removes a dataset and every cache derived from it (the paper's
// answer to updates: drop and rebuild affected auxiliary structures).
func (e *Engine) Drop(name string) {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	delete(e.datasets, name)
	e.mu.Unlock()
	if ok {
		e.caches.Drop(name)
		e.mem.Release(ds.Path)
	}
	e.planEpoch.Add(1)
}

// Dataset implements exec.Catalog.
func (e *Engine) Dataset(name string) (*plugin.Dataset, plugin.Input, error) {
	e.mu.Lock()
	ds, ok := e.datasets[name]
	e.mu.Unlock()
	if !ok {
		return nil, nil, fmt.Errorf("engine: unknown dataset %q", name)
	}
	in, err := e.registry.For(ds.Format)
	if err != nil {
		return nil, nil, err
	}
	return ds, in, nil
}

// SchemaOf implements calculus.Catalog.
func (e *Engine) SchemaOf(name string) (*types.RecordType, bool) {
	ds, in, err := e.Dataset(name)
	if err != nil {
		return nil, false
	}
	return in.Schema(ds), true
}

// Rows implements optimizer.CostSource.
func (e *Engine) Rows(name string) int64 {
	ds, in, err := e.Dataset(name)
	if err != nil {
		return 0
	}
	return in.Cardinality(ds)
}

// FieldCost implements optimizer.CostSource.
func (e *Engine) FieldCost(name string) float64 {
	_, in, err := e.Dataset(name)
	if err != nil {
		return 1
	}
	return in.FieldCost()
}

// Prepared is a compiled query: plan + specialized program.
type Prepared struct {
	Plan    algebra.Node
	Program *exec.Program
	// Sort is the statement's ORDER BY / LIMIT (nil when absent). The local
	// Program already applies it (absorbed or wrapped); the cluster path
	// re-applies it over the gathered merge, which is always unsorted.
	Sort *exec.SortSpec
}

// Explain renders the optimized plan and the compilation decisions.
func (p *Prepared) Explain() string {
	out := algebra.Format(p.Plan)
	for _, note := range p.Program.Explain {
		out += "-- " + note + "\n"
	}
	return out
}

// PrepareSQL compiles a SQL statement without running it.
func (e *Engine) PrepareSQL(query string) (*Prepared, error) {
	return e.prepare(context.Background(), LangSQL, query, profOff, nil)
}

// PrepareComp compiles a comprehension without running it.
func (e *Engine) PrepareComp(query string) (*Prepared, error) {
	return e.prepare(context.Background(), LangComp, query, profOff, nil)
}

// QuerySQL parses, optimizes, compiles, and runs a SQL statement.
func (e *Engine) QuerySQL(query string) (*exec.Result, error) {
	return e.query(context.Background(), LangSQL, query)
}

// QueryComp parses, optimizes, compiles, and runs a comprehension.
func (e *Engine) QueryComp(query string) (*exec.Result, error) {
	return e.query(context.Background(), LangComp, query)
}

// QuerySQLContext runs a SQL statement under the caller's context: the
// query aborts cooperatively — between pipeline vectors, scan strides, and
// life-cycle phases — when ctx is cancelled or its deadline passes.
func (e *Engine) QuerySQLContext(ctx context.Context, query string) (*exec.Result, error) {
	return e.query(ctx, LangSQL, query)
}

// QueryCompContext is QuerySQLContext for comprehension queries.
func (e *Engine) QueryCompContext(ctx context.Context, query string) (*exec.Result, error) {
	return e.query(ctx, LangComp, query)
}

// query runs an ordinary statement for a library caller: QueryStream's
// result, boxed.
func (e *Engine) query(ctx context.Context, lang, text string) (*exec.Result, error) {
	res, err := e.QueryStream(ctx, lang, text)
	return res.Box(), err
}

// QueryStream runs an ordinary statement in language lang (LangSQL or
// LangComp) — traced when observability or the slow-query log needs its
// profile, untraced otherwise — and returns a columnar collect's result
// unboxed, for the query service to encode straight from its typed columns
// (exec.Result.StreamChunks). Every other entry point returns boxed rows.
func (e *Engine) QueryStream(ctx context.Context, lang, text string) (*exec.Result, error) {
	level := profOff
	if e.obsEnabled || e.slowlog != nil {
		level = e.observedLevel()
	}
	res, _, err := e.runQuery(ctx, lang, text, level)
	return res, err
}

// boxedQuery is runQuery for the entry points that hand back a profile:
// their callers always get boxed rows.
func (e *Engine) boxedQuery(ctx context.Context, lang, query string, level profLevel) (*exec.Result, *obs.QueryProfile, error) {
	res, qp, err := e.runQuery(ctx, lang, query, level)
	return res.Box(), qp, err
}

// profLevel is how much instrumentation a query's program is compiled with.
// It is part of the plan-cache key: a profiled program is a different
// compilation, so every level caches its own.
type profLevel uint8

const (
	profOff     profLevel = iota // the exact unprofiled program; no profile is built
	profCounted                  // per-operator row and batch counters
	profEvents                   // counters plus per-morsel event spans
	profTimed                    // EXPLAIN ANALYZE: counters, events, per-operator wall time
)

// spec is the compile-time profiling request for the level (nil: none).
func (l profLevel) spec() *exec.ProfileSpec {
	if l == profOff {
		return nil
	}
	return &exec.ProfileSpec{Timing: l == profTimed, Events: l >= profEvents}
}

// observedLevel is the level of a traced, non-EXPLAIN query: counters, plus
// morsel events on every TraceMorsels-th one, so the default traced path
// pays none of the event cost.
func (e *Engine) observedLevel() profLevel {
	if e.traceMorsels > 0 && e.obsSeq.Add(1)%int64(e.traceMorsels) == 0 {
		return profEvents
	}
	return profCounted
}

// runQuery is the one pipeline every statement takes — plain, observed,
// EXPLAIN ANALYZE and coordinator queries alike:
//
//	enter → lookup (plan cache, keyed by lang, text and level; on a miss
//	parse + prepare) → execute (cluster or local) → finish
//
// At profOff no profile is built and the pipeline allocates nothing the
// query itself does not need; otherwise the returned profile is always
// present, even on error.
func (e *Engine) runQuery(ctx context.Context, lang, query string, level profLevel) (*exec.Result, *obs.QueryProfile, error) {
	ctx, cancel, err := e.enter(ctx, query)
	if err != nil {
		return nil, nil, err
	}
	defer e.leave(cancel)
	e.metrics.ActiveQueries.Add(1)
	defer e.metrics.ActiveQueries.Add(-1)

	start := time.Now()
	var qp *obs.QueryProfile
	if level != profOff {
		qp = &obs.QueryProfile{
			ID: e.queryID.Add(1), Lang: lang, Query: query, Tag: QueryTag(ctx),
			Start: start, Workers: 1, Morsels: 1, Timed: level == profTimed,
		}
	}
	p, en, err := e.lookup(ctx, lang, query, level, qp)
	// The entry stays locked until snapshot has read the program's counters:
	// the next run of the same entry resets them.
	defer en.release()
	var res *exec.Result
	if err == nil {
		var frag []obs.Span
		var scattered bool
		end := phase(qp, obs.PhaseExecute)
		res, frag, scattered, err = e.execute(ctx, lang, query, p)
		end()
		if qp != nil {
			snapshot(qp, p.Program, res, frag, scattered)
		}
	}
	if err = e.finish(qp, start, query, p, res, err); err != nil {
		return nil, qp, err
	}
	return res, qp, nil
}

// lookup is the plan-cache stage (plancache.go). A text hit returns the
// program of the statement's shape with the text's binding installed. Else
// the front end runs — unless the text is known, and only its shape's
// programs are busy or evicted — and a shape hit binds the text's literals
// into an idle program of its shape; only a miss compiles. Both hits mark a
// traced profile PlanCached; a shape hit records its bind as the compile
// phase. The returned program (nil without a plan cache) is locked until
// the caller releases it.
func (e *Engine) lookup(ctx context.Context, lang, query string, level profLevel, qp *obs.QueryProfile) (*Prepared, *pooledProg, error) {
	if e.plans == nil {
		p, err := e.prepare(ctx, lang, query, level, qp)
		return p, nil, err
	}
	// Both epochs are captured before planning on purpose: a run that itself
	// registers cache blocks stores its entries stamped with the pre-run
	// cache epoch, so the next identical query misses and recompiles into a
	// cache-aware plan instead of replaying the cold path forever.
	pc := e.plans
	key := planKey(lang, query, level)
	catalogEpoch, cacheEpoch := e.planEpoch.Load(), e.caches.Epoch()
	te, pp, why := pc.lookupText(key, catalogEpoch, cacheEpoch)
	if pp != nil {
		e.metrics.CountPlanHit(false)
		if qp != nil {
			qp.PlanCached = true
		}
		return &pp.prep, pp, nil
	}
	var plan algebra.Node
	var sortSpec *exec.SortSpec
	var skey string
	if te != nil {
		plan, sortSpec, skey = te.plan, te.sort, te.shape.key
	} else {
		c, err := e.parse(lang, query, qp)
		if err != nil {
			return nil, nil, err
		}
		if plan, err = e.planFor(ctx, c, qp); err != nil {
			return nil, nil, err
		}
		sortSpec = sortSpecOf(c)
		skey = shapeKey(plan, exec.ParamsOf(plan), sortSpec, level)
		textWhy := why
		var sh *shapeEntry
		if pp, sh, why = pc.lookupShape(skey, catalogEpoch, cacheEpoch); pp != nil {
			end := phase(qp, obs.PhaseCompile)
			bd, err := pp.prep.Program.Bind(plan, level.estimates(plan, e))
			end()
			if err == nil {
				e.metrics.CountPlanHit(true)
				if qp != nil {
					qp.PlanCached = true
				}
				pp.prep.Plan, pp.prep.Sort = plan, sortSpec
				pc.storeText(key, &textEntry{shape: sh, plan: plan, sort: sortSpec, binding: bd, catalogEpoch: catalogEpoch, cacheEpoch: cacheEpoch})
				return &pp.prep, pp, nil
			}
			// A shape-key collision between different plans: compile.
			pp.release()
			why = obs.PlanMissCold
		}
		if textWhy == obs.PlanMissEpoch && why != obs.PlanMissBusy {
			why = textWhy // the text's own entry went stale first
		}
	}
	e.metrics.CountPlanMiss(why)
	prog, err := e.compile(ctx, plan, sortSpec, level, qp)
	if err != nil {
		return nil, nil, err
	}
	pp, sh := pc.storeProgram(skey, prog, catalogEpoch, cacheEpoch)
	pp.prep.Plan, pp.prep.Sort = plan, sortSpec
	pc.storeText(key, &textEntry{shape: sh, plan: plan, sort: sortSpec, binding: prog.Binding(), catalogEpoch: catalogEpoch, cacheEpoch: cacheEpoch})
	return &pp.prep, pp, nil
}

// ctxErr reports a done context as its cancellation cause (Canceled,
// DeadlineExceeded, or whatever the caller supplied), nil otherwise.
func ctxErr(ctx context.Context) error {
	if ctx.Err() != nil {
		return context.Cause(ctx)
	}
	return nil
}

// prepare is the uncached path: parse, the front half shared with
// fragments (planFor), then compile at the requested level.
func (e *Engine) prepare(ctx context.Context, lang, query string, level profLevel, qp *obs.QueryProfile) (*Prepared, error) {
	c, err := e.parse(lang, query, qp)
	if err != nil {
		return nil, err
	}
	plan, err := e.planFor(ctx, c, qp)
	if err != nil {
		return nil, err
	}
	sortSpec := sortSpecOf(c)
	prog, err := e.compile(ctx, plan, sortSpec, level, qp)
	if err != nil {
		return nil, err
	}
	return &Prepared{Plan: plan, Program: prog, Sort: sortSpec}, nil
}

// parse runs the statement through its language's parser, traced into qp
// when it is non-nil.
func (e *Engine) parse(lang, query string, qp *obs.QueryProfile) (*calculus.Comprehension, error) {
	end := phase(qp, obs.PhaseParse)
	defer end()
	if lang == LangSQL {
		return sql.Parse(query)
	}
	return comp.Parse(query)
}

// estimates returns the optimizer's cardinality estimate per plan node for
// a profiled level, so EXPLAIN ANALYZE can print estimated vs. actual rows;
// nil at profOff.
func (l profLevel) estimates(plan algebra.Node, e *Engine) map[algebra.Node]float64 {
	if l == profOff {
		return nil
	}
	est := map[algebra.Node]float64{}
	optEnv := &optimizer.Env{Stats: e.stats, Costs: e}
	algebra.Walk(plan, func(n algebra.Node) bool {
		est[n] = optimizer.EstimateCard(n, optEnv)
		return true
	})
	return est
}

// compile is the miss path's back half: compile the optimized plan at the
// requested level — profOff compiles the exact unprofiled program — and
// wrap it with the statement's ORDER BY / LIMIT unless it absorbed them.
func (e *Engine) compile(ctx context.Context, plan algebra.Node, sortSpec *exec.SortSpec, level profLevel, qp *obs.QueryProfile) (*exec.Program, error) {
	spec := level.spec()
	if spec != nil {
		spec.Estimates = level.estimates(plan, e)
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	end := phase(qp, obs.PhaseCompile)
	prog, err := exec.CompileParallel(plan, e.execEnv(spec, sortSpec), e.parallelism)
	end()
	if err != nil {
		return nil, err
	}
	mode := "tuple"
	if prog.Vectorized {
		mode = "vectorized"
	}
	prog.Explain = append(prog.Explain, "mode: "+mode)
	if sortSpec != nil && !prog.Sorted {
		orderBy, desc, limit := sortSpec.By, sortSpec.Desc, sortSpec.Limit
		prog.WrapResult(func(res *exec.Result) (*exec.Result, error) {
			// The sort buffer holds every materialized row; charge it
			// against the query's memory budget before sorting.
			if err := prog.ChargeMem(64 * int64(res.Len())); err != nil {
				return nil, err
			}
			return orderAndLimit(res, orderBy, desc, limit)
		})
	}
	return prog, nil
}

// planFor is the front half of the pipeline — calculus → optimize — shared
// by prepare and by fragments, which need only the optimized plan. The
// context is checked between phases so a cancelled or timed-out query stops
// before paying for the next one.
func (e *Engine) planFor(ctx context.Context, c *calculus.Comprehension, qp *obs.QueryProfile) (algebra.Node, error) {
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	end := phase(qp, obs.PhaseCalculus)
	err := calculus.ResolveColumns(c, e)
	var plan algebra.Node
	if err == nil {
		plan, err = calculus.Translate(calculus.Normalize(c), e)
	}
	end()
	if err != nil {
		return nil, err
	}
	if err := ctxErr(ctx); err != nil {
		return nil, err
	}
	end = phase(qp, obs.PhaseOptimize)
	plan = optimizer.Optimize(plan, &optimizer.Env{Stats: e.stats, Costs: e})
	end()
	return plan, nil
}

// execEnv is the compile environment of every program this engine builds:
// the configured execution mode — VecAuto is the compiler's static
// heuristic, a deterministic function of plan, catalog and config — the
// memory budget and metrics, plus the per-compile profile and sort requests.
func (e *Engine) execEnv(spec *exec.ProfileSpec, sortSpec *exec.SortSpec) *exec.Env {
	return &exec.Env{
		Catalog: e, Caches: e.caches, Stats: e.stats, Metrics: e.metrics, MemBudget: e.memBudget,
		Vectorize: e.vectorize, Profile: spec, Sort: sortSpec,
	}
}

// execute is the run stage: distributed when this engine coordinates a
// cluster and the coordinator takes the plan (scattered=true), the local
// program otherwise. A scattered result gets the statement's ORDER BY /
// LIMIT applied here — the post-processing a local unsorted program
// receives — because the gathered merge is always unsorted.
func (e *Engine) execute(ctx context.Context, lang, query string, p *Prepared) (res *exec.Result, frag []obs.Span, scattered bool, err error) {
	if e.cluster != nil {
		res, frag, scattered, err = e.cluster.Execute(ctx, e.execEnv(nil, nil), lang, query, p.Plan, QueryTag(ctx))
		if scattered {
			if err == nil && p.Sort != nil {
				fragments := res.Fragments
				if res, err = orderAndLimit(res, p.Sort.By, p.Sort.Desc, p.Sort.Limit); err == nil {
					res.Fragments = fragments
				}
			}
			return res, frag, true, err
		}
	}
	res, err = p.Program.RunUnboxed(ctx)
	return res, nil, false, err
}

// finish is the last stage, shared by every query: it updates the query
// counters and the end-to-end latency histogram, feeds the per-plan
// feedback store once, and flushes a traced query's profile. It returns err
// classified (see classify).
func (e *Engine) finish(qp *obs.QueryProfile, start time.Time, query string, p *Prepared, res *exec.Result, err error) error {
	total := time.Since(start)
	m := e.metrics
	m.Queries.Add(1)
	var rows int64
	if err != nil {
		m.Errors.Add(1)
	} else {
		rows = int64(res.Len())
		m.RowsOut.Add(rows)
	}
	m.TotalLatency.Observe(total)
	var fp string
	if p != nil {
		fp = p.Program.Fingerprint
		if p.Program.Workers > 1 {
			m.ParallelQueries.Add(1)
		}
	}
	var phases []obs.Span
	if qp != nil {
		qp.Total, qp.Rows, phases = total, rows, qp.Phases
		if err != nil {
			qp.Err = err.Error()
		}
	}
	e.feedback.Observe(fp, query, total, rows, err != nil, phases)
	if qp != nil {
		e.flushProfile(qp)
	}
	return e.classify(query, err)
}

// sortSpecOf extracts the statement's ORDER BY / LIMIT, nil when it has
// neither.
func sortSpecOf(c *calculus.Comprehension) *exec.SortSpec {
	if len(c.OrderBy) == 0 && c.Limit <= 0 {
		return nil
	}
	return &exec.SortSpec{
		By:    append([]string(nil), c.OrderBy...),
		Desc:  append([]bool(nil), c.OrderDesc...),
		Limit: c.Limit,
	}
}

// orderAndLimit validates the ORDER BY columns against the result shape and
// delegates the ordering and the cut to exec.OrderAndLimit, which keeps a
// columnar result columnar.
func orderAndLimit(res *exec.Result, orderBy []string, desc []bool, limit int) (*exec.Result, error) {
	// Output rows are records carrying the select-list names (bag yields
	// report a single synthetic column, so validate against the record
	// fields, from the compiled yield or an actual row).
	for _, col := range orderBy {
		found := slices.Contains(res.Cols, col) || slices.Contains(res.FieldNames(), col)
		if !found && len(res.Rows) > 0 {
			_, found = res.Rows[0].Field(col)
		}
		if !found {
			// An empty result has no rows to validate the column against
			// (bag yields report a synthetic column name); sorting zero
			// rows is a no-op, not an error.
			if res.Len() == 0 {
				continue
			}
			return nil, fmt.Errorf("engine: ORDER BY column %q is not in the output (%v)", col, res.Cols)
		}
	}
	return exec.OrderAndLimit(res, orderBy, desc, limit)
}

// ErrClosed is returned for queries submitted after Close: the engine is
// draining (or drained) and admits no new work.
var ErrClosed = errors.New("engine: closed")

// enter is the admission stage, shared by queries and fragments: it refuses
// work on a closed engine, waits for an admission slot, then arms the
// configured timeout. Admission precedes the timeout on purpose:
// QueryTimeout bounds execution, not queueing, so a query that spends its
// life in the admission queue under load must not arrive at the scan
// already expired. The wait itself stays bounded by the caller's context
// (and is measured into the admission_wait histogram). Every successful
// enter is paired with one leave(cancel).
func (e *Engine) enter(ctx context.Context, query string) (context.Context, context.CancelFunc, error) {
	if err := e.beginQuery(); err != nil {
		return nil, nil, err
	}
	if e.admit != nil {
		e.metrics.AdmissionQueued.Add(1)
		t0 := time.Now()
		var err error
		select {
		case e.admit <- struct{}{}:
		case <-ctx.Done():
			err = context.Cause(ctx)
		}
		e.metrics.AdmissionQueued.Add(-1)
		e.metrics.AdmissionWait.Observe(time.Since(t0))
		if err != nil {
			e.endQuery()
			return nil, nil, e.classify(query, err)
		}
	}
	if e.timeout > 0 {
		ctx, cancel := context.WithTimeout(ctx, e.timeout)
		return ctx, cancel, nil
	}
	return ctx, func() {}, nil
}

// leave undoes enter: it disarms the timeout, frees the admission slot and
// retires the in-flight query.
func (e *Engine) leave(cancel context.CancelFunc) {
	cancel()
	if e.admit != nil {
		<-e.admit
	}
	e.endQuery()
}

// beginQuery registers one in-flight query, refusing when the engine is
// closed. Every query and fragment holds a begin/end pair for its whole
// life-cycle — including the admission wait — so Close can drain precisely.
func (e *Engine) beginQuery() error {
	e.lcMu.Lock()
	defer e.lcMu.Unlock()
	if e.closed {
		return ErrClosed
	}
	e.inflight++
	return nil
}

// endQuery retires one in-flight query and, when the engine is closed and
// this was the last one, releases Close waiters.
func (e *Engine) endQuery() {
	e.lcMu.Lock()
	e.inflight--
	if e.closed && e.inflight == 0 {
		close(e.drained)
	}
	e.lcMu.Unlock()
}

// Close drains the engine: new queries are rejected with ErrClosed
// immediately, while queries already in flight (including ones queued at
// the admission gate) run to completion. Close returns once the engine is
// idle, or with ctx's cause when the deadline passes first — in-flight
// queries are NOT cancelled on timeout; callers wanting a hard stop should
// run queries under their own cancellable contexts. Close is idempotent:
// later calls just wait for the same drain.
func (e *Engine) Close(ctx context.Context) error {
	e.lcMu.Lock()
	if !e.closed {
		e.closed = true
		if e.inflight == 0 {
			close(e.drained)
		}
	}
	e.lcMu.Unlock()
	select {
	case <-e.drained:
		return nil
	case <-ctx.Done():
		return context.Cause(ctx)
	}
}

// queryTagKey carries the caller's correlation tag through a query context.
type queryTagKey struct{}

// WithQueryTag attaches a correlation tag (e.g. an HTTP request ID) to the
// context; traced queries copy it into their QueryProfile and from there
// into the slow-query log, correlating service requests with profiles.
func WithQueryTag(ctx context.Context, tag string) context.Context {
	return context.WithValue(ctx, queryTagKey{}, tag)
}

// QueryTag returns the context's correlation tag ("" when absent).
func QueryTag(ctx context.Context) string {
	tag, _ := ctx.Value(queryTagKey{}).(string)
	return tag
}

// classify sorts a failed query into the robustness counters and wraps
// panics with the query text (the fingerprint is already inside the
// PanicError). The engine, caches, and statistics remain usable after every
// outcome — that is the invariant these counters witness. A nil err passes
// through.
func (e *Engine) classify(query string, err error) error {
	if err == nil {
		return nil
	}
	var pe *exec.PanicError
	switch {
	case errors.As(err, &pe):
		e.metrics.QueriesPanicked.Add(1)
		return fmt.Errorf("query %q: %w", query, err)
	case errors.Is(err, exec.ErrMemBudget):
		e.metrics.QueriesMemRejected.Add(1)
	case errors.Is(err, context.DeadlineExceeded):
		e.metrics.QueriesTimedOut.Add(1)
	case errors.Is(err, context.Canceled):
		e.metrics.QueriesCancelled.Add(1)
	}
	return err
}
