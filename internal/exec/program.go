package exec

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/expr"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Result is a query result: one boxed record (or scalar) per output row in
// Rows — the flush step of the paper's output plug-ins — or, straight out of
// a columnar collect, the typed output columns themselves, boxed only when
// a caller needs Rows (Box). Library entry points always return boxed
// results; the query service streams columnar ones as they are
// (StreamChunks).
type Result struct {
	Cols []string
	Rows []types.Value
	// Fragments counts the remote fragments merged into this result: 0 for
	// purely local execution, N when a cluster coordinator gathered N
	// worker partials (internal/cluster).
	Fragments int

	// out is nil unless the compiled yield knows more than Rows tells. One
	// pointer keeps Result in its old allocation size class.
	out *collectRows
}

// collectRows is what a compiled collect knows about its result rows. fields
// names the fields of record rows, so an empty result has them too. A
// columnar collect also hands over its rows unboxed: cols is non-nil and
// Rows is nil. Output row i is cols row perm[i] (row i when perm is nil),
// for i < n.
type collectRows struct {
	fields []string
	cols   []Column
	perm   []int32
	n      int
}

// unboxed reports whether s holds the rows of its result.
func (s *collectRows) unboxed() bool { return s != nil && s.cols != nil }

// row maps output position i to its column index.
func (s *collectRows) row(i int) int {
	if s.perm != nil {
		return int(s.perm[i])
	}
	return i
}

// Len returns the number of result rows, boxed or not.
func (r *Result) Len() int {
	if r.out.unboxed() {
		return r.out.n
	}
	return len(r.Rows)
}

// FieldNames returns the field names of record-shaped rows — from the
// compiled yield when it knows them, so also for an empty result, else from
// the first row — and nil for scalar rows or an empty result of unknown
// shape.
func (r *Result) FieldNames() []string {
	if r.out != nil && r.out.fields != nil {
		return r.out.fields
	}
	if len(r.Rows) > 0 && r.Rows[0].Kind == types.KindRecord && r.Rows[0].Rec != nil {
		return r.Rows[0].Rec.Names
	}
	return nil
}

// Box materializes a columnar result into Rows — one backing array for all
// records and one for all their values — and returns r. Boxed results (and
// nil) are returned as they are.
func (r *Result) Box() *Result {
	if r == nil || !r.out.unboxed() {
		return r
	}
	s, w := r.out, len(r.out.cols)
	recs := make([]types.Record, s.n)
	vals := make([]types.Value, s.n*w)
	rows := make([]types.Value, s.n)
	for i := range rows {
		ri := s.row(i)
		v := vals[i*w : (i+1)*w : (i+1)*w]
		for f := range s.cols {
			v[f] = s.cols[f].box(ri)
		}
		recs[i] = types.Record{Names: s.fields, Values: v}
		rows[i] = types.Value{Kind: types.KindRecord, Rec: &recs[i]}
	}
	r.Rows, r.out = rows, &collectRows{fields: s.fields}
	return r
}

// DefaultStreamChunk is the StreamChunks granularity used when the caller
// passes chunkRows <= 0: large enough to amortize flush syscalls, small
// enough that a disconnected consumer is noticed quickly.
const DefaultStreamChunk = 256

// Chunk is one window of a streamed result: a run of boxed Rows, or — for a
// columnar result — output rows [lo, hi), read through Columns and Row.
type Chunk struct {
	Rows []types.Value

	cols   *collectRows // nil for boxed rows
	lo, hi int
}

// Len returns the number of rows in the chunk.
func (c Chunk) Len() int {
	if c.cols != nil {
		return c.hi - c.lo
	}
	return len(c.Rows)
}

// Columns returns the typed output columns of a columnar chunk (shared by
// every chunk of the result), nil for boxed rows.
func (c Chunk) Columns() []Column {
	if c.cols == nil {
		return nil
	}
	return c.cols.cols
}

// Row returns the index into Columns of the chunk's i-th row.
func (c Chunk) Row(i int) int { return c.cols.row(c.lo + i) }

// StreamChunks is the row source of the query service: it feeds the rows to
// emit in chunks of at most chunkRows (<= 0 uses DefaultStreamChunk), boxed
// or columnar as the result holds them, checking ctx between chunks so a
// cancelled consumer — a disconnected HTTP client, a shut-down server —
// stops the stream at the next chunk boundary with ctx's cause. An emit
// error (the write side of a broken connection) aborts the stream and is
// returned as-is. Chunks view the result's storage; emit must not retain
// them past its return if the caller reuses the Result.
func (r *Result) StreamChunks(ctx context.Context, chunkRows int, emit func(Chunk) error) error {
	if chunkRows <= 0 {
		chunkRows = DefaultStreamChunk
	}
	var cols *collectRows
	if r.out.unboxed() {
		cols = r.out
	}
	n := r.Len()
	for lo := 0; lo < n; lo += chunkRows {
		if ctx.Err() != nil {
			return context.Cause(ctx)
		}
		hi := min(lo+chunkRows, n)
		c := Chunk{cols: cols, lo: lo, hi: hi}
		if cols == nil {
			c.Rows = r.Rows[lo:hi]
		}
		if err := emit(c); err != nil {
			return err
		}
	}
	return nil
}

// Scalar returns the single value of a 1×1 result (the common aggregate
// case), or a zero Value if the shape differs.
func (r *Result) Scalar() types.Value {
	if len(r.Rows) == 1 && r.Rows[0].Kind == types.KindRecord && len(r.Rows[0].Rec.Values) == 1 {
		return r.Rows[0].Rec.Values[0]
	}
	if len(r.Rows) == 1 && r.Rows[0].Kind != types.KindRecord {
		return r.Rows[0]
	}
	return types.Value{}
}

// Program is one compiled query: the specialized engine instance the paper
// builds per query. Run executes it; a Program may be run repeatedly, but
// not concurrently with itself (compiled accumulators hold per-run state —
// compile one Program per goroutine, as the engine's Query methods do).
type Program struct {
	alloc   vbuf.Alloc
	run     func(r *vbuf.Regs) (*Result, error)
	Explain []string // compilation decisions (cache hits, lazy unnests, …)

	// prof holds per-operator profiling state when the program was compiled
	// with Env.Profile set; nil otherwise.
	prof *progProf
	// Workers and Morsels describe the parallel shape chosen at compile time
	// (both 1 for serial programs).
	Workers, Morsels int
	// Fingerprint is the structural fingerprint of the compiled plan,
	// carried into PanicError so failures name the specialized program.
	Fingerprint string
	// Vectorized reports whether any pipeline segment compiled to batch
	// kernels (a compile-time fact; feeds the per-plan feedback store).
	Vectorized bool
	// Sorted reports that the program absorbed Env.Sort — ORDER BY and
	// LIMIT already ran inside the pipeline (columnar index sort), so the
	// caller must not sort the result again.
	Sorted bool

	// cancel is the cooperative cancellation token every scan driver of
	// this program (and all its pipeline clones) polls.
	cancel *plugin.Cancel
	// mem is the per-query memory accountant; nil when Env.MemBudget is
	// unset, in which case every charge site compiles the accounting out.
	mem *memGauge
}

// Run executes the program against a fresh register file.
func (p *Program) Run() (*Result, error) { return p.RunContext(context.Background()) }

// RunContext executes the program under ctx and returns its boxed result
// (see RunUnboxed).
func (p *Program) RunContext(ctx context.Context) (*Result, error) {
	res, err := p.RunUnboxed(ctx)
	return res.Box(), err
}

// RunUnboxed executes the program under ctx: when ctx is cancelled or its
// deadline passes, the scan drivers abort at the next poll boundary and
// the run returns ctx's cause. A columnar collect's result comes back
// unboxed (see Result.Box). RunUnboxed is also the query-boundary panic
// barrier — a panic inside the compiled pipeline (or its post-processing)
// surfaces as a *PanicError instead of unwinding into the caller.
func (p *Program) RunUnboxed(ctx context.Context) (res *Result, err error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if p.mem != nil {
		p.mem.reset()
	}
	if p.cancel != nil {
		gen := p.cancel.Arm()
		if ctx.Done() != nil {
			stop := context.AfterFunc(ctx, func() {
				p.cancel.SignalAt(gen, context.Cause(ctx))
			})
			defer stop()
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			res, err = nil, newPanicError(p.Fingerprint, rec)
		}
	}()
	regs := vbuf.NewRegs(&p.alloc)
	return p.run(regs)
}

// ChargeMem charges n estimated bytes against the query's memory budget
// (no-op without one). The engine uses it for post-pipeline buffers such
// as ORDER BY input.
func (p *Program) ChargeMem(n int64) error {
	if p.mem == nil {
		return nil
	}
	return p.mem.charge(n)
}

// Profile returns the last run's operator-profile tree, or nil when the
// program was compiled without profiling. Must not be called concurrently
// with Run.
func (p *Program) Profile() *obs.OpProfile {
	if p.prof == nil {
		return nil
	}
	return p.prof.snapshot()
}

// TotalNanos returns the last run's wall time inside the pipeline (before
// any WrapResult post-processing); 0 when unprofiled.
func (p *Program) TotalNanos() int64 {
	if p.prof == nil {
		return 0
	}
	return p.prof.totalNanos
}

// WorkerSpans returns the last run's per-worker execution spans (parallel
// profiled programs only).
func (p *Program) WorkerSpans() []obs.Span {
	if p.prof == nil {
		return nil
	}
	return p.prof.workerSpans
}

// MorselSpans returns the last run's per-morsel event spans for serial
// programs compiled with ProfileSpec.Events (parallel programs attach them
// under WorkerSpans instead). Nil otherwise.
func (p *Program) MorselSpans() []obs.Span {
	if p.prof == nil || !p.prof.events || p.prof.workers != 1 {
		return nil
	}
	return p.prof.eventsOf(0)
}

// CompileCacheHits reports how many scan fields this program serves from
// materialized cache blocks — a compile-time fact, constant across runs.
func (p *Program) CompileCacheHits() int64 {
	if p.prof == nil {
		return 0
	}
	return p.prof.cacheHits
}

// MemPeak returns the memory accountant's high-water mark after the last
// run (0 without a budget). The gauge only accumulates during a run, so its
// final reading is the peak.
func (p *Program) MemPeak() int64 {
	if p.mem == nil {
		return 0
	}
	return p.mem.used.Load()
}

// attachProf installs profiling state on the program: the run is wrapped so
// every execution starts from zeroed counters and records total pipeline
// wall time.
func (p *Program) attachProf(prof *progProf) {
	if prof == nil {
		return
	}
	p.prof = prof
	inner := p.run
	p.run = func(r *vbuf.Regs) (*Result, error) {
		prof.resetRun()
		t0 := time.Now()
		res, err := inner(r)
		prof.totalNanos = int64(time.Since(t0))
		return res, err
	}
}

// WrapResult installs a post-processing step over the program's result
// (the engine uses it for ORDER BY / LIMIT, which apply to the
// materialized output rather than the pipeline).
func (p *Program) WrapResult(fn func(*Result) (*Result, error)) {
	inner := p.run
	p.run = func(r *vbuf.Regs) (*Result, error) {
		res, err := inner(r)
		if err != nil {
			return nil, err
		}
		return fn(res)
	}
}

// Compile traverses the physical plan in post-order and emits the
// specialized program: the paper's code-generation step, with closures
// standing in for LLVM IR (§5.1).
func Compile(plan algebra.Node, env *Env) (*Program, error) {
	c := &Compiler{env: env, cancel: &plugin.Cancel{}, mem: newMemGauge(env.MemBudget)}
	if env.Profile != nil {
		c.prof = newProgProf(plan, env.Profile, 1)
	}
	u, err := c.compileUnit(plan)
	if err != nil {
		return nil, err
	}
	run := func(r *vbuf.Regs) (*Result, error) {
		u.state.reset()
		if err := u.run(r); err != nil {
			return nil, err
		}
		return u.state.result()
	}
	p := &Program{
		alloc: u.alloc, run: run, Explain: u.explain, Workers: 1, Morsels: 1,
		Fingerprint: plan.Fingerprint(), cancel: c.cancel, mem: c.mem,
		Vectorized: u.vectorized, Sorted: u.sorted,
	}
	p.attachProf(c.prof)
	return p, nil
}

// partialState is the mergeable per-pipeline state of a root operator.
// Serial programs hold exactly one; CompileParallel gives each worker clone
// its own and merges them in worker order at the pipeline breaker. Because
// workers own contiguous, ordered morsel ranges, the worker-order merge
// reproduces serial semantics exactly: bag rows concatenate in scan order
// and group-by first-encounter order matches the serial scan.
type partialState interface {
	// reset re-arms the state for a fresh run of the program.
	reset()
	// merge folds another worker's state (of the same concrete type and
	// shape) into this one.
	merge(o partialState) error
	// result materializes the final rows.
	result() (*Result, error)
}

// tupleArena carves row-sized []types.Value slices out of a chunked backing
// array: one allocation per arenaChunkRows emitted tuples instead of one per
// row. Handed-out slices are full (len == cap) sub-slices that the arena
// never touches again, so consumers may retain them (types.RecordValue does)
// without aliasing a neighbor. Each compiled closure owns its arena and runs
// on one goroutine at a time (worker clones compile their own), so no
// locking is needed.
type tupleArena struct {
	width int
	buf   []types.Value
}

const arenaChunkRows = 256

func (a *tupleArena) next() []types.Value {
	if a.width == 0 {
		return nil
	}
	if len(a.buf) < a.width {
		a.buf = make([]types.Value, a.width*arenaChunkRows)
	}
	out := a.buf[:a.width:a.width]
	a.buf = a.buf[a.width:]
	return out
}

// barePartial is the mergeable state of a bare (no Reduce/Nest root) plan.
type barePartial struct {
	names []string
	rows  []types.Value
}

func (p *barePartial) reset() { p.rows = nil }

func (p *barePartial) merge(o partialState) error {
	other, ok := o.(*barePartial)
	if !ok {
		return fmt.Errorf("exec: cannot merge %T into bare state", o)
	}
	p.rows = append(p.rows, other.rows...)
	return nil
}

func (p *barePartial) result() (*Result, error) {
	return &Result{Cols: p.names, Rows: p.rows}, nil
}

// compileBarePartial compiles a bare plan into a driver plus its state.
func (c *Compiler) compileBarePartial(plan algebra.Node) (func(r *vbuf.Regs) error, *barePartial, error) {
	bindings := plan.Bindings()
	names := make([]string, 0, len(bindings))
	for name := range bindings {
		names = append(names, name)
		// The output references each whole binding, so every scan must
		// materialize the full record (path "").
		set := c.needs[name]
		if set == nil {
			set = map[string]bool{}
			c.needs[name] = set
		}
		set[""] = true
	}
	sort.Strings(names)
	st := &barePartial{names: names}
	gauge := c.mem
	var pending int64
	evs := make([]evalVal, len(names))
	run, err := c.compileChildThen(plan, func() (Kont, error) {
		for i, name := range names {
			ev, err := c.compileVal(&expr.Ref{Name: name})
			if err != nil {
				return nil, err
			}
			evs[i] = ev
		}
		arena := &tupleArena{width: len(evs)}
		return func(r *vbuf.Regs) error {
			vals := arena.next()
			for i, ev := range evs {
				v, ok := ev(r)
				if !ok {
					v = types.NullValue()
				}
				vals[i] = v
			}
			st.rows = append(st.rows, types.RecordValue(names, vals))
			if gauge != nil {
				if pending += 48 + int64(len(vals))*56; pending >= memQuantum {
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

// helpers -------------------------------------------------------------------

func sortedKeys[V any](set map[string]V) []string {
	out := make([]string, 0, len(set))
	for k := range set {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

func splitPath(p string) []string {
	if p == "" {
		return nil
	}
	return strings.Split(p, ".")
}

// typeOfPath resolves a dotted path against a record schema.
func typeOfPath(schema *types.RecordType, path []string) (types.Type, error) {
	var cur types.Type = schema
	for _, seg := range path {
		rt, ok := cur.(*types.RecordType)
		if !ok {
			return nil, fmt.Errorf("path segment %q applied to non-record type %s", seg, cur)
		}
		ft, ok := rt.Lookup(seg)
		if !ok {
			return nil, fmt.Errorf("schema has no field %q", seg)
		}
		cur = ft
	}
	return cur, nil
}

// typeOfPathFrom resolves a dotted path against any starting type.
func typeOfPathFrom(start types.Type, path []string) (types.Type, error) {
	rt, ok := start.(*types.RecordType)
	if !ok {
		return nil, fmt.Errorf("element type %s is not a record", start)
	}
	return typeOfPath(rt, path)
}
