// Package obs is the engine's observability layer: per-query phase spans,
// per-operator execution profiles, cumulative engine metrics, and their
// HTTP/text surfacings. The package is dependency-free within the module so
// every layer (exec, engine, plugins via plain structs) can feed it without
// import cycles.
//
// Design (see DESIGN.md "Observability"):
//
//   - A query records one QueryProfile: a span per life-cycle phase
//     (parse → calculus → optimize → compile → execute), per-worker child
//     spans under execute, and an operator tree of actual row counts vs.
//     optimizer estimates.
//   - Counters on the hot path are worker-private and non-atomic; shared
//     (atomic) state is touched once per morsel or per run, never per tuple.
//   - Wall-clock per-operator timing is reserved for EXPLAIN ANALYZE runs;
//     plain profiled queries only pay row/batch counters.
package obs

import (
	"sync"
	"time"
)

// Phase names of the query life-cycle, in order.
const (
	PhaseParse    = "parse"
	PhaseCalculus = "calculus"
	PhaseOptimize = "optimize"
	PhaseCompile  = "compile"
	PhaseExecute  = "execute"
)

// Phases lists the life-cycle phase names in execution order.
var Phases = []string{PhaseParse, PhaseCalculus, PhaseOptimize, PhaseCompile, PhaseExecute}

// PhaseIndex returns a phase name's position in Phases (-1 when unknown).
func PhaseIndex(name string) int {
	for i, p := range Phases {
		if p == name {
			return i
		}
	}
	return -1
}

// Span is one timed region of a query's life-cycle. Start is wall-clock for
// display; Dur is measured monotonically.
type Span struct {
	Name     string        `json:"name"`
	Start    time.Time     `json:"start"`
	Dur      time.Duration `json:"dur"`
	Children []Span        `json:"children,omitempty"`
}

// Counter is one named extra metric attached to an operator (scan plug-in
// byte counts, cache-build time, …).
type Counter struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// OpProfile is one physical operator's execution profile, aggregated over
// all workers of the run.
type OpProfile struct {
	// Op is the operator label, e.g. "Scan lineitem as l".
	Op string `json:"op"`
	// EstRows is the optimizer's cardinality estimate (0 when unknown).
	EstRows float64 `json:"est_rows"`
	// Rows is the number of tuples the operator emitted.
	Rows int64 `json:"rows"`
	// Batches is the number of driver invocations (morsels) for scans.
	Batches int64 `json:"batches,omitempty"`
	// SelfNanos is wall time attributed to this operator alone. Only
	// populated on EXPLAIN ANALYZE (timed) runs.
	SelfNanos int64 `json:"self_nanos,omitempty"`
	// Extra carries plug-in counters: bytes_read, fields_parsed,
	// index_hits, cache_build_nanos.
	Extra    []Counter    `json:"extra,omitempty"`
	Children []*OpProfile `json:"children,omitempty"`
}

// Each calls fn for the profile and every descendant.
func (p *OpProfile) Each(fn func(*OpProfile)) {
	if p == nil {
		return
	}
	fn(p)
	for _, c := range p.Children {
		c.Each(fn)
	}
}

// ExtraValue returns the named extra counter (0 when absent).
func (p *OpProfile) ExtraValue(name string) int64 {
	for _, c := range p.Extra {
		if c.Name == name {
			return c.Value
		}
	}
	return 0
}

// QueryAttr is one query's resource attribution: what this execution — as
// opposed to the engine's cumulative counters — read, skipped, and pinned.
// Scan counters aggregate the operator tree; cache counters are scoped to
// the run (compile-time block hits, run-time zone skips and bitmap hits);
// MemPeakBytes is the memory accountant's high-water mark (0 when no
// budget was configured).
type QueryAttr struct {
	BytesRead     int64 `json:"bytes_read"`
	FieldsParsed  int64 `json:"fields_parsed"`
	ScanIndexHits int64 `json:"scan_index_hits"`
	CacheHits     int64 `json:"cache_hits"`
	ZoneSkips     int64 `json:"zone_skips"`
	BitmapHits    int64 `json:"bitmap_hits"`
	MemPeakBytes  int64 `json:"mem_peak_bytes"`
}

// Misestimate is one operator's estimated-vs-actual cardinality gap.
type Misestimate struct {
	Op      string  `json:"op"`
	EstRows float64 `json:"est_rows"`
	Rows    int64   `json:"rows"`
	// Factor is the symmetric error ratio, ≥ 1 (2 = off by 2x either way).
	Factor float64 `json:"factor"`
}

// QueryProfile is the complete observability record of one query execution.
type QueryProfile struct {
	ID    int64     `json:"id"`
	Lang  string    `json:"lang"` // "sql", "comp", or "plan"
	Query string    `json:"query"`
	Start time.Time `json:"start"`
	// Total is end-to-end wall time (admission through execute).
	Total time.Duration `json:"total"`
	// Phases holds one span per life-cycle phase; the execute span carries
	// per-worker child spans under morsel parallelism.
	Phases []Span `json:"phases"`
	// Workers and Morsels describe the parallel shape (1/1 for serial).
	Workers int `json:"workers"`
	Morsels int `json:"morsels"`
	// Fragments is the number of remote worker partials gathered when the
	// query ran distributed (0 for local execution).
	Fragments int `json:"fragments,omitempty"`
	// Rows is the result cardinality; Err the failure, if any.
	Rows int64  `json:"rows"`
	Err  string `json:"err,omitempty"`
	// Root is the operator profile tree (nil when compilation failed).
	Root *OpProfile `json:"root,omitempty"`
	// Timed reports whether per-operator wall timing was on (EXPLAIN
	// ANALYZE); untimed profiles carry counters only.
	Timed bool `json:"timed"`
	// PlanCached reports that the program came from the compiled-plan cache:
	// the query paid no parse..compile, so Phases holds only execute.
	PlanCached bool `json:"plan_cached,omitempty"`
	// Fingerprint is the compiled plan's structural fingerprint — the
	// feedback-store key (empty when compilation failed).
	Fingerprint string `json:"fingerprint,omitempty"`
	// Vectorized reports whether any pipeline segment ran batch kernels.
	Vectorized bool `json:"vectorized,omitempty"`
	// Tag is the caller-supplied correlation key (the query service puts
	// its request ID here), carried into the slow-query log so one request
	// can be traced from access log to profile to slow record.
	Tag string `json:"tag,omitempty"`
	// Attr is this query's resource attribution (observability v2).
	Attr QueryAttr `json:"attr"`
}

// WorstMisestimate returns the operator whose optimizer estimate is
// furthest from its actual cardinality (symmetric ratio, both sides
// clamped to ≥1 so empty results don't divide by zero), or nil when no
// operator carries an estimate.
func (q *QueryProfile) WorstMisestimate() *Misestimate {
	var worst *Misestimate
	q.Root.Each(func(op *OpProfile) {
		if op.EstRows <= 0 {
			return
		}
		est, act := op.EstRows, float64(op.Rows)
		if est < 1 {
			est = 1
		}
		if act < 1 {
			act = 1
		}
		factor := act / est
		if factor < 1 {
			factor = 1 / factor
		}
		if worst == nil || factor > worst.Factor {
			worst = &Misestimate{Op: op.Op, EstRows: op.EstRows, Rows: op.Rows, Factor: factor}
		}
	})
	return worst
}

// Phase returns the duration of the named phase span (0 when absent).
func (q *QueryProfile) Phase(name string) time.Duration {
	for _, s := range q.Phases {
		if s.Name == name {
			return s.Dur
		}
	}
	return 0
}

// Ring is a bounded, concurrency-safe buffer of the most recent query
// profiles.
type Ring struct {
	mu   sync.Mutex
	buf  []*QueryProfile
	next int
	full bool
}

// NewRing returns a ring retaining up to n profiles (n < 1 keeps 1).
func NewRing(n int) *Ring {
	if n < 1 {
		n = 1
	}
	return &Ring{buf: make([]*QueryProfile, n)}
}

// Add records a profile, evicting the oldest when full.
func (r *Ring) Add(p *QueryProfile) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.buf[r.next] = p
	r.next++
	if r.next == len(r.buf) {
		r.next = 0
		r.full = true
	}
}

// Snapshot returns the retained profiles, newest first.
func (r *Ring) Snapshot() []*QueryProfile {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := r.next
	if r.full {
		n = len(r.buf)
	}
	out := make([]*QueryProfile, 0, n)
	for i := 0; i < n; i++ {
		idx := (r.next - 1 - i + len(r.buf)) % len(r.buf)
		out = append(out, r.buf[idx])
	}
	return out
}

// Len reports the number of retained profiles.
func (r *Ring) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.full {
		return len(r.buf)
	}
	return r.next
}
