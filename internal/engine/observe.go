// Query-lifecycle observability: the engine-side wiring that turns one
// query execution into an obs.QueryProfile (phase spans + operator tree),
// feeds the cumulative metrics counters, and surfaces both over HTTP.
// The exec-side counter mechanics live in internal/exec/profile.go; the
// span/metric model in internal/obs (see DESIGN.md, Observability).
package engine

import (
	"context"
	"net/http"
	"time"

	"proteus/internal/cache"
	"proteus/internal/exec"
	"proteus/internal/obs"
)

// Query language tags recorded in profiles.
const (
	LangSQL  = "sql"
	LangComp = "comp"
)

// phase opens a life-cycle span on a traced query's profile and returns
// the closure that seals it. Spans are appended in call order, which is the
// life-cycle order. On the untraced path (nil profile) both are no-ops.
func phase(qp *obs.QueryProfile, name string) func() {
	if qp == nil {
		return func() {}
	}
	i := len(qp.Phases)
	qp.Phases = append(qp.Phases, obs.Span{Name: name, Start: time.Now()})
	return func() { qp.Phases[i].Dur = time.Since(qp.Phases[i].Start) }
}

// attachWorkers hangs per-worker spans under the execute span.
func attachWorkers(qp *obs.QueryProfile, ws []obs.Span) {
	for i := range qp.Phases {
		if qp.Phases[i].Name == obs.PhaseExecute {
			qp.Phases[i].Children = ws
		}
	}
}

// snapshot copies what one execution left in its program into a traced
// query's profile. The caller must still hold the program's plan-cache
// entry: the entry's next run resets these counters. A scattered run never
// touched the local program, so its profile carries the fragment count and
// fan-out spans, not an operator tree left by an earlier local run.
func snapshot(qp *obs.QueryProfile, prog *exec.Program, res *exec.Result, frag []obs.Span, scattered bool) {
	qp.Workers, qp.Morsels = prog.Workers, prog.Morsels
	qp.Fingerprint, qp.Vectorized = prog.Fingerprint, prog.Vectorized
	if scattered {
		if res != nil {
			qp.Fragments = res.Fragments
		}
		attachWorkers(qp, frag)
		return
	}
	if ws := prog.WorkerSpans(); len(ws) > 0 {
		attachWorkers(qp, ws)
	} else if ms := prog.MorselSpans(); len(ms) > 0 {
		// Serial run with sampled morsel events: wrap them in one synthetic
		// worker span so trace export renders them on a row.
		span := obs.Span{Name: "worker 0 (serial)", Start: ms[0].Start, Children: ms}
		last := ms[len(ms)-1]
		span.Dur = last.Start.Add(last.Dur).Sub(span.Start)
		attachWorkers(qp, []obs.Span{span})
	}
	qp.Root = prog.Profile()
	qp.Attr.CacheHits = prog.CompileCacheHits()
	qp.Attr.MemPeakBytes = prog.MemPeak()
}

// flushProfile folds a finished traced query's profile into the per-phase
// metrics and scan totals, fills its attribution, offers it to the
// slow-query log, retains it in the ring, and fires the OnQueryDone hook.
func (e *Engine) flushProfile(qp *obs.QueryProfile) {
	m := e.metrics
	m.ObservePhases(qp.Phases)
	qp.Root.Each(func(op *obs.OpProfile) {
		m.ScanBytesRead.Add(op.ExtraValue("bytes_read"))
		m.ScanFieldsParsed.Add(op.ExtraValue("fields_parsed"))
		m.ScanIndexHits.Add(op.ExtraValue("index_hits"))
		// Per-query attribution (observability v2): the same walk fills the
		// profile's own counters from the operator tree's extras.
		qp.Attr.BytesRead += op.ExtraValue("bytes_read")
		qp.Attr.FieldsParsed += op.ExtraValue("fields_parsed")
		qp.Attr.ScanIndexHits += op.ExtraValue("index_hits")
		qp.Attr.ZoneSkips += op.ExtraValue("zone_skips")
		qp.Attr.BitmapHits += op.ExtraValue("bitmap_hits")
	})
	if e.slowlog.Offer(qp) {
		m.SlowQueries.Add(1)
	}
	e.profiles.Add(qp)
	if e.onDone != nil {
		e.onDone(*qp)
	}
}

// ObservedQuerySQL runs one SQL statement through the traced life-cycle —
// phase spans and per-operator row counters, but no per-tuple wall timing —
// regardless of Config.Observability. Benchmarks use it to split compile
// from execute time without the EXPLAIN ANALYZE timing overhead.
func (e *Engine) ObservedQuerySQL(query string) (*exec.Result, *obs.QueryProfile, error) {
	return e.boxedQuery(context.Background(), LangSQL, query, e.observedLevel())
}

// ObservedQueryComp is ObservedQuerySQL for comprehension queries.
func (e *Engine) ObservedQueryComp(query string) (*exec.Result, *obs.QueryProfile, error) {
	return e.boxedQuery(context.Background(), LangComp, query, e.observedLevel())
}

// ExplainAnalyzeSQL executes a SQL statement with full per-operator wall
// timing and returns its profile alongside the result.
func (e *Engine) ExplainAnalyzeSQL(query string) (*exec.Result, *obs.QueryProfile, error) {
	return e.boxedQuery(context.Background(), LangSQL, query, profTimed)
}

// ExplainAnalyzeComp executes a comprehension with full per-operator wall
// timing and returns its profile alongside the result.
func (e *Engine) ExplainAnalyzeComp(query string) (*exec.Result, *obs.QueryProfile, error) {
	return e.boxedQuery(context.Background(), LangComp, query, profTimed)
}

// Metrics snapshots the engine's cumulative counters, folding in the cache
// manager's view and catalog gauges.
func (e *Engine) Metrics() obs.Snapshot {
	cs := e.caches.Snapshot()
	refusals := make(map[string]int64, len(cs.IndexRefusals))
	for i, reason := range cache.IndexRefusalReasons {
		refusals[reason] = cs.IndexRefusals[i]
	}
	snap := e.metrics.Snapshot(obs.CacheCounters{
		Blocks:     cs.Blocks,
		JoinSides:  cs.JoinSides,
		Bytes:      cs.Bytes,
		Hits:       cs.Hits,
		Misses:     cs.Misses,
		Evictions:  cs.Evictions,
		BuildNanos: cs.BuildNanos,

		Indexes:     cs.Indexes,
		IndexBytes:  cs.IndexBytes,
		IndexBuilds: cs.IndexBuilds,
		IndexHits:   cs.IndexHits,
		ZoneSkips:   cs.ZoneSkips,

		IndexRefusals:   refusals,
		IndexBuildNanos: cs.IndexBuildNanos,
	})
	e.mu.Lock()
	snap.Datasets = len(e.datasets)
	e.mu.Unlock()
	snap.ProfilesRetained = e.profiles.Len()
	snap.PlanStatsTracked = e.feedback.Len()
	return snap
}

// RecentProfiles returns the retained query profiles, newest first.
func (e *Engine) RecentProfiles() []*obs.QueryProfile { return e.profiles.Snapshot() }

// SlowQueries returns the retained slow-query log records, newest first
// (nil when no SlowQueryThreshold is configured).
func (e *Engine) SlowQueries() []*obs.SlowQuery { return e.slowlog.Snapshot() }

// PlanFeedback returns the per-plan feedback store's tracked stats,
// most-executed first (nil when the store is disabled).
func (e *Engine) PlanFeedback() []obs.PlanStats { return e.feedback.Snapshot() }

// PlanFeedbackFor returns one plan's feedback stats by fingerprint.
func (e *Engine) PlanFeedbackFor(fp string) (obs.PlanStats, bool) { return e.feedback.Lookup(fp) }

// TraceJSON renders a retained profile as Chrome trace-event JSON (loadable
// in Perfetto). id ≤ 0 selects the newest profile; ok=false when the ring
// holds no matching profile.
func (e *Engine) TraceJSON(id int64) ([]byte, bool) {
	for _, p := range e.profiles.Snapshot() {
		if id <= 0 || p.ID == id {
			data, err := obs.TraceJSON(p)
			if err != nil {
				return nil, false
			}
			return data, true
		}
	}
	return nil, false
}

// MetricsHandler returns the opt-in HTTP surface: /metrics (Prometheus
// text, incl. latency histograms), /debug/vars (expvar-style JSON),
// /debug/queries (recent profiles), /debug/trace (Chrome trace-event
// export), /debug/slow (slow-query log), /debug/plans (per-plan feedback),
// and /debug/pprof/*.
func (e *Engine) MetricsHandler() http.Handler {
	return obs.Handler(e.Metrics, e.profiles, e.slowlog, e.feedback)
}
