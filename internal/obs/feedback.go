// The per-plan runtime feedback store (observability v2): a bounded map from
// compiled-plan fingerprint to running execution statistics. The fingerprint
// is the plan's structural key, so a plan's accumulated history survives
// recompilation. The store is telemetry (/debug/plans): no execution
// decision reads it.
package obs

import (
	"math"
	"sort"
	"sync"
	"time"
)

// planStats is the mutable per-fingerprint record (guarded by the store's
// lock).
type planStats struct {
	execs int64
	errs  int64
	rows  int64
	// Welford accumulators over total nanos.
	mean float64
	m2   float64
	// Per-phase running mean nanos (indexed by PhaseIndex; only observed
	// executions contribute — plan-cache hits skip the front-end phases).
	phaseMean  [5]float64
	phaseExecs [5]int64
	lastUsed   int64 // store tick, for eviction
	query      string
}

// PlanStats is a point-in-time copy of one plan's feedback record.
type PlanStats struct {
	Fingerprint string `json:"fingerprint"`
	// Query is a representative query text for the fingerprint.
	Query      string  `json:"query"`
	Executions int64   `json:"executions"`
	Errors     int64   `json:"errors,omitempty"`
	Rows       int64   `json:"rows"`
	MeanNanos  float64 `json:"mean_nanos"`
	// StddevNanos is the sample standard deviation of total time (0 with
	// fewer than two executions).
	StddevNanos float64 `json:"stddev_nanos"`
	// PhaseMeanNanos holds per-phase mean nanos in Phases order; entries are
	// 0 for phases never observed (untraced runs record none, plan-cache hits
	// skip parse..compile).
	PhaseMeanNanos [5]float64 `json:"phase_mean_nanos"`
}

// PlanFeedback is the bounded feedback store. All methods are
// concurrency-safe and nil-safe (a nil store ignores observations).
type PlanFeedback struct {
	mu    sync.Mutex
	cap   int
	tick  int64
	plans map[string]*planStats
}

// DefaultPlanFeedbackSize bounds the store when the engine config leaves the
// size unset.
const DefaultPlanFeedbackSize = 256

// NewPlanFeedback returns a store retaining stats for up to capacity
// fingerprints (capacity < 1 uses the default); least-recently-used entries
// are evicted beyond that.
func NewPlanFeedback(capacity int) *PlanFeedback {
	if capacity < 1 {
		capacity = DefaultPlanFeedbackSize
	}
	return &PlanFeedback{cap: capacity, plans: make(map[string]*planStats)}
}

// get returns (creating if needed) the record for fp. Caller holds mu.
func (f *PlanFeedback) get(fp, query string) *planStats {
	ps := f.plans[fp]
	if ps == nil {
		if len(f.plans) >= f.cap {
			f.evictOne()
		}
		ps = &planStats{query: query}
		f.plans[fp] = ps
	} else if ps.query == "" {
		ps.query = query
	}
	f.tick++
	ps.lastUsed = f.tick
	return ps
}

// evictOne drops the least-recently-used record. Caller holds mu.
func (f *PlanFeedback) evictOne() {
	var victim string
	var oldest int64 = math.MaxInt64
	for fp, ps := range f.plans {
		if ps.lastUsed < oldest {
			oldest = ps.lastUsed
			victim = fp
		}
	}
	delete(f.plans, victim)
}

// Observe records one execution: its end-to-end time, result rows, and
// outcome, plus the life-cycle spans when the query was traced (nil
// otherwise; each span folds into its phase's running mean).
func (f *PlanFeedback) Observe(fp, query string, total time.Duration, rows int64, failed bool, phases []Span) {
	if f == nil || fp == "" {
		return
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ps := f.get(fp, query)
	ps.execs++
	if failed {
		ps.errs++
	}
	ps.rows += rows
	x := float64(total)
	delta := x - ps.mean
	ps.mean += delta / float64(ps.execs)
	ps.m2 += delta * (x - ps.mean)
	for _, s := range phases {
		i := PhaseIndex(s.Name)
		if i < 0 {
			continue
		}
		ps.phaseExecs[i]++
		ps.phaseMean[i] += (float64(s.Dur) - ps.phaseMean[i]) / float64(ps.phaseExecs[i])
	}
}

// Lookup returns the stats for one fingerprint (ok=false when untracked).
func (f *PlanFeedback) Lookup(fp string) (PlanStats, bool) {
	if f == nil {
		return PlanStats{}, false
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	ps := f.plans[fp]
	if ps == nil {
		return PlanStats{}, false
	}
	return ps.snapshot(fp), true
}

// snapshot copies a record. Caller holds mu.
func (ps *planStats) snapshot(fp string) PlanStats {
	out := PlanStats{
		Fingerprint:    fp,
		Query:          ps.query,
		Executions:     ps.execs,
		Errors:         ps.errs,
		Rows:           ps.rows,
		MeanNanos:      ps.mean,
		PhaseMeanNanos: ps.phaseMean,
	}
	if ps.execs > 1 {
		out.StddevNanos = math.Sqrt(ps.m2 / float64(ps.execs-1))
	}
	return out
}

// Snapshot returns all tracked plans, most-executed first.
func (f *PlanFeedback) Snapshot() []PlanStats {
	if f == nil {
		return nil
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	out := make([]PlanStats, 0, len(f.plans))
	for fp, ps := range f.plans {
		out = append(out, ps.snapshot(fp))
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Executions != out[j].Executions {
			return out[i].Executions > out[j].Executions
		}
		return out[i].Fingerprint < out[j].Fingerprint
	})
	return out
}

// Len reports the number of tracked fingerprints. Nil-safe.
func (f *PlanFeedback) Len() int {
	if f == nil {
		return 0
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	return len(f.plans)
}
