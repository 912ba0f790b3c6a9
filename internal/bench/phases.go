package bench

import (
	"fmt"
	"io"
	"sort"
	"time"

	"proteus/internal/engine"
	"proteus/internal/obs"
	"proteus/internal/plugin"
)

// PhaseRow is the life-cycle phase split of one representative query:
// the median, over the runs that paid it, of each phase's wall time in
// seconds. Parse/calculus/optimize/compile are paid once per statement —
// the compiling run; later runs reuse its specialized program from the
// plan cache — so those columns describe compilation and Execute and Total
// the steady state.
type PhaseRow struct {
	Query    string  `json:"query"`
	Parse    float64 `json:"parse_seconds"`
	Calculus float64 `json:"calculus_seconds"`
	Optimize float64 `json:"optimize_seconds"`
	Compile  float64 `json:"compile_seconds"`
	Execute  float64 `json:"execute_seconds"`
	Total    float64 `json:"total_seconds"`
}

// phaseQueries are one representative query per experiment family
// (projection, selection, join, group-by) across the heterogeneous formats.
var phaseQueries = []string{
	"SELECT COUNT(*), MAX(l_quantity), MAX(l_extendedprice) FROM lineitem_json WHERE l_orderkey < 1000000000",
	"SELECT COUNT(*), MAX(l_quantity), MAX(l_extendedprice) FROM lineitem_bin WHERE l_orderkey < 1000000000",
	"SELECT COUNT(*) FROM lineitem_csv WHERE l_quantity < 30",
	"SELECT COUNT(*) FROM orders_bin o JOIN lineitem_bin l ON o.o_orderkey = l.l_orderkey",
	"SELECT l_linenumber, COUNT(*), SUM(l_extendedprice) FROM lineitem_json GROUP BY l_linenumber",
}

// PhaseSplit measures the compile/execute split of the representative
// queries against the fixture's Proteus instance, taking the median of
// iters traced runs per query (row counters only — no per-tuple timing).
func PhaseSplit(f *TPCHFixture, iters int) ([]PhaseRow, error) {
	if iters < 1 {
		iters = 1
	}
	out := make([]PhaseRow, 0, len(phaseQueries))
	for _, q := range phaseQueries {
		samples := make(map[string][]float64, len(obs.Phases))
		totals := make([]float64, 0, iters)
		for i := 0; i < iters; i++ {
			_, qp, err := f.Proteus.ObservedQuerySQL(q)
			if err != nil {
				return nil, fmt.Errorf("bench: phase split %q: %w", q, err)
			}
			for _, sp := range qp.Phases {
				samples[sp.Name] = append(samples[sp.Name], sp.Dur.Seconds())
			}
			totals = append(totals, qp.Total.Seconds())
		}
		out = append(out, PhaseRow{
			Query:    q,
			Parse:    median(samples[obs.PhaseParse]),
			Calculus: median(samples[obs.PhaseCalculus]),
			Optimize: median(samples[obs.PhaseOptimize]),
			Compile:  median(samples[obs.PhaseCompile]),
			Execute:  median(samples[obs.PhaseExecute]),
			Total:    median(totals),
		})
	}
	return out, nil
}

// ObsOverhead measures the runtime cost of always-on observability: the
// ratio of median query time with Config.Observability on vs. off over the
// same generated dataset (1.0 = free; the budget is < 1.05, see DESIGN.md).
func ObsOverhead(sf float64, iters int) (float64, error) {
	return obsOverheadWith(sf, iters, engine.Config{Observability: true, PlanFeedbackSize: -1})
}

// ObsOverheadV2 measures the overhead of the full observability-v2 stack:
// per-query profiles, latency histograms, a slow-query log with a 1ns
// threshold (every query is logged, the worst case), and the per-plan
// feedback store — against the same engine with observability off. Morsel
// event sampling stays at its default (off) because it is opt-in.
func ObsOverheadV2(sf float64, iters int) (float64, error) {
	return obsOverheadWith(sf, iters, engine.Config{
		Observability:      true,
		SlowQueryThreshold: time.Nanosecond,
		SlowQueryWriter:    io.Discard,
	})
}

// obsOverheadWith is the shared harness: median query time under obsCfg
// divided by median query time with all observability off.
func obsOverheadWith(sf float64, iters int, obsCfg engine.Config) (float64, error) {
	if iters < 3 {
		iters = 3
	}
	t := GenTPCH(sf)
	build := func(obsOn bool) (*engine.Engine, error) {
		// The baseline engine turns every observability feature off,
		// including the default-enabled plan feedback store.
		cfg := engine.Config{PlanFeedbackSize: -1}
		if obsOn {
			cfg = obsCfg
		}
		e := engine.New(cfg)
		e.Mem().PutFile("mem://lineitem.json", t.LineitemJSON)
		if err := e.Register("lineitem_json", "mem://lineitem.json", "json", nil, plugin.Options{}); err != nil {
			return nil, err
		}
		return e, nil
	}
	const q = "SELECT COUNT(*), MAX(l_quantity), MAX(l_extendedprice), MAX(l_tax) FROM lineitem_json WHERE l_orderkey < 1000000000"
	run := func(e *engine.Engine) (float64, error) {
		// One warm-up run, then timed runs.
		if _, err := e.QuerySQL(q); err != nil {
			return 0, err
		}
		times := make([]float64, 0, iters)
		for i := 0; i < iters; i++ {
			sec, err := timeIt(func() error {
				_, err := e.QuerySQL(q)
				return err
			})
			if err != nil {
				return 0, err
			}
			times = append(times, sec)
		}
		return median(times), nil
	}
	plain, err := build(false)
	if err != nil {
		return 0, err
	}
	observed, err := build(true)
	if err != nil {
		return 0, err
	}
	base, err := run(plain)
	if err != nil {
		return 0, err
	}
	withObs, err := run(observed)
	if err != nil {
		return 0, err
	}
	if base <= 0 {
		return 0, fmt.Errorf("bench: degenerate baseline timing %g", base)
	}
	return withObs / base, nil
}

// median returns the middle value (lower-middle for even counts).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[(len(s)-1)/2]
}
