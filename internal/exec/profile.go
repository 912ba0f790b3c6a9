// Per-operator profiling for compiled programs.
//
// The instrumentation budget follows DESIGN.md "Observability": per-tuple
// work is at most one non-atomic increment on a worker-private cell (fused
// into the operator's own closure wherever possible), clock reads happen
// once per driver invocation (per morsel), and shared state is only touched
// at snapshot time, after the run's WaitGroup has settled. Wall-clock
// per-operator timing — one time.Now() pair per tuple per operator — is
// reserved for EXPLAIN ANALYZE (ProfileSpec.Timing) runs.
package exec

import (
	"sort"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/vbuf"
)

// ProfileSpec asks Compile/CompileParallel to instrument the generated
// closures. A nil spec (Env.Profile) compiles the exact unprofiled code.
type ProfileSpec struct {
	// Timing additionally wraps every operator with wall-clock measurement
	// of the pipeline above it (EXPLAIN ANALYZE). Untimed profiled runs pay
	// only row/batch counters.
	Timing bool
	// Events additionally records one span per scan-driver invocation (per
	// morsel) for trace export. Costs one time.Now() pair plus an append per
	// morsel — cheap, but off by default and sampled by the engine
	// (Config.TraceMorsels).
	Events bool
	// Estimates maps plan nodes (by identity) to the optimizer's
	// cardinality estimates, surfaced next to actuals in the profile.
	Estimates map[algebra.Node]float64
}

// opCounters is one worker's counter cell for one operator. Cells are
// worker-private and non-atomic: workers write disjoint cells, and the
// snapshot aggregates only after the run completes.
type opCounters struct {
	rows            int64
	batches         int64
	nanos           int64 // wall time spent in the pipeline above (timed runs)
	driverNanos     int64 // scan only: total time inside the scan driver
	cacheBuildNanos int64 // scan only: materializing cache blocks
	zoneSkips       int64 // scan windows this query skipped via zone maps
	idxHits         int64 // batches this query answered from a bitmap index
	scan            plugin.ScanProf
	// events holds this worker's per-morsel spans (ProfileSpec.Events only).
	events []obs.Span
}

type opNode struct{ per []opCounters }

// progProf is a compiled program's profiling state: per-operator counter
// cells (one per worker) plus last-run totals. It is created at compile
// time and shared by every pipeline clone of a parallel program.
type progProf struct {
	timing    bool
	events    bool
	workers   int
	plan      algebra.Node
	estimates map[algebra.Node]float64
	byNode    map[algebra.Node]*opNode

	// cacheHits counts scan fields served from materialized cache blocks.
	// It is a compile-time fact (analyzeScan binds the block before any run),
	// so it is set once and survives resetRun.
	cacheHits int64

	// Last-run state, written by the program's run wrapper and the
	// parallel coordinator (never concurrently with readers).
	totalNanos  int64
	workerSpans []obs.Span
}

func newProgProf(plan algebra.Node, spec *ProfileSpec, workers int) *progProf {
	return &progProf{
		timing:    spec.Timing,
		events:    spec.Events,
		workers:   workers,
		plan:      plan,
		estimates: spec.Estimates,
		byNode:    map[algebra.Node]*opNode{},
	}
}

// ctr returns a worker's counter cell for node n. Compilation is serial
// (the parallel compiler builds clones in a loop), so no lock is needed.
func (p *progProf) ctr(n algebra.Node, worker int) *opCounters {
	on, ok := p.byNode[n]
	if !ok {
		on = &opNode{per: make([]opCounters, p.workers)}
		p.byNode[n] = on
	}
	return &on.per[worker]
}

// resetRun re-arms the per-run state so each Run reports independently.
// Cells are zeroed in place: the plug-in closures captured pointers to
// them at compile time.
func (p *progProf) resetRun() {
	for _, on := range p.byNode {
		for i := range on.per {
			on.per[i] = opCounters{}
		}
	}
	p.totalNanos = 0
	p.workerSpans = nil
}

// snapshot aggregates worker cells into the operator-profile tree. Self
// time is derived from "time above" measurements: each timed wrapper
// records the time its operator's emissions spend in the pipeline above
// it, so self(n) = Σ above(children) − above(n); a leaf scan's self time
// is its driver time minus the time above it. The counters are keyed by
// the compiled plan's nodes; labels and estimates come from the bound
// plan, which has the same shape but its own literals.
func (p *progProf) snapshot(bd *Binding) *obs.OpProfile {
	shown, est := p.plan, p.estimates
	if bd != nil && bd.plan != nil {
		shown, est = bd.plan, bd.est
	}
	root, _ := p.buildOp(p.plan, shown, est)
	return root
}

func (p *progProf) buildOp(n, shown algebra.Node, est map[algebra.Node]float64) (*obs.OpProfile, int64) {
	var agg opCounters
	if on, ok := p.byNode[n]; ok {
		for i := range on.per {
			c := &on.per[i]
			agg.rows += c.rows
			agg.batches += c.batches
			agg.nanos += c.nanos
			agg.driverNanos += c.driverNanos
			agg.cacheBuildNanos += c.cacheBuildNanos
			agg.zoneSkips += c.zoneSkips
			agg.idxHits += c.idxHits
			agg.scan.Add(c.scan)
		}
	}
	op := &obs.OpProfile{Op: algebra.Label(shown), Rows: agg.rows, Batches: agg.batches}
	if e, ok := est[shown]; ok {
		op.EstRows = e
	}
	var childAbove int64
	for i, ch := range n.Children() {
		cp, above := p.buildOp(ch, shown.Children()[i], est)
		op.Children = append(op.Children, cp)
		childAbove += above
	}
	if p.timing {
		self := childAbove - agg.nanos
		if _, isScan := n.(*algebra.Scan); isScan {
			self = agg.driverNanos - agg.nanos
		}
		if self < 0 {
			self = 0
		}
		op.SelfNanos = self
	}
	if agg.scan != (plugin.ScanProf{}) {
		op.Extra = append(op.Extra,
			obs.Counter{Name: "bytes_read", Value: agg.scan.BytesRead},
			obs.Counter{Name: "fields_parsed", Value: agg.scan.FieldsParsed},
			obs.Counter{Name: "index_hits", Value: agg.scan.IndexHits})
	}
	if agg.cacheBuildNanos > 0 {
		op.Extra = append(op.Extra, obs.Counter{Name: "cache_build_nanos", Value: agg.cacheBuildNanos})
	}
	if agg.zoneSkips > 0 {
		op.Extra = append(op.Extra, obs.Counter{Name: "zone_skips", Value: agg.zoneSkips})
	}
	if agg.idxHits > 0 {
		op.Extra = append(op.Extra, obs.Counter{Name: "bitmap_hits", Value: agg.idxHits})
	}
	return op, agg.nanos
}

// eventsOf collects one worker's per-morsel spans across all operators,
// ordered by start time. Only meaningful after a run with events enabled.
func (p *progProf) eventsOf(worker int) []obs.Span {
	var out []obs.Span
	for _, on := range p.byNode {
		if worker < len(on.per) {
			out = append(out, on.per[worker].events...)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start.Before(out[j].Start) })
	return out
}

// Compiler-side instrumentation helpers ------------------------------------

// opCtr returns this worker's counter cell for n (nil when unprofiled).
func (c *Compiler) opCtr(n algebra.Node) *opCounters {
	if c.prof == nil {
		return nil
	}
	return c.prof.ctr(n, c.workerID)
}

// inlineRows returns the rows-out cell for operators that fuse counting
// into their own closures (untimed mode only; timed runs count in the
// consume wrapper instead).
func (c *Compiler) inlineRows(n algebra.Node) *int64 {
	if c.prof == nil || c.prof.timing {
		return nil
	}
	return &c.prof.ctr(n, c.workerID).rows
}

// rootRowsCell returns the rows cell for a blocking root operator
// (Reduce/Nest), which self-reports its output cardinality when the merged
// partial state materializes its result.
func (c *Compiler) rootRowsCell(n algebra.Node) *int64 {
	if c.prof == nil {
		return nil
	}
	return &c.prof.ctr(n, c.workerID).rows
}

// profKont wraps an operator's consume with row counting and, on timed
// runs, measurement of the time its emissions spend in the pipeline above.
func (c *Compiler) profKont(n algebra.Node, consume Kont) Kont {
	oc := c.opCtr(n)
	if oc == nil {
		return consume
	}
	rows := &oc.rows
	inner := consume
	if c.prof.timing {
		nanos := &oc.nanos
		return func(r *vbuf.Regs) error {
			*rows++
			t0 := time.Now()
			err := inner(r)
			*nanos += int64(time.Since(t0))
			return err
		}
	}
	return func(r *vbuf.Regs) error {
		*rows++
		return inner(r)
	}
}

// profScanRun wraps a scan driver with per-invocation (per-morsel)
// accounting: batches, driver wall time, and — untimed — the arithmetic
// rows-out count (scan drivers emit every record of their range, so no
// per-tuple counting is needed).
func (c *Compiler) profScanRun(s *algebra.Scan, run func(r *vbuf.Regs) error, rows int64) func(r *vbuf.Regs) error {
	oc := c.opCtr(s)
	if oc == nil {
		return run
	}
	countRows := !c.prof.timing
	events := c.prof.events
	name := "morsel " + s.Dataset
	return func(r *vbuf.Regs) error {
		oc.batches++
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
