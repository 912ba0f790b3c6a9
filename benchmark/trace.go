package main

import (
	"bytes"
	"context"
	"fmt"
	"runtime"
	"sort"
	"strings"
	"time"

	"proteus"
	"proteus/internal/algebra"
	"proteus/internal/calculus"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/optimizer"
	"proteus/internal/plugin"
	"proteus/internal/plugin/cachepg"
	"proteus/internal/vbuf"
)

// The traced pass splits an operation's time by layer without touching the
// engine: besides sending the operation the way the workload does, the
// harness replays it as the staged calls the engine itself makes — parse →
// calculus → optimize → compile → run — each inside a span. End-to-end
// metrics are never taken from this pass.

// staged is the outcome of one replayed operation.
type staged struct {
	plan                                     algebra.Node
	prog                                     *exec.Program
	res                                      *exec.Result
	parse, translate, optimize, compile, run time.Duration
	nodes                                    int
	parser                                   string // "sql" or "comp", the layer that parsed the text
}

// front is the part of the life-cycle a plan-cache hit skips.
func (st *staged) front() time.Duration { return st.parse + st.translate + st.optimize + st.compile }

// replay runs one query text through the engine's layers by hand, against
// the engine's own catalog, statistics and caches. workers is the morsel
// parallelism to compile for.
func replay(rec *recorder, id int, parent spanID, eng *engine.Engine, text string, workers int) (*staged, error) {
	st := &staged{}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0) // the engine's default Parallelism
	}
	var parse func(string) (*calculus.Comprehension, error)
	st.parser, parse = parserOf(text)
	sp := rec.begin(id, st.parser+".parse", parent)
	c, err := parse(text)
	st.parse = rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(id, "calculus.translate", parent)
	if err = calculus.ResolveColumns(c, eng); err == nil {
		st.plan, err = calculus.Translate(calculus.Normalize(c), eng)
	}
	st.translate = rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(id, "optimizer.optimize", parent)
	st.plan = optimizer.Optimize(st.plan, &optimizer.Env{Stats: eng.Stats(), Costs: eng})
	st.optimize = rec.end(sp)
	algebra.Walk(st.plan, func(algebra.Node) bool { st.nodes++; return true })

	var sortSpec *exec.SortSpec
	if len(c.OrderBy) > 0 || c.Limit > 0 {
		sortSpec = &exec.SortSpec{By: c.OrderBy, Desc: c.OrderDesc, Limit: c.Limit}
	}
	sp = rec.begin(id, "exec.compile", parent)
	// The huge budget changes no outcome; it makes the program keep the
	// memory gauge that MemPeak reads.
	st.prog, err = exec.CompileParallel(st.plan, &exec.Env{
		Catalog: eng, Caches: eng.Caches(), Stats: eng.Stats(), Sort: sortSpec, MemBudget: 1 << 50,
	}, workers)
	st.compile = rec.end(sp)
	if err != nil {
		return nil, err
	}

	sp = rec.begin(id, "exec.run", parent)
	st.res, err = st.prog.RunContext(context.Background())
	if err == nil && sortSpec != nil && !st.prog.Sorted {
		st.res, err = exec.OrderAndLimit(st.res, sortSpec.By, sortSpec.Desc, sortSpec.Limit)
	}
	st.run = rec.end(sp)
	return st, err
}

// layers accumulates per-layer observations: samples whose median is
// reported, and sums that feed ratios.
type layers struct {
	samples map[string][]float64
	sums    map[string]float64
	scans   map[string]*algebra.Scan // distinct (dataset, field list) pairs the plans scanned
}

func newLayers() *layers {
	return &layers{samples: map[string][]float64{}, sums: map[string]float64{}, scans: map[string]*algebra.Scan{}}
}

func (l *layers) add(name string, v float64) { l.samples[name] = append(l.samples[name], v) }
func (l *layers) sum(name string, v float64) { l.sums[name] += v }

func (l *layers) merge(o *layers) {
	for k, v := range o.samples {
		l.samples[k] = append(l.samples[k], v...)
	}
	for k, v := range o.sums {
		l.sums[k] += v
	}
	for k, v := range o.scans {
		l.scans[k] = v
	}
}

func (l *layers) median(name string) float64 { return median(l.samples[name]) }

func (l *layers) ratio(num, den string) float64 {
	if l.sums[den] == 0 {
		return 0
	}
	return l.sums[num] / l.sums[den]
}

func us(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// tracer is one client's view of the traced pass.
type tracer struct {
	sys  *system
	ref  *system // engine the in-process reference and the replay run on
	obs  *system // twin of ref with Observability and the slow-query log on
	rec  *recorder
	lay  *layers
	res  *result
	next int // next operation id
	step int // ids advance by step, so concurrent clients never collide
	buf  bytes.Buffer
	sent *phase // latency of the operations as sent

	serial bool // also run each program serially, for exec.par_speedup
}

// sentOp is an operation the tracer has sent and not yet inspected.
type sentOp struct {
	id      int
	root    spanID
	latency time.Duration // 0 when the in-process call of inspect is the operation itself
}

// one traces a single operation.
func (t *tracer) one(o *op) { t.inspect(o, t.send(o)) }

// send opens the operation's root span and sends the operation the way the
// workload does: over HTTP on svc, to the coordinator on cluster3. Elsewhere
// the workload's own call is the in-process one inspect makes.
func (t *tracer) send(o *op) sentOp {
	id := t.next
	t.next += t.step
	rec, lay := t.rec, t.lay
	root := rec.begin(id, "op "+o.Label, noSpan)
	var sent time.Duration
	switch {
	case t.sys.http != nil:
		sp := rec.begin(id, "server.request", root)
		rep, err := t.sys.post(o, &t.buf)
		end := rec.end(sp)
		// The two halves of the request, cut at the first body byte.
		start := rec.spans[sp].Start
		rec.spans = append(rec.spans,
			span{Name: "server.ttfb", Op: id, Parent: sp, Start: start, End: start + rep.TTFB},
			span{Name: "server.body", Op: id, Parent: sp, Start: start + rep.TTFB, End: start + end})
		var got digest
		if err == nil {
			got, _, err = bodyDigest(rep)
		}
		t.res.check(o, got, err)
		if rep.Status == 429 {
			lay.sum("server.rejected", 1)
		}
		sent = rep.Latency
		lay.add("server.request_ms", ms(rep.Latency))
		lay.add("server.ttfb_ms", ms(rep.TTFB))
		if o.Kind == kindStream {
			lay.sum("stream_bytes", float64(len(rep.Body)))
		}
	case t.sys.local != nil:
		sp := rec.begin(id, "cluster.query", root)
		_, got, err := t.sys.run(o)
		sent = rec.end(sp)
		t.res.check(o, got, err)
		lay.add("cluster.query_ms", ms(sent))
		lay.sum("cluster.attempted", 1)
		if err == nil {
			lay.sum("cluster.scattered", 1)
		}
	}
	return sentOp{id, root, sent}
}

// inspect takes a sent operation apart in-process, under its root span. On
// svc the service is idle meanwhile (see traced), so neither side's timings
// include waiting for the other.
func (t *tracer) inspect(o *op, s sentOp) {
	id, root, sent := s.id, s.root, s.latency
	rec, lay := t.rec, t.lay
	defer rec.end(root)

	// 2. The same text in-process on a stand-alone engine.
	eng := t.ref.db.Engine()
	hits0 := eng.Metrics().PlanCacheHits
	sp := rec.begin(id, "engine.query", root)
	_, got, _, err := query(t.ref.db, o)
	q := rec.end(sp)
	hit := eng.Metrics().PlanCacheHits > hits0
	if t.sys.http == nil && t.sys.local == nil {
		t.res.check(o, got, err)
		sent = q
	} else if err != nil || got.Rows != o.ref.Rows {
		t.res.fail("%s: in-process reference: %v rows, %v", o.Label, got.Rows, err)
	}
	lay.add("engine.query_ms", ms(q))
	t.sent.add(o, sent)

	// 3. The staged replay.
	sp = rec.begin(id, "replay", root)
	st, err := replay(rec, id, sp, eng, o.Text, t.ref.cfg.Parallelism)
	rec.end(sp)
	if err != nil {
		t.res.fail("%s: staged replay: %v", o.Label, err)
		return
	}
	if d := digestRows(st.res.Rows, o.Ordered); d.Rows != got.Rows || (t.sys.http == nil && d != o.ref) {
		t.res.fail("%s: staged replay answered %v, engine %v", o.Label, d, got)
	}
	lay.add(st.parser+".parse_us", us(st.parse))
	lay.add("calculus.translate_us", us(st.translate))
	lay.add("optimizer.optimize_us", us(st.optimize))
	lay.add("optimizer.plan_nodes", float64(st.nodes))
	lay.add("exec.compile_us", us(st.compile))
	lay.add("exec.run_ms", ms(st.run))
	lay.add("exec.mem_peak_mb", float64(st.prog.MemPeak())/1e6)
	lay.sum("run_s", st.run.Seconds())
	lay.sum("run_rows", float64(o.Rows))
	for _, sc := range algebra.Scans(st.plan) {
		lay.scans[sc.Dataset+"\x00"+strings.Join(sc.Fields, ",")] = sc
	}

	// What the engine call did that the replayed stages do not account
	// for: bookkeeping, admission, feedback, plan-cache lookup.
	work := st.run
	if !hit {
		work += st.front()
	}
	lay.add("engine.self_us", us(q-work))
	lay.add("replay_vs_query", work.Seconds()/q.Seconds())
	if t.sys.http != nil {
		// The reference call above found the plan the request had just
		// compiled and cached; the request itself skipped the front end
		// only for prepared and streamed statements, whose texts repeat.
		engineSide := q
		if o.Kind == kindQuery {
			engineSide += st.front()
		}
		self := sent - engineSide
		lay.add("server.self_ms", ms(self))
		if o.Kind == kindStream {
			lay.sum("stream_self_s", self.Seconds())
		}
	}

	// 4. The same program compiled serial and morsel-parallel, with one P
	// per CPU for the comparison (first round only): what a second core
	// buys when the host grants one.
	if t.serial {
		procs := runtime.GOMAXPROCS(runtime.NumCPU())
		ser, err1 := replay(newRecorder(), id, noSpan, eng, o.Text, 1)
		par, err2 := replay(newRecorder(), id, noSpan, eng, o.Text, runtime.NumCPU())
		runtime.GOMAXPROCS(procs)
		if err1 == nil && err2 == nil {
			lay.sum("serial_run_s", ser.run.Seconds())
			lay.sum("parallel_run_s", par.run.Seconds())
		}
	}

	// 5. The same call with observability on, interleaved.
	sp = rec.begin(id, "obs.query", root)
	_, _, _, err = query(t.obs.db, o)
	lay.sum("obs_on_s", rec.end(sp).Seconds())
	lay.sum("obs_off_s", q.Seconds())
	if err != nil {
		t.res.fail("%s: with observability on: %v", o.Label, err)
	}

	// 6. One fragment by hand: what a worker and the gather merge do.
	if t.sys.local != nil {
		if err := t.fragment(id, root, st.plan); err != nil {
			t.res.fail("%s: fragment replay: %v", o.Label, err)
		}
	}
}

// fragment replays the first of three morsels of plan's driving scan:
// compile and run the fragment, encode its partial state on the wire
// format, decode it, and merge it.
func (t *tracer) fragment(id int, parent spanID, plan algebra.Node) error {
	eng := t.ref.db.Engine()
	drive := exec.DrivingScan(plan)
	if drive == nil {
		return fmt.Errorf("plan has no driving scan")
	}
	ds, in, err := eng.Dataset(drive.Dataset)
	if err != nil {
		return err
	}
	part, ok := in.(plugin.Partitioner)
	if !ok {
		return fmt.Errorf("%s cannot be partitioned", drive.Dataset)
	}
	morsels, err := part.PartitionScan(ds, len(t.sys.nodes))
	if err != nil || len(morsels) == 0 {
		return fmt.Errorf("partitioning %s: %v", drive.Dataset, err)
	}
	env := &exec.Env{Catalog: eng, Caches: eng.Caches(), Stats: eng.Stats()}
	rec, lay := t.rec, t.lay

	sp := rec.begin(id, "exec.fragment_run", parent)
	var partial *exec.Partial
	fp, err := exec.CompileFragment(plan, env, morsels[0].Start, morsels[0].End)
	if err == nil {
		partial, err = fp.RunContext(context.Background())
	}
	lay.add("exec.fragment_run_ms", ms(rec.end(sp)))
	if err != nil {
		return err
	}

	t.buf.Reset()
	sp = rec.begin(id, "exec.fragment_encode", parent)
	err = partial.EncodeStream(&t.buf)
	lay.add("exec.fragment_encode_ms", ms(rec.end(sp)))
	if err != nil {
		return err
	}
	lay.add("exec.fragment_kb", float64(t.buf.Len())/1e3)

	sp = rec.begin(id, "exec.fragment_decode", parent)
	decoded, err := exec.DecodePartialStream(&t.buf)
	lay.add("exec.fragment_decode_ms", ms(rec.end(sp)))
	if err != nil {
		return err
	}

	state, err := exec.CompileMergeState(plan, env)
	if err != nil {
		return err
	}
	sp = rec.begin(id, "exec.merge", parent)
	err = state.Merge(decoded)
	lay.add("exec.merge_ms", ms(rec.end(sp)))
	return err
}

// obsTwin builds the observability-on counterpart of a system's reference
// engine and warms it like the original.
func obsTwin(ref *system, warm []op) (*system, error) {
	twin, err := ref.twin(func(c *proteus.Config) {
		c.ClusterWorkers = nil
		c.Observability = true
		c.SlowQueryThreshold = time.Hour // log armed, nothing slow enough to enter it
	})
	if err == nil && ref.cfg.CacheEnabled && warm != nil {
		err = twin.warm(warm)
	}
	return twin, err
}

// traced runs a short untraced pass (for the tracing overhead ratio), then
// the traced pass, then the layer probes, and fills the per-layer metrics.
func (w *workload) traced(d *data, sys *system, opt options, res *result) (*system, error) {
	short := opt
	short.Seconds = opt.Seconds / 4
	scratch := &result{Metrics: map[string]metric{}}
	sys, err := w.timed(d, sys, short, scratch, []float64{0})
	if err != nil {
		return sys, err
	}
	res.absorb(scratch)
	untracedP50 := scratch.Metrics["query_p50_ms"].Value

	budget := time.Duration((opt.Seconds - short.Seconds) * float64(time.Second))
	lay := newLayers()
	rec := newRecorder()
	sent := newPhase()
	start := time.Now()
	var cacheBytes int64

	switch {
	case sys.http != nil:
		var warm []op
		for c := range d.rounds {
			warm = append(warm, d.rounds[c][0]...)
		}
		obs, err := obsTwin(sys, warm)
		if err != nil {
			return sys, err
		}
		tracers := make([]*tracer, d.clients)
		for c := range tracers {
			tracers[c] = &tracer{sys: sys, ref: sys, obs: obs, rec: &recorder{epoch: rec.epoch}, lay: newLayers(),
				res: &result{}, next: c, step: d.clients, sent: newPhase()}
		}
		// Round by round: first every client sends its round concurrently,
		// which is the workload as the untraced phase runs it; then, with
		// the service idle, the rounds are inspected one operation at a
		// time. Interleaved per operation, one client's replay would sit in
		// the other client's request latency.
		inFlight := make([][]sentOp, d.clients)
		start = time.Now() // building and warming the twin is not part of the pass
		for r := 0; time.Since(start) < budget; r++ {
			// The engine's plan-cache counters are read around the send
			// phase, so the in-process calls of inspect, which always hit,
			// are not in the ratio.
			before := sys.db.Metrics()
			err := runClients(d.clients, func(c int) error {
				inFlight[c] = inFlight[c][:0]
				round := d.rounds[c][r%len(d.rounds[c])]
				for i := range round {
					inFlight[c] = append(inFlight[c], tracers[c].send(&round[i]))
				}
				return nil
			})
			if err != nil {
				return sys, err
			}
			after := sys.db.Metrics()
			lay.sum("plan_hits", float64(after.PlanCacheHits-before.PlanCacheHits))
			lay.sum("plan_lookups", float64(after.PlanCacheHits-before.PlanCacheHits+after.PlanCacheMisses-before.PlanCacheMisses))
			for c, t := range tracers {
				round := d.rounds[c][r%len(d.rounds[c])]
				for i := range round {
					t.inspect(&round[i], inFlight[c][i])
				}
			}
		}
		for _, t := range tracers {
			sent.merge(t.sent)
			lay.merge(t.lay)
			rec.absorb(t.rec)
			res.absorb(t.res)
		}
	default:
		t := &tracer{sys: sys, rec: rec, lay: lay, res: res, step: 1, serial: true, sent: newPhase()}
		for round := 0; time.Since(start) < budget; round++ {
			if w.coldRounds {
				sys.close()
				if sys, err = w.setup(d); err != nil {
					return nil, err
				}
				t.sys, t.obs = sys, nil
			}
			t.ref = sys
			if sys.local != nil {
				t.ref = sys.local
			}
			if t.obs == nil {
				warm := d.ops
				if w.coldRounds {
					warm = nil // the twin starts as cold as the pass it shadows
				}
				if t.obs, err = obsTwin(t.ref, warm); err != nil {
					return sys, err
				}
			}
			for i := range d.ops {
				t.one(&d.ops[i])
			}
			t.serial = false
			cacheBytes = sys.db.CacheStats().Bytes
		}
		sent.merge(t.sent)
	}

	ref := sys
	if sys.local != nil {
		ref = sys.local
	}
	w.fillLayers(d, sys, ref, lay, res, sent.typical()/untracedP50, cacheBytes)
	res.recorder = rec
	return sys, nil
}

// fillLayers turns the accumulated observations into the per-layer metrics.
// Every metric is reported on every workload; a layer the workload does not
// exercise reads 0.
func (w *workload) fillLayers(d *data, sys, ref *system, lay *layers, res *result, traceOverhead float64, cacheBytes int64) {
	m := res.Metrics
	med := func(name, unit string) { m[name] = metric{lay.median(name), unit} }
	med("sql.parse_us", "us")
	med("comp.parse_us", "us")
	med("calculus.translate_us", "us")
	med("optimizer.optimize_us", "us")
	med("optimizer.plan_nodes", "count")
	med("exec.compile_us", "us")
	med("exec.run_ms", "ms")
	m["exec.run_rows_per_s"] = metric{lay.ratio("run_rows", "run_s"), "rows/s"}
	m["exec.par_speedup"] = metric{lay.ratio("serial_run_s", "parallel_run_s"), "ratio"}
	m["exec.mem_peak_mb"] = metric{quantile(sorted(lay.samples["exec.mem_peak_mb"]), 1), "MB"}

	for f, probe := range probeScans(ref, lay.scans) {
		m["plugin."+f+".open_ms"] = metric{ms(ref.opened[f]), "ms"}
		m["plugin."+f+".scan_ns_per_row"] = metric{probe.nsPerRow(), "ns/row"}
		m["plugin."+f+".bytes_per_row"] = metric{probe.per(probe.prof.BytesRead), "B/row"}
		m["plugin."+f+".fields_per_row"] = metric{probe.per(probe.prof.FieldsParsed), "fields/row"}
	}

	// Cache counters of the engine the workload ran on. On cold rounds
	// this is the last pass's engine, i.e. one full pass from empty.
	eng := ref.db.Engine()
	snap, cs := eng.Metrics(), ref.db.CacheStats()
	m["cache.hit_ratio"] = metric{share(cs.Hits, cs.Misses), "ratio"}
	m["cache.bytes_mb"] = metric{float64(cs.Bytes) / 1e6, "MB"}
	m["cache.build_ms"] = metric{float64(cs.BuildNanos) / 1e6, "ms"}
	m["cache.index_hits"] = metric{float64(cs.IndexHits), "count"}
	m["cache.zone_skips"] = metric{float64(cs.ZoneSkips), "count"}
	m["cache.index_mb"] = metric{float64(cs.IndexBytes) / 1e6, "MB"}
	m["cache.evictions"] = metric{float64(cs.Evictions), "count"}
	m["cache.hit_ratio_constrained"] = metric{0, "ratio"}
	if w.coldRounds && cacheBytes > 0 {
		// One more pass with a quarter of the cache the unbounded pass
		// ended up holding: the working set no longer fits.
		if tight, err := setupSpam(d, cacheBytes/4); err != nil {
			res.fail("constrained pass: %v", err)
		} else {
			for i := range d.ops {
				_, got, _, err := query(tight.db, &d.ops[i])
				res.check(&d.ops[i], got, err)
			}
			ts := tight.db.CacheStats()
			m["cache.evictions"] = metric{float64(ts.Evictions), "count"}
			m["cache.hit_ratio_constrained"] = metric{share(ts.Hits, ts.Misses), "ratio"}
		}
	}

	med("engine.query_ms", "ms")
	med("engine.self_us", "us")
	m["engine.plan_cache_hit_ratio"] = metric{share(snap.PlanCacheHits, snap.PlanCacheMisses), "ratio"}
	if sys.http != nil {
		// The HTTP requests alone; see traced.
		m["engine.plan_cache_hit_ratio"] = metric{lay.ratio("plan_hits", "plan_lookups"), "ratio"}
	}
	m["obs.overhead_ratio"] = metric{lay.ratio("obs_on_s", "obs_off_s"), "ratio"}

	med("server.request_ms", "ms")
	med("server.ttfb_ms", "ms")
	med("server.self_ms", "ms")
	m["server.encode_mb_per_s"] = metric{lay.ratio("stream_bytes", "stream_self_s") / 1e6, "MB/s"}
	m["server.rejected"] = metric{lay.sums["server.rejected"], "count"}

	med("cluster.query_ms", "ms")
	m["cluster.tax_ratio"] = metric{0, "ratio"}
	if q := lay.median("engine.query_ms"); sys.local != nil && q > 0 {
		m["cluster.tax_ratio"] = metric{lay.median("cluster.query_ms") / q, "ratio"}
	}
	m["cluster.scatter_ratio"] = metric{lay.ratio("cluster.scattered", "cluster.attempted"), "ratio"}
	coord := sys.db.Engine().Metrics()
	m["cluster.fallbacks"] = metric{float64(coord.ClusterFallbacks), "count"}
	m["cluster.retries"] = metric{float64(coord.ClusterRetries), "count"}
	m["cluster.hedges"] = metric{float64(coord.ClusterHedges), "count"}
	if sys.local != nil && m["cluster.scatter_ratio"].Value < 1 {
		res.fail("cluster3 scattered only %.0f of %.0f operations: the workload is not measuring the cluster",
			lay.sums["cluster.scattered"], lay.sums["cluster.attempted"])
	}
	med("exec.fragment_run_ms", "ms")
	med("exec.fragment_encode_ms", "ms")
	med("exec.fragment_decode_ms", "ms")
	med("exec.merge_ms", "ms")
	med("exec.fragment_kb", "KB")

	m["storage.file_mb"] = metric{float64(eng.Mem().FileBytes()) / 1e6, "MB"}
	m["storage.arena_used_mb"] = metric{float64(eng.Mem().ArenaUsed()) / 1e6, "MB"}

	m["benchmark.trace_overhead_ratio"] = metric{traceOverhead, "ratio"}
	m["benchmark.replay_vs_query"] = metric{lay.median("replay_vs_query"), "ratio"}
	m["benchmark.verify_s"] = metric{res.VerifyS, "s"}
}

func share(hits, misses int64) float64 {
	if hits+misses == 0 {
		return 0
	}
	return float64(hits) / float64(hits+misses)
}

func sorted(v []float64) []float64 {
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	return s
}

// scanProbe is the outcome of driving bare scans of one format.
type scanProbe struct {
	rows    int64
	elapsed time.Duration
	prof    plugin.ScanProf
}

func (p *scanProbe) nsPerRow() float64 {
	if p.rows == 0 {
		return 0
	}
	return float64(p.elapsed.Nanoseconds()) / float64(p.rows)
}

func (p *scanProbe) per(n int64) float64 {
	if p.rows == 0 {
		return 0
	}
	return float64(n) / float64(p.rows)
}

// probeScans drives every distinct (dataset, field list) the workload's
// plans scanned through the bare plug-in scan driver with a consumer that
// does nothing — the access path alone, no operators. Field lists whose
// columns all sit in the cache are also driven through cachepg. The result
// has an entry for each of csv, json, bin and cache.
func probeScans(sys *system, scans map[string]*algebra.Scan) map[string]*scanProbe {
	out := map[string]*scanProbe{"csv": {}, "json": {}, "bin": {}, "cache": {}}
	eng := sys.db.Engine()
	keys := make([]string, 0, len(scans))
	for k := range scans {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	noop := func() error { return nil }
	for _, k := range keys {
		sc := scans[k]
		ds, in, err := eng.Dataset(sc.Dataset)
		if err != nil {
			continue
		}
		schema := in.Schema(ds)
		var alloc vbuf.Alloc
		var fields []plugin.FieldReq
		for _, path := range sc.Fields {
			if t, ok := schema.Lookup(path); ok && t.Kind().IsScalar() {
				fields = append(fields, plugin.FieldReq{Path: []string{path}, Slot: alloc.ForType(t), Type: t})
			}
		}
		if len(fields) == 0 {
			continue
		}
		rows := in.Cardinality(ds)

		probe := out[ds.Format]
		run, err := in.CompileScan(ds, plugin.ScanSpec{Fields: fields, Prof: &probe.prof})
		if err != nil {
			continue
		}
		t0 := time.Now()
		if run(vbuf.NewRegs(&alloc), noop) == nil {
			probe.elapsed += time.Since(t0)
			probe.rows += rows
		}

		// The same field list from the cache, when every column is there.
		if !eng.Caches().Enabled() {
			continue
		}
		var loaders []cachepg.Loader
		for _, f := range fields {
			if !eng.Caches().Has(sc.Dataset, f.Path[0]) {
				break
			}
			blk, ok := eng.Caches().Lookup(sc.Dataset, f.Path[0])
			if !ok || blk.Rows != rows {
				break
			}
			ld, err := cachepg.CompileLoader(blk, f.Slot)
			if err != nil {
				break
			}
			loaders = append(loaders, ld)
		}
		if len(loaders) != len(fields) {
			continue
		}
		probe = out["cache"]
		run = cachepg.CompileScan(rows, loaders, nil, nil, &probe.prof, nil, nil)
		t0 = time.Now()
		if run(vbuf.NewRegs(&alloc), noop) == nil {
			probe.elapsed += time.Since(t0)
			probe.rows += rows
		}
	}
	return out
}
