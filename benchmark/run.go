package main

import (
	"bytes"
	"errors"
	"fmt"
	"math"
	"runtime"
	"sort"
	"time"
)

// data is everything one run of a workload is made from: generated tables
// and the seed-determined operation list.
type data struct {
	tpch  *tpch // full-size TPC-H subset
	small *tpch // the 1 000-row trio of adhoc_compile
	spam  *spam

	// ops is one round of a single-client workload. svc has one list of
	// rounds per client instead, plus the statements it prepares.
	ops      []op
	rounds   [][][]op
	prepared []op
	clients  int
}

func (d *data) tables() []*table {
	var ts []*table
	for _, t := range []*tpch{d.tpch, d.small} {
		if t != nil {
			ts = append(ts, t.Lineitem, t.Orders, t.Clerk)
		}
	}
	if d.spam != nil {
		ts = append(ts, d.spam.Feed, d.spam.Class, d.spam.Hist)
	}
	return ts
}

// workload describes one of the seven workloads.
type workload struct {
	Name string // as declared, with its rationale, in BENCHMARK.json
	// generate builds the inputs and the operation list from the seed.
	generate func(r *rng, sc scale, clients int) (*data, error)
	// setup builds the system under test; setup_s is its duration.
	setup func(d *data) (*system, error)
	// coldRounds: every round starts from a fresh set-up (spam_mix), and
	// operations run in list order because cache state builds along it.
	coldRounds bool
	// volcanoRef: operations are checked against the Volcano reference;
	// otherwise (svc) against the in-process result on the same engine.
	volcanoRef bool
}

var workloads = []workload{
	{
		Name: "raw_scan", volcanoRef: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			t, err := genTPCH(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			return &data{tpch: t, ops: shuffled(r.fork(3), rawScanOps(t))}, nil
		},
		setup: setupRawScan,
	},
	{
		Name: "warm_cache", volcanoRef: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			t, err := genTPCH(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			return &data{tpch: t, ops: shuffled(r.fork(3), warmCacheOps(r.fork(2)))}, nil
		},
		setup: setupWarmCache,
	},
	{
		Name: "join_sort", volcanoRef: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			t, err := genTPCH(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			return &data{tpch: t, ops: shuffled(r.fork(3), joinSortOps(t, r.fork(2)))}, nil
		},
		setup: setupJoinSort,
	},
	{
		Name: "spam_mix", volcanoRef: true, coldRounds: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			s, err := genSpam(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			return &data{spam: s, ops: spamOps(s, r.fork(2))}, nil
		},
		setup: func(d *data) (*system, error) { return setupSpam(d, 0) },
	},
	{
		Name: "adhoc_compile", volcanoRef: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			t, err := genTPCH(r.fork(1), scale{Lineitem: 1000, Orders: 250, Clerks: 20})
			if err != nil {
				return nil, err
			}
			return &data{small: t, ops: adhocOps(t, r.fork(2), 512)}, nil
		},
		setup: setupAdhoc,
	},
	{
		Name: "svc",
		generate: func(r *rng, sc scale, clients int) (*data, error) {
			t, err := genTPCH(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			d := &data{tpch: t, clients: clients}
			// All clients execute the same prepared statements and streams;
			// ad-hoc texts and the request order are each client's own.
			var streams []op
			d.prepared, streams = svcShared(r.fork(2))
			for c := 0; c < clients; c++ {
				d.rounds = append(d.rounds, svcClientRounds(r.fork(uint64(10+c)), d.prepared, streams, 16))
			}
			return d, nil
		},
		setup: setupSvc,
	},
	{
		Name: "cluster3", volcanoRef: true,
		generate: func(r *rng, sc scale, _ int) (*data, error) {
			t, err := genTPCH(r.fork(1), sc)
			if err != nil {
				return nil, err
			}
			return &data{tpch: t, ops: shuffled(r.fork(3), clusterOps(t, r.fork(2)))}, nil
		},
		setup: setupCluster,
	},
}

// shuffled puts one round of operations into the seeded order every round
// runs them in, so that no template always follows the same neighbour.
func shuffled(r *rng, ops []op) []op {
	shuffle(r, ops)
	return ops
}

func findWorkload(name string) *workload {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i]
		}
	}
	return nil
}

// options are the knobs of one run.
type options struct {
	Seed    uint64
	Seconds float64
	Scale   float64
	Trace   bool
	Setups  int // how many times the system is set up; setup_s is the median
	Clients int
}

// metric is one reported number.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the outcome of one run of one workload.
type result struct {
	Workload  string            `json:"workload"`
	Seed      uint64            `json:"seed"`
	Trace     bool              `json:"trace"`
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Samples   int               `json:"samples"` // timed operations behind the percentiles
	Metrics   map[string]metric `json:"metrics"`
	InputHash string            `json:"input_sha256"`
	OpsHash   string            `json:"ops_sha256"`
	Failures  []string          `json:"failures,omitempty"` // first few, for diagnosis
	// Templates is the median latency (ms) of each operation template of the
	// untraced phase — which operator moved, when an end-to-end metric did.
	Templates map[string]float64 `json:"template_p50_ms,omitempty"`
	GenS      float64            `json:"gen_s"`
	VerifyS   float64            `json:"verify_s"`

	recorder *recorder
	// heapBefore is the live heap when the run began: what earlier runs of
	// the same process still hold, which is not this workload's.
	heapBefore uint64
}

func (res *result) fail(format string, args ...any) {
	res.Failed++
	if len(res.Failures) < 5 {
		res.Failures = append(res.Failures, fmt.Sprintf(format, args...))
	}
}

// absorb adds the counts of a part of the run that was checked on its own.
func (res *result) absorb(o *result) {
	res.Attempted += o.Attempted
	res.Failed += o.Failed
	res.Failures = append(res.Failures, o.Failures...)
}

// check counts one finished operation against its reference digest.
func (res *result) check(o *op, got digest, err error) {
	res.Attempted++
	switch {
	case err != nil:
		res.fail("%s: %v", o.Label, err)
	case got != o.ref:
		res.fail("%s: got %v, reference %v: %s", o.Label, got, o.ref, o.Text)
	}
}

// run executes one workload once: generate, answer by reference, set up,
// verify, then either the timed untraced phase (end-to-end metrics) or the
// traced pass (per-layer metrics).
func (w *workload) run(opt options) (*result, error) {
	res := &result{Workload: w.Name, Seed: opt.Seed, Trace: opt.Trace, Metrics: map[string]metric{}}
	runtime.GC()
	res.heapBefore = memNow().HeapAlloc
	t0 := time.Now()
	d, err := w.generate(newRng(opt.Seed), fullScale.times(opt.Scale), opt.Clients)
	if err != nil {
		return nil, fmt.Errorf("generating inputs: %w", err)
	}
	res.InputHash, res.OpsHash = hashTables(d.tables()...), hashOps(d.allRounds()...)
	res.GenS = time.Since(t0).Seconds()

	// Reference answers, before anything is timed. The boxed reference
	// rows and the typed columns are released afterwards: from here on the
	// process holds what a deployment would — file images and engines.
	t0 = time.Now()
	if w.volcanoRef {
		if err := newReference(d.tables()...).fill(d.ops); err != nil {
			return nil, err
		}
	}
	for _, t := range d.tables() {
		t.Cols, t.Nest = nil, nil
	}
	verify := time.Since(t0)

	// Set-up, several times over; the last one is measured on. A set-up of
	// a few milliseconds (adhoc_compile) is repeated until the set-ups add
	// up to half a second, or its median is timer noise. The traced pass
	// reports no set-up time and sets up once.
	var setups []float64
	var sys *system
	for total := 0.0; len(setups) == 0 || !opt.Trace && (len(setups) < opt.Setups || total < 0.5 && len(setups) < 50); {
		sys.close()
		sys = nil
		runtime.GC()
		t0 = time.Now()
		if sys, err = w.setup(d); err != nil {
			return nil, fmt.Errorf("set-up: %w", err)
		}
		setups = append(setups, time.Since(t0).Seconds())
		total += setups[len(setups)-1]
	}
	defer func() { sys.close() }()
	if !opt.Trace && !w.coldRounds {
		// Nothing is set up again, so the tables are needed no more. What
		// an engine registered stays reachable through it; what none did is
		// the harness's alone and must not count as the workload's heap.
		d.tpch, d.small, d.spam = nil, nil, nil
	}

	// Verification: every distinct operation once, on the set-up system.
	t0 = time.Now()
	if err := w.verify(d, sys, res); err != nil {
		return nil, err
	}
	verify += time.Since(t0)
	res.VerifyS = verify.Seconds()

	if opt.Trace {
		sys, err = w.traced(d, sys, opt, res)
	} else {
		sys, err = w.timed(d, sys, opt, res, setups)
	}
	res.Correct = err == nil && res.Failed == 0
	return res, err
}

func (d *data) allRounds() [][]op {
	rounds := [][]op{d.ops, d.prepared}
	for _, c := range d.rounds {
		rounds = append(rounds, c...)
	}
	return rounds
}

// verify answers every distinct operation once and compares it with its
// reference. On svc and cluster3 the reference of the timed phase is the
// in-process result of a stand-alone engine, compared row for row.
func (w *workload) verify(d *data, sys *system, res *result) error {
	switch {
	case sys.http != nil:
		var buf bytes.Buffer
		seen := map[string]digest{}
		for c := range d.rounds {
			for r := range d.rounds[c] {
				for i := range d.rounds[c][r] {
					o := &d.rounds[c][r][i]
					o.Rows = sys.inputRows(o.Text)
					if ref, ok := seen[o.Text]; ok {
						o.ref = ref
						continue
					}
					_, _, local, err := query(sys.db, o)
					if err != nil {
						return fmt.Errorf("verifying %s in-process: %w", o.Label, err)
					}
					rep, err := sys.post(o, &buf)
					if err != nil {
						return fmt.Errorf("verifying %s over HTTP: %w", o.Label, err)
					}
					got, rows, err := bodyDigest(rep)
					if err == nil {
						err = sameRows(rows, local)
					}
					res.Attempted++
					if err != nil {
						res.fail("%s: %v: %s", o.Label, err, o.Text)
					}
					o.ref, seen[o.Text] = got, got
				}
			}
		}
	default:
		for i := range d.ops {
			o := &d.ops[i]
			o.Rows = sys.inputRows(o.Text)
			if w.coldRounds {
				continue // checked inside every cold pass instead
			}
			_, got, err := sys.run(o)
			res.check(o, got, err)
			if sys.local != nil && err == nil {
				// Distributed and stand-alone execution must agree row
				// for row: the gather merge is morsel-ordered.
				_, _, local, lerr := query(sys.local.db, o)
				_, _, dist, derr := query(sys.db, o)
				if err := errors.Join(lerr, derr); err != nil {
					return fmt.Errorf("verifying %s: %w", o.Label, err)
				}
				if a, b := digestRows(local.Rows, true), digestRows(dist.Rows, true); a != b {
					res.fail("%s: distributed %v differs from stand-alone %v in row order or content", o.Label, b, a)
				}
			}
		}
	}
	return nil
}

// phase accumulates the timed phase of one client. The variants of one
// template differ in cost, so every distinct operation (op.Pool) has its own
// samples and its own median.
type phase struct {
	byOp  map[string]*opSamples
	ops   int
	busyS float64 // seconds the client spent in whole rounds of the list
}

// opSamples are the timed runs of one distinct operation.
type opSamples struct {
	label string
	ms    []float64
}

func newPhase() *phase { return &phase{byOp: map[string]*opSamples{}} }

func (ph *phase) add(o *op, lat time.Duration) {
	v := ph.byOp[o.Pool]
	if v == nil {
		v = &opSamples{label: o.Label}
		ph.byOp[o.Pool] = v
	}
	v.ms = append(v.ms, ms(lat))
	ph.ops++
}

// merge adds another client's phase. Clients run side by side, so busyS
// stays the longest client's: the wall time of them all.
func (ph *phase) merge(o *phase) {
	for k, v := range o.byOp {
		if mine := ph.byOp[k]; mine != nil {
			mine.ms = append(mine.ms, v.ms...)
		} else {
			ph.byOp[k] = v
		}
	}
	ph.ops += o.ops
	ph.busyS = max(ph.busyS, o.busyS)
}

// typical is the latency of a typical operation: the geometric mean, over
// every operation run, of the median latency of that operation. A workload
// mixes operations whose latencies differ by orders of magnitude, and the
// median of the pooled samples then sits on the edge between two of them
// and jumps from one to the other on a 2 % shift. Each operation's own
// median is steady, and the geometric mean moves by x/k % when one of k
// equally frequent operations moves by x %.
func (ph *phase) typical() float64 {
	var logs float64
	for _, v := range ph.byOp {
		logs += float64(len(v.ms)) * math.Log(median(v.ms))
	}
	return math.Exp(logs / float64(ph.ops))
}

// p95 is the 95th percentile of the latency of every operation of the
// phase, pooled: nineteen in twenty callers waited no longer.
func (ph *phase) p95() float64 {
	pooled := make([]float64, 0, ph.ops)
	for _, v := range ph.byOp {
		pooled = append(pooled, v.ms...)
	}
	sort.Float64s(pooled)
	return quantile(pooled, 0.95)
}

// templates is the median latency (ms) of each template, its variants pooled.
func (ph *phase) templates() map[string]float64 {
	pooled := map[string][]float64{}
	for _, v := range ph.byOp {
		pooled[v.label] = append(pooled[v.label], v.ms...)
	}
	out := map[string]float64{}
	for label, v := range pooled {
		out[label] = median(v)
	}
	return out
}

func memNow() runtime.MemStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m
}

// timed runs the untraced timed phase and fills the end-to-end metrics.
// It returns the system that is live at the end (cold rounds replace it).
func (w *workload) timed(d *data, sys *system, opt options, res *result, setups []float64) (*system, error) {
	budget := time.Duration(opt.Seconds * float64(time.Second))
	ph := newPhase()
	var allocs uint64 // bytes allocated while operations ran
	var err error

	switch {
	case sys.http != nil:
		phases := make([]*phase, d.clients)
		checks := make([]*result, d.clients)
		m0, start := memNow(), time.Now()
		err = runClients(d.clients, func(c int) error {
			phases[c], checks[c] = newPhase(), &result{}
			var buf bytes.Buffer
			for r := 0; time.Since(start) < budget; r++ {
				round := d.rounds[c][r%len(d.rounds[c])]
				for i := range round {
					o := &round[i]
					rep, err := sys.post(o, &buf)
					var got digest
					if err == nil {
						got, _, err = bodyDigest(rep)
					}
					checks[c].check(o, got, err)
					phases[c].add(o, rep.Latency)
				}
			}
			// Wall clock: the clients share the service, and checking a
			// reply is part of being a client.
			phases[c].busyS = time.Since(start).Seconds()
			return nil
		})
		allocs = memNow().TotalAlloc - m0.TotalAlloc // the HTTP client's share included
		for c := range phases {
			ph.merge(phases[c])
			res.absorb(checks[c])
		}
	default:
		for busy := time.Duration(0); busy < budget; {
			if w.coldRounds {
				sys.close()
				sys = nil
				runtime.GC()
				t0 := time.Now()
				if sys, err = w.setup(d); err != nil {
					return nil, fmt.Errorf("set-up of a cold pass: %w", err)
				}
				setups = append(setups, time.Since(t0).Seconds())
			}
			// One client, closed loop: the phase lasts as long as the client
			// spends inside its operations. Digesting results between them
			// is the harness's own work and is not charged to the system.
			m0 := memNow()
			for i := range d.ops {
				o := &d.ops[i]
				lat, got, err := sys.run(o)
				res.check(o, got, err)
				ph.add(o, lat)
				busy += lat
			}
			allocs += memNow().TotalAlloc - m0.TotalAlloc
			ph.busyS = busy.Seconds()
		}
	}
	if err != nil {
		return sys, err
	}
	runtime.GC()
	live := memNow().HeapAlloc - res.heapBefore

	// Every round — of every client, on svc — is the same mix of the same size.
	round := d.ops
	if sys.http != nil {
		round = d.rounds[0][0]
	}
	var roundRows int64
	for i := range round {
		roundRows += round[i].Rows
	}
	perSecond := float64(ph.ops) / ph.busyS
	res.Samples = ph.ops
	res.Templates = ph.templates()
	res.Metrics["setup_s"] = metric{median(setups), "s"}
	res.Metrics["query_p50_ms"] = metric{ph.typical(), "ms"}
	res.Metrics["query_p95_ms"] = metric{ph.p95(), "ms"}
	res.Metrics["queries_per_s"] = metric{perSecond, "1/s"}
	res.Metrics["rows_per_s"] = metric{perSecond * float64(roundRows) / float64(len(round)), "rows/s"}
	res.Metrics["alloc_mb_per_query"] = metric{float64(allocs) / float64(ph.ops) / 1e6, "MB"}
	res.Metrics["live_heap_mb"] = metric{float64(live) / 1e6, "MB"}
	res.Metrics["ok_ratio"] = metric{1 - float64(res.Failed)/float64(res.Attempted), "ratio"}
	return sys, nil
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// quantile reads the q-quantile off sorted values (nearest rank).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

func median(v []float64) float64 {
	s := sorted(v)
	if len(s) == 0 {
		return 0
	}
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}
