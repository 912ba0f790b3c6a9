package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync/atomic"
)

// Metrics is the engine's cumulative counter set. All fields are atomics:
// the engine updates them once per query (and once per parallel run for the
// worker gauges), never on the per-tuple path.
type Metrics struct {
	// Query counters.
	Queries atomic.Int64 // completed queries (including failures)
	Errors  atomic.Int64 // queries that returned an error
	RowsOut atomic.Int64 // total result rows produced

	// Robustness outcomes (subsets of Errors, classified at the query
	// boundary; see DESIGN.md, Robustness).
	QueriesCancelled   atomic.Int64 // aborted by caller cancellation
	QueriesTimedOut    atomic.Int64 // aborted by Config.QueryTimeout
	QueriesMemRejected atomic.Int64 // aborted by Config.QueryMemBudget
	QueriesPanicked    atomic.Int64 // runtime panic converted to an error

	// Per-phase cumulative wall time.
	ParseNanos    atomic.Int64
	CalculusNanos atomic.Int64
	OptimizeNanos atomic.Int64
	CompileNanos  atomic.Int64
	ExecuteNanos  atomic.Int64

	// Parallelism.
	ParallelQueries atomic.Int64 // queries that ran with > 1 worker
	WorkersLaunched atomic.Int64 // total worker goroutines spawned
	MorselsScanned  atomic.Int64 // total morsels executed
	ActiveQueries   atomic.Int64 // gauge: queries in flight
	ActiveWorkers   atomic.Int64 // gauge: worker goroutines in flight

	// Scan plug-in totals (summed from per-query operator profiles).
	ScanBytesRead    atomic.Int64
	ScanFieldsParsed atomic.Int64
	ScanIndexHits    atomic.Int64

	// Compiled-plan cache outcomes (engine-level, one per query). A hit is a
	// run that compiled nothing: a text hit reuses the text's binding, a
	// shape hit binds the text's literals into a program of its shape. A
	// miss compiles, for one of PlanMissReasons.
	PlanCacheHits      atomic.Int64
	PlanCacheMisses    atomic.Int64
	PlanCacheTextHits  atomic.Int64
	PlanCacheShapeHits atomic.Int64
	PlanCacheMissesBy  [len(PlanMissReasons)]atomic.Int64

	// SlowQueries counts queries recorded by the slow-query log.
	SlowQueries atomic.Int64

	// Cluster scatter/gather (internal/cluster). All but the last count on
	// the coordinator; FragmentsServed counts on workers.
	ClusterQueries       atomic.Int64 // queries executed via scatter/gather
	ClusterFragments     atomic.Int64 // fragment partials merged into results
	ClusterFragmentBytes atomic.Int64 // bytes of the partial-state frames those arrived in
	ClusterRetries       atomic.Int64 // fragment attempts retried on another worker
	ClusterHedges        atomic.Int64 // hedged (speculative duplicate) fragment attempts
	// ClusterFallbacks counts queries a coordinator ran locally instead, one
	// cell per ClusterFallbackReasons entry; rendered as the labeled
	// proteus_cluster_fallbacks_total family.
	ClusterFallbacks       [len(ClusterFallbackReasons)]atomic.Int64
	ClusterErrors          atomic.Int64 // distributed queries that returned an error
	ClusterFragmentsServed atomic.Int64 // fragment requests this engine served as a worker

	// Admission gate instrumentation: AdmissionQueued is a gauge of queries
	// currently waiting for (or taking) an admission slot; AdmissionWait
	// records how long each gated query waited before admission — time that,
	// since the service refactor, no longer counts against QueryTimeout.
	AdmissionQueued atomic.Int64
	AdmissionWait   Histogram

	// Latency histograms (observability v2): one per life-cycle phase, fed
	// by traced queries, plus end-to-end, fed by every query.
	PhaseLatency [5]Histogram
	TotalLatency Histogram
}

// Why a coordinator answered a query by itself.
const (
	FallbackNoWorkers       = "no_workers"      // empty topology
	FallbackUnpartitionable = "unpartitionable" // no driving scan, or its plug-in cannot split it
	FallbackSingleMorsel    = "single_morsel"   // the scan splits into fewer than two morsels
	FallbackStateUncodable  = "state_uncodable" // the root state has no wire form
	FallbackFPMismatch      = "fp_mismatch"     // a worker planned a different fingerprint (409)
)

// ClusterFallbackReasons enumerates the reason label of
// proteus_cluster_fallbacks_total, in ClusterFallbacks cell order.
var ClusterFallbackReasons = [...]string{
	FallbackNoWorkers, FallbackUnpartitionable, FallbackSingleMorsel, FallbackStateUncodable, FallbackFPMismatch,
}

// PlanMiss is why a query's program had to be compiled.
type PlanMiss int

// Plan-cache miss reasons, in PlanMissReasons order.
const (
	PlanMissCold    PlanMiss = iota // the shape was never compiled
	PlanMissEpoch                   // the catalog or the cache contents changed since
	PlanMissEvicted                 // the shape's programs were evicted for room
	PlanMissBusy                    // every program of the shape was running
)

// PlanMissReasons enumerates the reason label of
// proteus_plan_cache_misses_total, in PlanMiss order.
var PlanMissReasons = [...]string{"cold", "epoch", "evicted", "busy"}

// CountPlanHit counts one run that compiled nothing: a shape hit when
// shape is set, a text hit otherwise.
func (m *Metrics) CountPlanHit(shape bool) {
	m.PlanCacheHits.Add(1)
	if shape {
		m.PlanCacheShapeHits.Add(1)
	} else {
		m.PlanCacheTextHits.Add(1)
	}
}

// CountPlanMiss counts one compile, by reason.
func (m *Metrics) CountPlanMiss(r PlanMiss) {
	m.PlanCacheMisses.Add(1)
	m.PlanCacheMissesBy[r].Add(1)
}

// PlanMisses is the plan-cache misses of a Snapshot by reason.
type PlanMisses struct {
	Cold    int64 `json:"cold"`
	Epoch   int64 `json:"epoch"`
	Evicted int64 `json:"evicted"`
	Busy    int64 `json:"busy"`
}

// CountClusterFallback increments one reason's fallback counter.
func (m *Metrics) CountClusterFallback(reason string) {
	for i, r := range ClusterFallbackReasons {
		if r == reason {
			m.ClusterFallbacks[i].Add(1)
		}
	}
}

// ObservePhases folds one traced query's life-cycle spans into the
// cumulative per-phase time and the per-phase latency histograms.
func (m *Metrics) ObservePhases(phases []Span) {
	for _, s := range phases {
		m.AddPhase(s.Name, int64(s.Dur))
		if i := PhaseIndex(s.Name); i >= 0 {
			m.PhaseLatency[i].Observe(s.Dur)
		}
	}
}

// AddPhase accumulates one phase duration by name.
func (m *Metrics) AddPhase(name string, nanos int64) {
	switch name {
	case PhaseParse:
		m.ParseNanos.Add(nanos)
	case PhaseCalculus:
		m.CalculusNanos.Add(nanos)
	case PhaseOptimize:
		m.OptimizeNanos.Add(nanos)
	case PhaseCompile:
		m.CompileNanos.Add(nanos)
	case PhaseExecute:
		m.ExecuteNanos.Add(nanos)
	}
}

// CacheCounters is the cache manager's contribution to a metrics snapshot.
type CacheCounters struct {
	Blocks     int   `json:"blocks"`
	JoinSides  int   `json:"join_sides"`
	Bytes      int64 `json:"bytes"`
	Hits       int64 `json:"hits"`
	Misses     int64 `json:"misses"`
	Evictions  int64 `json:"evictions"`
	BuildNanos int64 `json:"build_nanos"`

	// Columnar cache v2: bitmap indexes and zone maps.
	Indexes     int   `json:"indexes"`      // blocks carrying a bitmap index
	IndexBytes  int64 `json:"index_bytes"`  // bytes held by bitmap indexes
	IndexBuilds int64 `json:"index_builds"` // indexes built (incl. rebuilt)
	IndexHits   int64 `json:"index_hits"`   // filters answered from an index
	ZoneSkips   int64 `json:"zone_skips"`   // scan windows skipped by zone maps

	// IndexRefusals counts refused index builds by reason (kind, keys, size,
	// budget); IndexBuildNanos is the wall time of every build attempt,
	// refused ones included.
	IndexRefusals   map[string]int64 `json:"index_refusals,omitempty"`
	IndexBuildNanos int64            `json:"index_build_nanos"`
}

// Snapshot is a point-in-time copy of every engine metric, JSON-ready for
// the expvar-style endpoint.
type Snapshot struct {
	Queries int64 `json:"queries"`
	Errors  int64 `json:"errors"`
	RowsOut int64 `json:"rows_out"`

	QueriesCancelled   int64 `json:"queries_cancelled"`
	QueriesTimedOut    int64 `json:"queries_timed_out"`
	QueriesMemRejected int64 `json:"queries_mem_rejected"`
	QueriesPanicked    int64 `json:"queries_panicked"`

	ParseNanos    int64 `json:"parse_nanos"`
	CalculusNanos int64 `json:"calculus_nanos"`
	OptimizeNanos int64 `json:"optimize_nanos"`
	CompileNanos  int64 `json:"compile_nanos"`
	ExecuteNanos  int64 `json:"execute_nanos"`

	ParallelQueries int64 `json:"parallel_queries"`
	WorkersLaunched int64 `json:"workers_launched"`
	MorselsScanned  int64 `json:"morsels_scanned"`
	ActiveQueries   int64 `json:"active_queries"`
	ActiveWorkers   int64 `json:"active_workers"`

	ScanBytesRead    int64 `json:"scan_bytes_read"`
	ScanFieldsParsed int64 `json:"scan_fields_parsed"`
	ScanIndexHits    int64 `json:"scan_index_hits"`

	PlanCacheHits        int64      `json:"plan_cache_hits"`
	PlanCacheMisses      int64      `json:"plan_cache_misses"`
	PlanCacheTextHits    int64      `json:"plan_cache_text_hits"`
	PlanCacheShapeHits   int64      `json:"plan_cache_shape_hits"`
	PlanCacheMissReasons PlanMisses `json:"plan_cache_miss_reasons"`

	SlowQueries int64 `json:"slow_queries"`

	ClusterQueries       int64 `json:"cluster_queries"`
	ClusterFragments     int64 `json:"cluster_fragments"`
	ClusterFragmentBytes int64 `json:"cluster_fragment_bytes"`
	ClusterRetries       int64 `json:"cluster_retries"`
	ClusterHedges        int64 `json:"cluster_hedges"`
	// ClusterFallbacks is the total over ClusterFallbackReasons, which maps
	// each reason that occurred to its count.
	ClusterFallbacks       int64            `json:"cluster_fallbacks"`
	ClusterFallbackReasons map[string]int64 `json:"cluster_fallback_reasons,omitempty"`
	ClusterErrors          int64            `json:"cluster_errors"`
	ClusterFragmentsServed int64            `json:"cluster_fragments_served"`

	// AdmissionQueued is the queue-depth gauge of the admission gate;
	// AdmissionWait summarizes how long gated queries waited for a slot.
	AdmissionQueued int64          `json:"admission_queued"`
	AdmissionWait   LatencySummary `json:"admission_wait"`

	Cache CacheCounters `json:"cache"`

	Datasets         int `json:"datasets"`
	ProfilesRetained int `json:"profiles_retained"`
	PlanStatsTracked int `json:"plan_stats_tracked"`

	// Latency carries one histogram summary per life-cycle phase plus the
	// end-to-end "total" row, in that order.
	Latency []LatencySummary `json:"latency"`
}

// LatencySummary is one latency histogram's snapshot plus its estimated
// quantiles (upper bucket boundaries, over-estimates by at most 2x).
type LatencySummary struct {
	Phase      string             `json:"phase"`
	Count      int64              `json:"count"`
	SumSeconds float64            `json:"sum_seconds"`
	P50        float64            `json:"p50_seconds"`
	P95        float64            `json:"p95_seconds"`
	P99        float64            `json:"p99_seconds"`
	Buckets    [HistBuckets]int64 `json:"buckets"`
}

// summarize renders one histogram into its summary row.
func summarize(phase string, h *Histogram) LatencySummary {
	s := h.Snapshot()
	return LatencySummary{
		Phase:      phase,
		Count:      s.Count,
		SumSeconds: s.SumSeconds,
		P50:        s.Quantile(0.50),
		P95:        s.Quantile(0.95),
		P99:        s.Quantile(0.99),
		Buckets:    s.Buckets,
	}
}

// Snapshot captures the current counter values plus externally supplied
// cache counters.
func (m *Metrics) Snapshot(cache CacheCounters) Snapshot {
	var fallbacks int64
	var fallbackReasons map[string]int64
	for i, reason := range ClusterFallbackReasons {
		if n := m.ClusterFallbacks[i].Load(); n > 0 {
			if fallbackReasons == nil {
				fallbackReasons = map[string]int64{}
			}
			fallbackReasons[reason] = n
			fallbacks += n
		}
	}
	return Snapshot{
		Queries:            m.Queries.Load(),
		Errors:             m.Errors.Load(),
		RowsOut:            m.RowsOut.Load(),
		QueriesCancelled:   m.QueriesCancelled.Load(),
		QueriesTimedOut:    m.QueriesTimedOut.Load(),
		QueriesMemRejected: m.QueriesMemRejected.Load(),
		QueriesPanicked:    m.QueriesPanicked.Load(),
		ParseNanos:         m.ParseNanos.Load(),
		CalculusNanos:      m.CalculusNanos.Load(),
		OptimizeNanos:      m.OptimizeNanos.Load(),
		CompileNanos:       m.CompileNanos.Load(),
		ExecuteNanos:       m.ExecuteNanos.Load(),
		ParallelQueries:    m.ParallelQueries.Load(),
		WorkersLaunched:    m.WorkersLaunched.Load(),
		MorselsScanned:     m.MorselsScanned.Load(),
		ActiveQueries:      m.ActiveQueries.Load(),
		ActiveWorkers:      m.ActiveWorkers.Load(),
		ScanBytesRead:      m.ScanBytesRead.Load(),
		ScanFieldsParsed:   m.ScanFieldsParsed.Load(),
		ScanIndexHits:      m.ScanIndexHits.Load(),
		PlanCacheHits:      m.PlanCacheHits.Load(),
		PlanCacheMisses:    m.PlanCacheMisses.Load(),
		PlanCacheTextHits:  m.PlanCacheTextHits.Load(),
		PlanCacheShapeHits: m.PlanCacheShapeHits.Load(),
		PlanCacheMissReasons: PlanMisses{
			Cold:    m.PlanCacheMissesBy[PlanMissCold].Load(),
			Epoch:   m.PlanCacheMissesBy[PlanMissEpoch].Load(),
			Evicted: m.PlanCacheMissesBy[PlanMissEvicted].Load(),
			Busy:    m.PlanCacheMissesBy[PlanMissBusy].Load(),
		},
		SlowQueries:      m.SlowQueries.Load(),
		ClusterQueries:   m.ClusterQueries.Load(),
		ClusterFragments: m.ClusterFragments.Load(),
		ClusterRetries:   m.ClusterRetries.Load(),
		ClusterHedges:    m.ClusterHedges.Load(),
		ClusterFallbacks: fallbacks,
		ClusterErrors:    m.ClusterErrors.Load(),

		ClusterFragmentBytes:   m.ClusterFragmentBytes.Load(),
		ClusterFallbackReasons: fallbackReasons,
		ClusterFragmentsServed: m.ClusterFragmentsServed.Load(),

		AdmissionQueued: m.AdmissionQueued.Load(),
		AdmissionWait:   summarize("admission_wait", &m.AdmissionWait),
		Cache:           cache,
		Latency:         m.latencySummaries(),
	}
}

// latencySummaries snapshots every latency histogram, phases first, the
// end-to-end "total" row last.
func (m *Metrics) latencySummaries() []LatencySummary {
	out := make([]LatencySummary, 0, len(Phases)+1)
	for i, name := range Phases {
		out = append(out, summarize(name, &m.PhaseLatency[i]))
	}
	return append(out, summarize("total", &m.TotalLatency))
}

// seconds renders nanoseconds as fractional seconds for Prometheus.
func seconds(nanos int64) string { return fmt.Sprintf("%g", float64(nanos)/1e9) }

// escapeHelp escapes HELP text per the Prometheus text exposition format:
// backslash and line feed only.
func escapeHelp(s string) string {
	return strings.NewReplacer(`\`, `\\`, "\n", `\n`).Replace(s)
}

// escapeLabel escapes a label value per the exposition format: backslash,
// double quote, and line feed. (Go's %q is close but over-escapes and
// differs on control characters, so the spec's replacer is spelled out.)
func escapeLabel(s string) string {
	return strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`).Replace(s)
}

// promBound renders a histogram bucket boundary for the le label.
func promBound(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return fmt.Sprintf("%g", v)
}

// Prometheus renders the snapshot in the Prometheus text exposition format
// (hand-rolled: the repo takes no client-library dependency).
func (s Snapshot) Prometheus() string {
	var b strings.Builder
	counter := func(name, help, value string) {
		b.WriteString("# HELP " + name + " " + escapeHelp(help) + "\n")
		b.WriteString("# TYPE " + name + " counter\n")
		b.WriteString(name + " " + value + "\n")
	}
	gauge := func(name, help string, v int64) {
		b.WriteString("# HELP " + name + " " + escapeHelp(help) + "\n")
		b.WriteString("# TYPE " + name + " gauge\n")
		fmt.Fprintf(&b, "%s %d\n", name, v)
	}

	counter("proteus_queries_total", "Completed queries.", fmt.Sprint(s.Queries))
	counter("proteus_query_errors_total", "Queries that returned an error.", fmt.Sprint(s.Errors))
	counter("proteus_rows_out_total", "Result rows produced.", fmt.Sprint(s.RowsOut))
	counter("proteus_queries_cancelled_total", "Queries aborted by caller cancellation.", fmt.Sprint(s.QueriesCancelled))
	counter("proteus_queries_timed_out_total", "Queries aborted by the configured timeout.", fmt.Sprint(s.QueriesTimedOut))
	counter("proteus_queries_mem_rejected_total", "Queries aborted by the memory budget.", fmt.Sprint(s.QueriesMemRejected))
	counter("proteus_queries_panicked_total", "Queries whose panic was converted to an error.", fmt.Sprint(s.QueriesPanicked))

	b.WriteString("# HELP proteus_phase_seconds_total Cumulative wall time per query life-cycle phase.\n")
	b.WriteString("# TYPE proteus_phase_seconds_total counter\n")
	phases := []struct {
		name  string
		nanos int64
	}{
		{PhaseParse, s.ParseNanos},
		{PhaseCalculus, s.CalculusNanos},
		{PhaseOptimize, s.OptimizeNanos},
		{PhaseCompile, s.CompileNanos},
		{PhaseExecute, s.ExecuteNanos},
	}
	for _, p := range phases {
		fmt.Fprintf(&b, "proteus_phase_seconds_total{phase=\"%s\"} %s\n", escapeLabel(p.name), seconds(p.nanos))
	}

	counter("proteus_parallel_queries_total", "Queries that ran with more than one worker.", fmt.Sprint(s.ParallelQueries))
	counter("proteus_workers_launched_total", "Worker goroutines spawned.", fmt.Sprint(s.WorkersLaunched))
	counter("proteus_morsels_scanned_total", "Morsels executed.", fmt.Sprint(s.MorselsScanned))
	gauge("proteus_active_queries", "Queries currently executing.", s.ActiveQueries)
	gauge("proteus_active_workers", "Worker goroutines currently executing.", s.ActiveWorkers)

	counter("proteus_scan_bytes_read_total", "Bytes read by scan plug-ins.", fmt.Sprint(s.ScanBytesRead))
	counter("proteus_scan_fields_parsed_total", "Fields parsed by scan plug-ins.", fmt.Sprint(s.ScanFieldsParsed))
	counter("proteus_scan_index_hits_total", "Structural-index lookups served.", fmt.Sprint(s.ScanIndexHits))

	b.WriteString("# HELP proteus_plan_cache_hits_total Queries that compiled nothing, by plan-cache level (text: the text's own binding; shape: its literals bound into a program of its shape).\n")
	b.WriteString("# TYPE proteus_plan_cache_hits_total counter\n")
	fmt.Fprintf(&b, "proteus_plan_cache_hits_total{level=\"text\"} %d\n", s.PlanCacheTextHits)
	fmt.Fprintf(&b, "proteus_plan_cache_hits_total{level=\"shape\"} %d\n", s.PlanCacheShapeHits)
	b.WriteString("# HELP proteus_plan_cache_misses_total Queries compiled fresh (plan-cache misses), by reason.\n")
	b.WriteString("# TYPE proteus_plan_cache_misses_total counter\n")
	for i, n := range []int64{s.PlanCacheMissReasons.Cold, s.PlanCacheMissReasons.Epoch, s.PlanCacheMissReasons.Evicted, s.PlanCacheMissReasons.Busy} {
		fmt.Fprintf(&b, "proteus_plan_cache_misses_total{reason=\"%s\"} %d\n", PlanMissReasons[i], n)
	}

	counter("proteus_slow_queries_total", "Queries recorded by the slow-query log.", fmt.Sprint(s.SlowQueries))

	counter("proteus_cluster_queries_total", "Queries executed via cluster scatter/gather.", fmt.Sprint(s.ClusterQueries))
	counter("proteus_cluster_fragments_total", "Fragment partials merged into distributed results.", fmt.Sprint(s.ClusterFragments))
	counter("proteus_cluster_fragment_bytes_total", "Bytes of the partial-state frames merged into distributed results.", fmt.Sprint(s.ClusterFragmentBytes))
	counter("proteus_cluster_retries_total", "Fragment attempts retried on another worker.", fmt.Sprint(s.ClusterRetries))
	counter("proteus_cluster_hedges_total", "Hedged (speculative duplicate) fragment attempts.", fmt.Sprint(s.ClusterHedges))
	b.WriteString("# HELP proteus_cluster_fallbacks_total Queries a cluster coordinator executed locally instead of scattering, by reason.\n")
	b.WriteString("# TYPE proteus_cluster_fallbacks_total counter\n")
	for _, reason := range ClusterFallbackReasons {
		fmt.Fprintf(&b, "proteus_cluster_fallbacks_total{reason=\"%s\"} %d\n", reason, s.ClusterFallbackReasons[reason])
	}
	counter("proteus_cluster_errors_total", "Distributed queries that returned an error.", fmt.Sprint(s.ClusterErrors))
	counter("proteus_cluster_fragments_served_total", "Fragment requests this engine served as a cluster worker.", fmt.Sprint(s.ClusterFragmentsServed))

	gauge("proteus_admission_queued", "Queries waiting for an admission slot.", s.AdmissionQueued)
	{
		const histName = "proteus_admission_wait_seconds"
		b.WriteString("# HELP " + histName + " Time gated queries spent waiting for an admission slot.\n")
		b.WriteString("# TYPE " + histName + " histogram\n")
		var cum int64
		for i, n := range s.AdmissionWait.Buckets {
			cum += n
			fmt.Fprintf(&b, "%s_bucket{le=\"%s\"} %d\n", histName, promBound(BucketBound(i)), cum)
		}
		fmt.Fprintf(&b, "%s_sum %g\n", histName, s.AdmissionWait.SumSeconds)
		fmt.Fprintf(&b, "%s_count %d\n", histName, s.AdmissionWait.Count)
	}

	// Latency histograms: one family, phase-labeled, cumulative le buckets.
	if len(s.Latency) > 0 {
		const histName = "proteus_query_duration_seconds"
		b.WriteString("# HELP " + histName + " Query latency by life-cycle phase (phase=\"total\" is end-to-end).\n")
		b.WriteString("# TYPE " + histName + " histogram\n")
		for _, l := range s.Latency {
			phase := escapeLabel(l.Phase)
			var cum int64
			for i, n := range l.Buckets {
				cum += n
				fmt.Fprintf(&b, "%s_bucket{phase=\"%s\",le=\"%s\"} %d\n",
					histName, phase, promBound(BucketBound(i)), cum)
			}
			fmt.Fprintf(&b, "%s_sum{phase=\"%s\"} %g\n", histName, phase, l.SumSeconds)
			fmt.Fprintf(&b, "%s_count{phase=\"%s\"} %d\n", histName, phase, l.Count)
		}
	}

	gauge("proteus_cache_blocks", "Materialized cache blocks.", int64(s.Cache.Blocks))
	gauge("proteus_cache_join_sides", "Materialized hash-join build sides.", int64(s.Cache.JoinSides))
	gauge("proteus_cache_bytes", "Bytes held by cache blocks.", s.Cache.Bytes)
	counter("proteus_cache_hits_total", "Cache lookup hits.", fmt.Sprint(s.Cache.Hits))
	counter("proteus_cache_misses_total", "Cache lookup misses.", fmt.Sprint(s.Cache.Misses))
	counter("proteus_cache_evictions_total", "Cache blocks evicted.", fmt.Sprint(s.Cache.Evictions))
	counter("proteus_cache_build_seconds_total", "Wall time materializing and registering cache blocks.", seconds(s.Cache.BuildNanos))

	gauge("proteus_cache_indexes", "Cache blocks carrying a bitmap index.", int64(s.Cache.Indexes))
	gauge("proteus_cache_index_bytes", "Bytes held by cache bitmap indexes.", s.Cache.IndexBytes)
	counter("proteus_cache_index_builds_total", "Bitmap indexes built over cache blocks.", fmt.Sprint(s.Cache.IndexBuilds))
	if len(s.Cache.IndexRefusals) > 0 {
		b.WriteString("# HELP proteus_cache_index_refusals_total Bitmap index builds refused, by reason.\n")
		b.WriteString("# TYPE proteus_cache_index_refusals_total counter\n")
		reasons := make([]string, 0, len(s.Cache.IndexRefusals))
		for r := range s.Cache.IndexRefusals {
			reasons = append(reasons, r)
		}
		sort.Strings(reasons)
		for _, r := range reasons {
			fmt.Fprintf(&b, "proteus_cache_index_refusals_total{reason=\"%s\"} %d\n", escapeLabel(r), s.Cache.IndexRefusals[r])
		}
	}
	counter("proteus_cache_index_build_seconds_total", "Wall time of bitmap index build attempts, refused ones included.", seconds(s.Cache.IndexBuildNanos))
	counter("proteus_cache_index_hits_total", "Filters answered from a cache bitmap index.", fmt.Sprint(s.Cache.IndexHits))
	counter("proteus_cache_zone_skips_total", "Scan windows skipped by cache zone maps.", fmt.Sprint(s.Cache.ZoneSkips))

	gauge("proteus_datasets", "Registered datasets.", int64(s.Datasets))
	gauge("proteus_profiles_retained", "Query profiles held in the ring.", int64(s.ProfilesRetained))
	gauge("proteus_plan_stats_tracked", "Plan fingerprints tracked by the feedback store.", int64(s.PlanStatsTracked))
	return b.String()
}

// sortCounters orders extra counters by name for deterministic rendering.
func sortCounters(cs []Counter) []Counter {
	sort.Slice(cs, func(i, j int) bool { return cs[i].Name < cs[j].Name })
	return cs
}
