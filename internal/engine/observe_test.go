package engine

import (
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/obs"
)

func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// joinAggSQL is the acceptance query: an aggregation over a join between a
// CSV dataset (nums) and a JSON dataset (docs).
const joinAggSQL = "SELECT COUNT(*) FROM nums n JOIN docs d ON n.id = d.id"

func findOp(root *obs.OpProfile, prefix string) *obs.OpProfile {
	var found *obs.OpProfile
	root.Each(func(op *obs.OpProfile) {
		if found == nil && strings.HasPrefix(op.Op, prefix) {
			found = op
		}
	})
	return found
}

func TestExplainAnalyzeJoinAggregation(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, qp, err := e.ExplainAnalyzeSQL(joinAggSQL)
	if err != nil {
		t.Fatalf("explain analyze: %v", err)
	}
	if qp.Root == nil {
		t.Fatal("profile has no operator tree")
	}
	if !qp.Timed {
		t.Fatal("EXPLAIN ANALYZE must run timed")
	}

	// Life-cycle phases all recorded, in order.
	var names []string
	for _, s := range qp.Phases {
		names = append(names, s.Name)
	}
	if strings.Join(names, ",") != strings.Join(obs.Phases, ",") {
		t.Errorf("phases = %v, want %v", names, obs.Phases)
	}

	// Operator row counts match the actual result cardinalities:
	// the root aggregation emits exactly the result rows; the join emits one
	// row per matching (n.id, d.id) pair; the scans emit their datasets.
	root := findOp(qp.Root, "Reduce")
	if root == nil {
		t.Fatalf("no Reduce operator in:\n%s", obs.RenderProfile(qp))
	}
	if root.Rows != int64(len(res.Rows)) {
		t.Errorf("root rows = %d, want result cardinality %d", root.Rows, len(res.Rows))
	}
	join := findOp(qp.Root, "Join")
	if join == nil {
		t.Fatalf("no Join operator in:\n%s", obs.RenderProfile(qp))
	}
	wantJoin := res.Scalar().AsInt() // COUNT(*) over the join = join cardinality
	if join.Rows != wantJoin {
		t.Errorf("join rows = %d, want %d", join.Rows, wantJoin)
	}
	scanN := findOp(qp.Root, "Scan nums")
	scanD := findOp(qp.Root, "Scan docs")
	if scanN == nil || scanD == nil {
		t.Fatalf("missing scan operators in:\n%s", obs.RenderProfile(qp))
	}
	if scanN.Rows != 5 {
		t.Errorf("nums scan rows = %d, want 5", scanN.Rows)
	}
	if scanD.Rows != 3 {
		t.Errorf("docs scan rows = %d, want 3", scanD.Rows)
	}
	// Optimizer estimates attached: scans estimate their cardinality.
	if scanN.EstRows <= 0 || scanD.EstRows <= 0 {
		t.Errorf("scan estimates missing: nums=%g docs=%g", scanN.EstRows, scanD.EstRows)
	}
	// Scan plug-in counters flowed through.
	if scanN.ExtraValue("fields_parsed") <= 0 {
		t.Errorf("nums scan parsed no fields: %+v", scanN.Extra)
	}

	// Rendered text carries the actual-vs-estimated annotations and timing.
	out := obs.RenderProfile(qp)
	for _, want := range []string{"Plan:", "rows=", "est=", "time=", "Scan nums", "Scan docs", "execute:"} {
		if !strings.Contains(out, want) {
			t.Errorf("rendered profile missing %q:\n%s", want, out)
		}
	}
}

func TestExplainAnalyzeComprehension(t *testing.T) {
	e := newTestEngine(t, Config{})
	res, qp, err := e.ExplainAnalyzeComp(`for { d <- docs, t <- d.tags } yield sum t.n`)
	if err != nil {
		t.Fatalf("explain analyze comp: %v", err)
	}
	if got := res.Scalar().AsInt(); got != 18 {
		t.Fatalf("sum = %d, want 18", got)
	}
	un := findOp(qp.Root, "Unnest")
	if un == nil {
		t.Fatalf("no Unnest operator in:\n%s", obs.RenderProfile(qp))
	}
	if un.Rows != 3 {
		t.Errorf("unnest rows = %d, want 3", un.Rows)
	}
}

// TestObservabilityResultsUnchanged guards the instrumented compile paths:
// representative queries must return byte-identical results with
// observability on and off.
func TestObservabilityResultsUnchanged(t *testing.T) {
	queries := []struct {
		lang, q string
	}{
		{LangSQL, joinAggSQL},
		{LangSQL, "SELECT grp, COUNT(*), MAX(id) FROM docs GROUP BY grp"},
		{LangSQL, "SELECT name, val FROM nums WHERE score > 2 ORDER BY val DESC LIMIT 2"},
		{LangComp, `for { d <- docs, t <- d.tags, t.n > 5 } yield bag (d.id, t.k)`},
	}
	plain := newTestEngine(t, Config{})
	observed := newTestEngine(t, Config{Observability: true})
	timed := newTestEngine(t, Config{})
	for _, tc := range queries {
		run := func(e *Engine) (string, error) {
			var res *exec.Result
			var err error
			if tc.lang == LangSQL {
				res, err = e.QuerySQL(tc.q)
			} else {
				res, err = e.QueryComp(tc.q)
			}
			if err != nil {
				return "", err
			}
			var b strings.Builder
			for _, r := range res.Rows {
				b.WriteString(r.String())
				b.WriteString("\n")
			}
			return b.String(), nil
		}
		want, err := run(plain)
		if err != nil {
			t.Fatalf("%s (plain): %v", tc.q, err)
		}
		got, err := run(observed)
		if err != nil {
			t.Fatalf("%s (observed): %v", tc.q, err)
		}
		if got != want {
			t.Errorf("%s: observed results differ\nplain:\n%s\nobserved:\n%s", tc.q, want, got)
		}
		// The timed (EXPLAIN ANALYZE) instrumentation must not change
		// results either.
		var tres *exec.Result
		if tc.lang == LangSQL {
			tres, _, err = timed.ExplainAnalyzeSQL(tc.q)
		} else {
			tres, _, err = timed.ExplainAnalyzeComp(tc.q)
		}
		if err != nil {
			t.Fatalf("%s (timed): %v", tc.q, err)
		}
		var b strings.Builder
		for _, r := range tres.Rows {
			b.WriteString(r.String())
			b.WriteString("\n")
		}
		if b.String() != want {
			t.Errorf("%s: timed results differ\nplain:\n%s\ntimed:\n%s", tc.q, want, b.String())
		}
	}
}

func TestMetricsAndProfileRing(t *testing.T) {
	hookCount := 0
	var hooked obs.QueryProfile
	e := newTestEngine(t, Config{
		Observability:   true,
		ProfileRingSize: 2,
		OnQueryDone: func(q obs.QueryProfile) {
			hookCount++
			hooked = q
		},
	})
	queries := []string{
		"SELECT COUNT(*) FROM nums",
		"SELECT SUM(val) FROM nums WHERE id > 1",
		joinAggSQL,
	}
	for _, q := range queries {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatalf("%s: %v", q, err)
		}
	}
	snap := e.Metrics()
	if snap.Queries != int64(len(queries)) {
		t.Errorf("queries = %d, want %d", snap.Queries, len(queries))
	}
	if snap.Errors != 0 {
		t.Errorf("errors = %d, want 0", snap.Errors)
	}
	if snap.RowsOut != 3 {
		t.Errorf("rows_out = %d, want 3", snap.RowsOut)
	}
	if snap.ExecuteNanos <= 0 || snap.CompileNanos <= 0 {
		t.Errorf("phase nanos missing: execute=%d compile=%d", snap.ExecuteNanos, snap.CompileNanos)
	}
	if snap.ScanFieldsParsed <= 0 {
		t.Errorf("scan fields parsed = %d, want > 0", snap.ScanFieldsParsed)
	}
	if snap.ActiveQueries != 0 || snap.ActiveWorkers != 0 {
		t.Errorf("gauges nonzero at rest: queries=%d workers=%d", snap.ActiveQueries, snap.ActiveWorkers)
	}
	if snap.Datasets != 2 {
		t.Errorf("datasets = %d, want 2", snap.Datasets)
	}
	if snap.ProfilesRetained != 2 {
		t.Errorf("profiles retained = %d, want ring bound 2", snap.ProfilesRetained)
	}
	// Ring keeps the most recent profiles, newest first.
	profs := e.RecentProfiles()
	if len(profs) != 2 {
		t.Fatalf("len(profiles) = %d, want 2", len(profs))
	}
	if profs[0].Query != queries[2] || profs[1].Query != queries[1] {
		t.Errorf("ring order wrong: %q, %q", profs[0].Query, profs[1].Query)
	}
	// The hook saw every query; the last call carries the final profile.
	if hookCount != len(queries) {
		t.Errorf("hook calls = %d, want %d", hookCount, len(queries))
	}
	if hooked.Query != queries[2] || hooked.Rows != 1 {
		t.Errorf("hooked profile = %q rows=%d", hooked.Query, hooked.Rows)
	}
	// A failed query counts as an error but still profiles.
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM missing_table"); err == nil {
		t.Fatal("expected error for unknown dataset")
	}
	if got := e.Metrics().Errors; got != 1 {
		t.Errorf("errors = %d, want 1", got)
	}
	if p := e.RecentProfiles()[0]; p.Err == "" {
		t.Error("failed query profile has no Err")
	}
}

func TestCacheCountersMoveOnWarmRequery(t *testing.T) {
	e := newTestEngine(t, Config{CacheEnabled: true, Observability: true})
	const q = "SELECT SUM(val) FROM nums WHERE score > 0"
	cold, err := e.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	after1 := e.Metrics().Cache
	if after1.Misses == 0 {
		t.Errorf("cold run recorded no cache misses: %+v", after1)
	}
	if after1.Blocks == 0 {
		t.Errorf("cold run materialized no cache blocks: %+v", after1)
	}
	warm, err := e.QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Scalar().AsInt() != warm.Scalar().AsInt() {
		t.Fatalf("warm result differs: %v vs %v", cold.Scalar(), warm.Scalar())
	}
	after2 := e.Metrics().Cache
	if after2.Hits <= after1.Hits {
		t.Errorf("warm re-query did not move cache hits: %d → %d", after1.Hits, after2.Hits)
	}
	if after2.BuildNanos <= 0 {
		t.Errorf("cache build time not recorded: %+v", after2)
	}
}

func TestMetricsHTTPEndpoint(t *testing.T) {
	e := newTestEngine(t, Config{Observability: true, Parallelism: 2})
	for i := 0; i < 3; i++ {
		if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums WHERE val > 15"); err != nil {
			t.Fatal(err)
		}
	}
	srv := httptest.NewServer(e.MetricsHandler())
	defer srv.Close()

	// Prometheus text exposition.
	resp, err := srv.Client().Get(srv.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body := readAll(t, resp)
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Errorf("content type = %q", ct)
	}
	for _, want := range []string{
		"proteus_queries_total 3",
		`proteus_phase_seconds_total{phase="execute"}`,
		`proteus_phase_seconds_total{phase="parse"}`,
		"proteus_cache_hits_total",
		"proteus_cache_misses_total",
		"proteus_active_workers 0",
		"proteus_workers_launched_total",
		"proteus_scan_fields_parsed_total",
		"# TYPE proteus_queries_total counter",
		"# TYPE proteus_active_queries gauge",
	} {
		if !strings.Contains(body, want) {
			t.Errorf("/metrics missing %q:\n%s", want, body)
		}
	}
	// Every non-comment line must be "name[{labels}] value".
	for _, line := range strings.Split(strings.TrimSpace(body), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if parts := strings.Fields(line); len(parts) != 2 {
			t.Errorf("malformed exposition line %q", line)
		}
	}

	// Expvar-style JSON.
	resp, err = srv.Client().Get(srv.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	var vars map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &vars); err != nil {
		t.Fatalf("/debug/vars is not JSON: %v", err)
	}
	if got := vars["queries"].(float64); got != 3 {
		t.Errorf("queries = %v, want 3", got)
	}
	for _, key := range []string{"execute_nanos", "parse_nanos", "cache", "active_workers", "rows_out", "workers_launched"} {
		if _, ok := vars[key]; !ok {
			t.Errorf("/debug/vars missing key %q: %v", key, vars)
		}
	}

	// Recent-query profiles endpoint.
	resp, err = srv.Client().Get(srv.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var profs []map[string]any
	if err := json.Unmarshal([]byte(readAll(t, resp)), &profs); err != nil {
		t.Fatalf("/debug/queries is not JSON: %v", err)
	}
	if len(profs) != 3 {
		t.Errorf("profiles = %d, want 3", len(profs))
	}
}

// TestQueryMetricsIndependentOfTracing: the query counters and the
// end-to-end latency histogram move for every query, whether or not it is
// traced — an untraced engine must not report queries=0.
func TestQueryMetricsIndependentOfTracing(t *testing.T) {
	configs := []struct {
		name string
		cfg  Config
	}{
		{"default", Config{}},
		{"observability", Config{Observability: true}},
		{"slow-log", Config{SlowQueryThreshold: time.Hour}},
	}
	for _, c := range configs {
		e := newTestEngine(t, c.cfg)
		for _, q := range []string{
			"SELECT COUNT(*) FROM nums",
			"SELECT id FROM nums WHERE id > 2",
			"SELECT SUM(val) FROM nums",
		} {
			if _, err := e.QuerySQL(q); err != nil {
				t.Fatalf("%s: %s: %v", c.name, q, err)
			}
		}
		if _, err := e.QuerySQL("SELECT COUNT(*) FROM missing_table"); err == nil {
			t.Fatalf("%s: query over an unknown dataset succeeded", c.name)
		}
		m := e.Metrics()
		var total int64
		for _, l := range m.Latency {
			if l.Phase == "total" {
				total = l.Count
			}
		}
		got := [4]int64{m.Queries, m.Errors, m.RowsOut, total}
		if want := [4]int64{4, 1, 5, 4}; got != want {
			t.Errorf("%s: queries/errors/rows_out/total_latency = %v, want %v", c.name, got, want)
		}
		if m.ActiveQueries != 0 {
			t.Errorf("%s: active_queries = %d at rest", c.name, m.ActiveQueries)
		}
		if prom := m.Prometheus(); !strings.Contains(prom, `proteus_query_duration_seconds_count{phase="total"} 4`) {
			t.Errorf("%s: latency histogram did not count every query", c.name)
		}
	}
}

// TestTracedQueriesHitPlanCache: with observability on, or only the slow
// log armed, a repeated statement is a plan-cache hit. Every profile of the
// cached profiled program reports its own run — operator rows are one
// run's, not cumulative — and a hit is marked PlanCached with no front-end
// spans. EXPLAIN ANALYZE caches its timed program under its own key and
// keeps reporting per-operator time.
func TestTracedQueriesHitPlanCache(t *testing.T) {
	for _, cfg := range []Config{{Observability: true}, {SlowQueryThreshold: time.Hour}} {
		e := newTestEngine(t, cfg)
		var profs []*obs.QueryProfile
		for i := 0; i < 3; i++ {
			if _, err := e.QuerySQL(joinAggSQL); err != nil {
				t.Fatal(err)
			}
			profs = append(profs, e.RecentProfiles()[0])
		}
		if m := e.Metrics(); m.PlanCacheHits != 2 || m.PlanCacheMisses != 1 {
			t.Fatalf("%+v: plan cache hits=%d misses=%d, want 2/1", cfg, m.PlanCacheHits, m.PlanCacheMisses)
		}
		for i, qp := range profs {
			if scan := findOp(qp.Root, "Scan nums"); scan == nil || scan.Rows != 5 {
				t.Errorf("run %d: nums scan profile %+v, want 5 rows", i, scan)
			}
			if join := findOp(qp.Root, "Join"); join == nil || join.Rows != 3 {
				t.Errorf("run %d: join profile %+v, want 3 rows", i, join)
			}
			wantPhases := len(obs.Phases)
			if i > 0 {
				wantPhases = 1
			}
			if qp.PlanCached != (i > 0) || len(qp.Phases) != wantPhases {
				t.Errorf("run %d: plan_cached=%v with %d phases", i, qp.PlanCached, len(qp.Phases))
			}
			if qp.Phase(obs.PhaseExecute) <= 0 {
				t.Errorf("run %d: no execute span", i)
			}
		}
		for i := 0; i < 2; i++ {
			_, qp, err := e.ExplainAnalyzeSQL(joinAggSQL)
			if err != nil {
				t.Fatal(err)
			}
			var self int64
			qp.Root.Each(func(op *obs.OpProfile) { self += op.SelfNanos })
			if !qp.Timed || self <= 0 || qp.PlanCached != (i > 0) {
				t.Errorf("EXPLAIN ANALYZE run %d: timed=%v self=%dns plan_cached=%v", i, qp.Timed, self, qp.PlanCached)
			}
			if scan := findOp(qp.Root, "Scan nums"); scan == nil || scan.Rows != 5 {
				t.Errorf("EXPLAIN ANALYZE run %d: nums scan profile %+v, want 5 rows", i, scan)
			}
		}
	}
}
