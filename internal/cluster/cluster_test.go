// Fault-injection and concurrency tests for distributed execution: every
// scenario drives a real coordinator engine against real worker query
// services (httptest around internal/server), with faults injected by a
// proxy in front of one or all workers. The invariant under test is the
// package contract: a distributed query returns either the complete,
// locally-identical result or a clean error — never partial or duplicated
// rows — and every recovery path (retry, hedge, plan-mismatch fallback,
// cancellation) is visible in the cluster counters.
package cluster_test

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus"
	"proteus/internal/cluster"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/server"
	"proteus/internal/types"
)

// Test data: t (60 rows, grouped), u (10 rows, join side), tiny (1 row —
// splits into a single morsel, so queries over it always run locally).
func tableCSV() []byte {
	var b bytes.Buffer
	for i := 1; i <= 60; i++ {
		fmt.Fprintf(&b, "%d,g%d,%d,%d.5\n", i, i%5, i*7%31, i%13)
	}
	return b.Bytes()
}

func joinCSV() []byte {
	var b bytes.Buffer
	for i := 1; i <= 10; i++ {
		fmt.Fprintf(&b, "%d,%d\n", i*3, i*100)
	}
	return b.Bytes()
}

func tSchema() *types.RecordType {
	return types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "grp", Type: types.String},
		types.Field{Name: "val", Type: types.Int},
		types.Field{Name: "f", Type: types.Float},
	)
}

func uSchema() *types.RecordType {
	return types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "v", Type: types.Int},
	)
}

// registerData registers the test tables on one engine (worker or
// coordinator — identical catalogs keep plan fingerprints aligned).
func registerData(t *testing.T, e *engine.Engine) {
	t.Helper()
	reg := func(name string, data []byte, schema *types.RecordType) {
		path := "mem://cluster/" + name + ".csv"
		e.Mem().PutFile(path, data)
		if err := e.Register(name, path, "csv", schema, plugin.Options{}); err != nil {
			t.Fatalf("register %s: %v", name, err)
		}
	}
	reg("t", tableCSV(), tSchema())
	reg("u", joinCSV(), uSchema())
	reg("tiny", []byte("1,gx,2,3.5\n"), tSchema())
}

// newWorker builds one worker query service over a fresh DB and returns its
// base URL plus the worker's engine (for metrics assertions).
func newWorker(t *testing.T) (string, *engine.Engine) {
	return newWorkerMode(t, proteus.VectorizedAuto)
}

// newWorkerMode is newWorker with the worker's execution mode chosen: the
// wire is mode-independent, so workers of different modes may serve one query.
func newWorkerMode(t *testing.T, mode proteus.VecMode) (string, *engine.Engine) {
	t.Helper()
	db := proteus.Open(proteus.Config{Parallelism: 1, Vectorized: mode})
	registerData(t, db.Engine())
	ts := httptest.NewServer(server.New(server.Config{DB: db}).Handler())
	t.Cleanup(ts.Close)
	return ts.URL, db.Engine()
}

// newCoordinator builds a coordinator engine scattering over the given
// worker URLs.
func newCoordinator(t *testing.T, cfg cluster.Config) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Parallelism: 1, Cluster: cluster.New(cfg)})
	registerData(t, e)
	return e
}

// newLocal builds the reference single-node engine.
func newLocal(t *testing.T) *engine.Engine {
	t.Helper()
	e := engine.New(engine.Config{Parallelism: 1})
	registerData(t, e)
	return e
}

// faultProxy fronts one worker and injects a fault on the first request
// (or a delay on every request). Subsequent requests pass through.
type faultProxy struct {
	backend string
	mode    string // "truncate", "500", "429", "reset", "delay", "fail-always"
	delay   time.Duration

	mu    sync.Mutex
	calls int
}

func (p *faultProxy) callCount() int {
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.calls
}

func (p *faultProxy) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	p.mu.Lock()
	p.calls++
	first := p.calls == 1
	p.mu.Unlock()

	// Drain the body before any injected stall: with the body consumed the
	// server detects client disconnects and cancels r.Context(), so an
	// abandoned attempt releases the proxy (and the test's Close) promptly.
	body, _ := io.ReadAll(r.Body)

	switch {
	case p.mode == "fail-always":
		http.Error(w, "injected permanent failure", http.StatusInternalServerError)
		return
	case p.mode == "500" && first:
		http.Error(w, "injected 500", http.StatusInternalServerError)
		return
	case p.mode == "429" && first:
		http.Error(w, "injected 429", http.StatusTooManyRequests)
		return
	case p.mode == "reset" && first:
		panic(http.ErrAbortHandler) // aborts the TCP connection mid-request
	case p.mode == "delay":
		select {
		case <-time.After(p.delay):
		case <-r.Context().Done():
			return
		}
	}

	resp, err := http.Post(p.backend+r.URL.Path, r.Header.Get("Content-Type"), bytes.NewReader(body))
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadGateway)
		return
	}
	defer resp.Body.Close()
	data, _ := io.ReadAll(resp.Body)
	w.Header().Set("Content-Type", resp.Header.Get("Content-Type"))
	w.WriteHeader(resp.StatusCode)
	if p.mode == "truncate" && first {
		// Worker death mid-frame: half of it, then EOF. The missing end marker
		// makes the coordinator treat the attempt as failed, not as data.
		w.Write(data[:len(data)/2])
		return
	}
	w.Write(data)
}

// newFaultFront wraps a real worker with a fault-injecting proxy.
func newFaultFront(t *testing.T, mode string, delay time.Duration) (string, *faultProxy) {
	t.Helper()
	backend, _ := newWorker(t)
	p := &faultProxy{backend: backend, mode: mode, delay: delay}
	ts := httptest.NewServer(p)
	t.Cleanup(ts.Close)
	return ts.URL, p
}

const groupQuery = "SELECT grp, COUNT(*), SUM(val), MIN(f) FROM t GROUP BY grp"

// checkAgainstLocal requires the distributed result to be byte-identical to
// single-node execution and to have actually been distributed.
func checkAgainstLocal(t *testing.T, local, coord *engine.Engine, query string) {
	t.Helper()
	want, err := local.QuerySQL(query)
	if err != nil {
		t.Fatalf("local %q: %v", query, err)
	}
	got, err := coord.QuerySQL(query)
	if err != nil {
		t.Fatalf("distributed %q: %v", query, err)
	}
	if got.Fragments == 0 {
		t.Fatalf("distributed %q: ran locally (0 fragments)", query)
	}
	if !reflect.DeepEqual(want.Cols, got.Cols) || !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("distributed %q diverges from local:\n  local: %v %v\n  dist:  %v %v",
			query, want.Cols, want.Rows, got.Cols, got.Rows)
	}
}

// TestFaultRetryFirstAttempt covers the transient first-attempt faults: the
// worker dies mid-stream, returns 429/500, or resets the connection. Each
// must cost exactly one visible retry and still produce the complete,
// locally-identical result.
func TestFaultRetryFirstAttempt(t *testing.T) {
	for _, mode := range []string{"truncate", "500", "429", "reset"} {
		t.Run(mode, func(t *testing.T) {
			flakyURL, proxy := newFaultFront(t, mode, 0)
			goodURL, _ := newWorker(t)
			coord := newCoordinator(t, cluster.Config{Workers: []string{flakyURL, goodURL}})
			local := newLocal(t)

			checkAgainstLocal(t, local, coord, groupQuery)

			m := coord.Metrics()
			if m.ClusterRetries < 1 {
				t.Errorf("mode %s: cluster_retries = %d, want >= 1", mode, m.ClusterRetries)
			}
			if m.ClusterErrors != 0 {
				t.Errorf("mode %s: cluster_errors = %d, want 0", mode, m.ClusterErrors)
			}
			if proxy.callCount() < 1 {
				t.Errorf("mode %s: fault proxy was never hit", mode)
			}
			// The fault healed: the next query distributes without retries.
			before := m.ClusterRetries
			checkAgainstLocal(t, local, coord, "SELECT COUNT(*), SUM(val) FROM t WHERE val > 10")
			if after := coord.Metrics().ClusterRetries; after != before {
				t.Errorf("mode %s: healed worker still caused retries (%d -> %d)", mode, before, after)
			}
		})
	}
}

// TestFaultHedgeSlowWorker delays one worker past the hedge threshold: the
// speculative attempt on the backup worker must win, and the query must
// finish far sooner than the injected delay.
func TestFaultHedgeSlowWorker(t *testing.T) {
	const lag = 3 * time.Second
	slowURL, _ := newFaultFront(t, "delay", lag)
	goodURL, _ := newWorker(t)
	coord := newCoordinator(t, cluster.Config{
		Workers:    []string{slowURL, goodURL},
		HedgeAfter: 10 * time.Millisecond,
	})
	local := newLocal(t)

	start := time.Now()
	checkAgainstLocal(t, local, coord, groupQuery)
	if elapsed := time.Since(start); elapsed > lag {
		t.Errorf("hedged query took %v, slower than the %v lag it should have dodged", elapsed, lag)
	}
	if m := coord.Metrics(); m.ClusterHedges < 1 {
		t.Errorf("cluster_hedges = %d, want >= 1", m.ClusterHedges)
	}
}

// TestFaultDoubleFailure fails every attempt of a fragment: the query must
// end in one clean error with no partial result, counted in cluster_errors.
func TestFaultDoubleFailure(t *testing.T) {
	badURL1, _ := newFaultFront(t, "fail-always", 0)
	badURL2, _ := newFaultFront(t, "fail-always", 0)
	coord := newCoordinator(t, cluster.Config{Workers: []string{badURL1, badURL2}})

	res, err := coord.QuerySQL(groupQuery)
	if err == nil {
		t.Fatalf("query over dead workers succeeded: %v", res)
	}
	if res != nil {
		t.Fatalf("failed distributed query returned a partial result: %v", res)
	}
	if !strings.Contains(err.Error(), "injected permanent failure") {
		t.Errorf("error does not surface the worker failure: %v", err)
	}
	if m := coord.Metrics(); m.ClusterErrors < 1 {
		t.Errorf("cluster_errors = %d, want >= 1", m.ClusterErrors)
	}
}

// TestFaultPlanMismatchFallsBack simulates catalog drift: a worker that
// refuses every fragment with 409 must push the whole query into transparent
// local execution — correct result, no error, cluster_fallbacks counted.
func TestFaultPlanMismatchFallsBack(t *testing.T) {
	mismatch := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		http.Error(w, `{"error":"plan fingerprint mismatch"}`, http.StatusConflict)
	}))
	t.Cleanup(mismatch.Close)
	goodURL, _ := newWorker(t)
	coord := newCoordinator(t, cluster.Config{Workers: []string{mismatch.URL, goodURL}})
	local := newLocal(t)

	want, err := local.QuerySQL(groupQuery)
	if err != nil {
		t.Fatal(err)
	}
	got, err := coord.QuerySQL(groupQuery)
	if err != nil {
		t.Fatalf("mismatch fallback failed the query: %v", err)
	}
	if got.Fragments != 0 {
		t.Errorf("fallback result claims %d fragments, want 0 (local)", got.Fragments)
	}
	if !reflect.DeepEqual(want.Rows, got.Rows) {
		t.Fatalf("fallback result diverges from local: %v vs %v", want.Rows, got.Rows)
	}
	if m := coord.Metrics(); m.ClusterFallbacks != 1 || m.ClusterFallbackReasons[obs.FallbackFPMismatch] != 1 {
		t.Errorf("cluster_fallbacks = %d %v, want 1 under fp_mismatch", m.ClusterFallbacks, m.ClusterFallbackReasons)
	}
}

// TestFaultForeignWireVersion: a peer that answers 200 in another protocol
// — here the NDJSON frames of earlier builds — costs its attempts and
// nothing else: a clean error naming the worker, no rows.
func TestFaultForeignWireVersion(t *testing.T) {
	var urls, hosts []string
	for i := 0; i < 2; i++ {
		old := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
			io.WriteString(w, `{"shape":"group","names":["grp"]}`+"\n"+`{"done":true}`+"\n")
		}))
		t.Cleanup(old.Close)
		urls, hosts = append(urls, old.URL), append(hosts, strings.TrimPrefix(old.URL, "http://"))
	}
	coord := newCoordinator(t, cluster.Config{Workers: urls})

	res, err := coord.QuerySQL(groupQuery)
	if err == nil || res != nil {
		t.Fatalf("query over foreign-protocol workers returned %v, %v", res, err)
	}
	if msg := err.Error(); !strings.Contains(msg, "not a partial-state frame") ||
		!(strings.Contains(msg, hosts[0]) || strings.Contains(msg, hosts[1])) {
		t.Errorf("error does not name the worker and the cause: %v", err)
	}
	if m := coord.Metrics(); m.ClusterErrors != 1 || m.ClusterFragmentBytes != 0 {
		t.Errorf("cluster_errors = %d, fragment bytes = %d; want 1, 0", m.ClusterErrors, m.ClusterFragmentBytes)
	}
}

// TestFallbackReasonsAndWireVolume pins the decision provenance counters:
// every query a coordinator answers by itself is filed under its reason, and
// every gathered frame under proteus_cluster_fragment_bytes_total.
func TestFallbackReasonsAndWireVolume(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		urls[i], _ = newWorker(t)
	}
	coord := newCoordinator(t, cluster.Config{Workers: urls})
	checkAgainstLocal(t, newLocal(t), coord, groupQuery)
	m := coord.Metrics()
	if m.ClusterFallbacks != 0 || m.ClusterFragments != 3 {
		t.Fatalf("after one scattered query: fallbacks %d, fragments %d", m.ClusterFallbacks, m.ClusterFragments)
	}
	// Three frames of five string-keyed groups each: small, but not empty.
	if m.ClusterFragmentBytes < 3*40 || m.ClusterFragmentBytes > 3*400 {
		t.Errorf("cluster_fragment_bytes = %d for three five-group frames", m.ClusterFragmentBytes)
	}

	if _, err := coord.QuerySQL("SELECT COUNT(*) FROM tiny"); err != nil {
		t.Fatal(err)
	}
	lonely := newCoordinator(t, cluster.Config{})
	if _, err := lonely.QuerySQL(groupQuery); err != nil {
		t.Fatal(err)
	}
	if got := coord.Metrics().ClusterFallbackReasons; got[obs.FallbackSingleMorsel] != 1 || len(got) != 1 {
		t.Errorf("fallback reasons after a one-morsel query: %v", got)
	}
	if got := lonely.Metrics().ClusterFallbackReasons; got[obs.FallbackNoWorkers] != 1 || len(got) != 1 {
		t.Errorf("fallback reasons without workers: %v", got)
	}
	text := coord.Metrics().Prometheus()
	for _, line := range []string{
		`proteus_cluster_fallbacks_total{reason="single_morsel"} 1`,
		`proteus_cluster_fallbacks_total{reason="fp_mismatch"} 0`,
		fmt.Sprintf("proteus_cluster_fragment_bytes_total %d", m.ClusterFragmentBytes),
	} {
		if !strings.Contains(text, line+"\n") {
			t.Errorf("/metrics lacks %q", line)
		}
	}
}

// TestObservedScatterProfileIsFresh: a coordinator's traced programs are
// plan-cached like untraced ones. A statement first answered locally (no
// workers yet) leaves an operator tree in its cached profiled program; once
// workers join, the same cached statement scatters, and its profile must
// carry the fragments and their spans — not that stale local tree.
func TestObservedScatterProfileIsFresh(t *testing.T) {
	coordinator := cluster.New(cluster.Config{})
	coord := engine.New(engine.Config{Parallelism: 1, Observability: true, Cluster: coordinator})
	registerData(t, coord)
	if _, err := coord.QuerySQL(groupQuery); err != nil {
		t.Fatal(err)
	}
	if qp := coord.RecentProfiles()[0]; qp.Fragments != 0 || qp.Root == nil {
		t.Fatalf("local run: fragments=%d, operator tree %v", qp.Fragments, qp.Root)
	}
	for i := 0; i < 3; i++ {
		url, _ := newWorker(t)
		coordinator.AddWorker(url)
	}
	checkAgainstLocal(t, newLocal(t), coord, groupQuery)
	if m := coord.Metrics(); m.PlanCacheHits != 1 {
		t.Errorf("scattered rerun: plan cache hits = %d, want 1", m.PlanCacheHits)
	}
	qp := coord.RecentProfiles()[0]
	if !qp.PlanCached || qp.Fragments != 3 {
		t.Errorf("scattered profile: plan_cached=%v fragments=%d, want true/3", qp.PlanCached, qp.Fragments)
	}
	if qp.Root != nil {
		t.Errorf("scattered profile carries the earlier local operator tree:\n%s", obs.RenderProfile(qp))
	}
	if len(qp.Phases) != 1 || len(qp.Phases[0].Children) != 3 {
		t.Errorf("scattered profile phases = %+v, want execute with 3 fragment spans", qp.Phases)
	}
}

// TestOrderLimitAcrossMorsels: ORDER BY … LIMIT is cut to the top k on each
// worker and sorted again by the coordinator; the result must be the local
// one row for row — with ties straddling morsel boundaries (grp has five
// values, val thirty-one, over three morsels of twenty rows), mixed
// directions, limits above a morsel's matches, and no limit at all — whatever
// mix of execution modes the workers run.
func TestOrderLimitAcrossMorsels(t *testing.T) {
	urls := make([]string, 3)
	for i, mode := range []proteus.VecMode{proteus.VectorizedOn, proteus.VectorizedOff, proteus.VectorizedAuto} {
		urls[i], _ = newWorkerMode(t, mode)
	}
	coord := newCoordinator(t, cluster.Config{Workers: urls})
	local := newLocal(t)
	queries := []string{
		"SELECT id, grp FROM t ORDER BY grp LIMIT 7",
		"SELECT id, grp, val FROM t ORDER BY grp DESC, val LIMIT 13",
		"SELECT id, val FROM t ORDER BY val, id DESC LIMIT 25",  // above a morsel's 20 rows
		"SELECT id, f FROM t WHERE id > 55 ORDER BY f LIMIT 50", // above every match
		"SELECT id, f FROM t ORDER BY f DESC",                   // no LIMIT: nothing is cut
		"SELECT id, grp FROM t LIMIT 0",                         // LIMIT 0 is no limit
		"SELECT id, grp FROM t LIMIT 4",
		"SELECT a.id, b.v FROM t a JOIN u b ON a.id = b.id ORDER BY b.v DESC LIMIT 3",
	}
	// Fixed-seed random specs over the tie-heavy columns.
	r := rand.New(rand.NewSource(20260925))
	cols := []string{"grp", "val", "f", "id"}
	for i := 0; i < 40; i++ {
		r.Shuffle(len(cols), func(a, b int) { cols[a], cols[b] = cols[b], cols[a] })
		var keys []string
		for _, c := range cols[:1+r.Intn(3)] {
			if r.Intn(2) == 0 {
				c += " DESC"
			}
			keys = append(keys, c)
		}
		q := fmt.Sprintf("SELECT id, grp, val, f FROM t WHERE val >= %d ORDER BY %s", r.Intn(12), strings.Join(keys, ", "))
		if limit := r.Intn(70); limit%4 != 0 {
			q += fmt.Sprintf(" LIMIT %d", limit)
		}
		queries = append(queries, q)
	}
	for _, q := range queries {
		checkAgainstLocal(t, local, coord, q)
	}
	if m := coord.Metrics(); m.ClusterFallbacks != 0 || m.ClusterRetries != 0 {
		t.Errorf("fallbacks %d, retries %d; want none", m.ClusterFallbacks, m.ClusterRetries)
	}
}

// TestFaultCancellationMidQuery cancels the caller while every fragment is
// stuck behind a slow worker: the query must fail promptly with the caller's
// cancellation (not a fragment error) and count into queries_cancelled.
func TestFaultCancellationMidQuery(t *testing.T) {
	slow1, _ := newFaultFront(t, "delay", 10*time.Second)
	slow2, _ := newFaultFront(t, "delay", 10*time.Second)
	coord := newCoordinator(t, cluster.Config{Workers: []string{slow1, slow2}})

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := coord.QuerySQLContext(ctx, groupQuery)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled distributed query returned %v, want context.Canceled", err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Errorf("cancellation took %v to take effect", elapsed)
	}
	if m := coord.Metrics(); m.QueriesCancelled < 1 {
		t.Errorf("queries_cancelled = %d, want >= 1", m.QueriesCancelled)
	}
}

// TestClusterConcurrentQueries is the -race integration test: many
// goroutines share one coordinator, mixing distributed queries, queries
// that fall back to local execution (single-morsel table), and callers that
// disconnect mid-query. Every successful result must match the single-node
// answer regardless of interleaving.
func TestClusterConcurrentQueries(t *testing.T) {
	urls := make([]string, 3)
	for i := range urls {
		urls[i], _ = newWorker(t)
	}
	coord := newCoordinator(t, cluster.Config{Workers: urls})
	local := newLocal(t)

	queries := []string{
		groupQuery,
		"SELECT COUNT(*), SUM(val) FROM t WHERE val > 10",
		"SELECT id, val FROM t WHERE id < 20",
		"SELECT id, val FROM t ORDER BY val DESC LIMIT 7",
		"SELECT COUNT(*) FROM t a JOIN u b ON a.id = b.id",
		"SELECT COUNT(*) FROM tiny", // 1 morsel: always local fallback
	}
	want := make([]*exec.Result, len(queries))
	for i, q := range queries {
		res, err := local.QuerySQL(q)
		if err != nil {
			t.Fatalf("local %q: %v", q, err)
		}
		want[i] = res
	}

	const goroutines, iters = 8, 6
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*iters)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for it := 0; it < iters; it++ {
				qi := (g + it) % len(queries)
				ctx := context.Background()
				disconnect := (g+it)%3 == 0
				var cancel context.CancelFunc
				if disconnect {
					// Mid-query disconnect: a deadline short enough to race
					// the scatter. Either outcome is legal; a success must
					// still be the complete, correct result.
					ctx, cancel = context.WithTimeout(ctx, time.Duration(1+g%3)*time.Millisecond)
				}
				res, err := coord.QuerySQLContext(ctx, queries[qi])
				if cancel != nil {
					cancel()
				}
				if err != nil {
					if disconnect && (errors.Is(err, context.DeadlineExceeded) || errors.Is(err, context.Canceled)) {
						continue
					}
					errs <- fmt.Errorf("goroutine %d iter %d %q: %v", g, it, queries[qi], err)
					continue
				}
				if !reflect.DeepEqual(res.Rows, want[qi].Rows) {
					errs <- fmt.Errorf("goroutine %d iter %d %q: rows diverge from local", g, it, queries[qi])
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	m := coord.Metrics()
	if m.ClusterQueries == 0 {
		t.Error("no query executed distributed")
	}
	if m.ClusterErrors != 0 {
		t.Errorf("cluster_errors = %d, want 0 (cancellations must not count as cluster errors)", m.ClusterErrors)
	}
}
