package engine

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// vecRows is large enough that VecAuto also chooses the batch path
// (>= 2*vbuf.BatchSize) and that every query spans many batches.
const vecRows = 3000

var vecNames = []string{"alpha", "beta", "gamma", "delta", "epsilon", "zeta"}

// newVecEngine registers the same synthetic data in all three flat formats
// plus a JSON dataset with nulls, so equivalence runs cover every scan
// plug-in's batch producer (native CSV/binary, transposed JSON) and the
// cached path when caching is on.
func newVecEngine(t testing.TB, cfg Config) *Engine {
	e := New(cfg)

	var csv strings.Builder
	for i := 0; i < vecRows; i++ {
		fmt.Fprintf(&csv, "%d,%d,%g,%s\n",
			i, (i*7)%100, float64(i%13)+0.25, vecNames[i%len(vecNames)])
	}
	e.Mem().PutFile("mem://big.csv", []byte(csv.String()))
	schema := types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "val", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "name", Type: types.String},
	)
	if err := e.Register("big", "mem://big.csv", "csv", schema, plugin.Options{}); err != nil {
		t.Fatalf("register csv: %v", err)
	}

	// JSON twin of the CSV data plus a nullable field: every 5th row has no
	// "v", exercising null propagation through batch kernels.
	var js strings.Builder
	for i := 0; i < vecRows; i++ {
		if i%5 == 0 {
			fmt.Fprintf(&js, `{"id": %d, "grp": %d}`+"\n", i, i%7)
		} else {
			fmt.Fprintf(&js, `{"id": %d, "grp": %d, "v": %d}`+"\n", i, i%7, (i*3)%50)
		}
	}
	e.Mem().PutFile("mem://jdocs.json", []byte(js.String()))
	if err := e.Register("jdocs", "mem://jdocs.json", "json", nil, plugin.Options{}); err != nil {
		t.Fatalf("register json: %v", err)
	}

	ids := make([]int64, vecRows)
	vals := make([]int64, vecRows)
	scores := make([]float64, vecRows)
	names := make([]string, vecRows)
	for i := range ids {
		ids[i] = int64(i)
		vals[i] = int64((i * 7) % 100)
		scores[i] = float64(i%13) + 0.25
		names[i] = vecNames[i%len(vecNames)]
	}
	bin, err := binpg.EncodeColumnar([]binpg.Column{
		{Name: "id", Type: types.Int, Ints: ids},
		{Name: "val", Type: types.Int, Ints: vals},
		{Name: "score", Type: types.Float, Floats: scores},
		{Name: "name", Type: types.String, Strs: names},
	})
	if err != nil {
		t.Fatalf("encode bin: %v", err)
	}
	e.Mem().PutFile("mem://big.bin", bin)
	if err := e.Register("bigbin", "mem://big.bin", "bin", nil, plugin.Options{}); err != nil {
		t.Fatalf("register bin: %v", err)
	}
	return e
}

// vecQuery is one equivalence case: a query plus whether its output order
// is deterministic (ORDER BY or a single aggregate row). Unordered results
// are compared as multisets.
type vecQuery struct {
	lang    string
	text    string
	ordered bool
}

var vecEquivalenceQueries = []vecQuery{
	// CSV: ungrouped aggregates under const filters of every comparison shape.
	{"sql", "SELECT COUNT(*) FROM big WHERE val < 50", true},
	{"sql", "SELECT COUNT(*) FROM big WHERE 50 > val", true},
	{"sql", "SELECT COUNT(*), SUM(val), MIN(id), MAX(score), AVG(score) FROM big WHERE id >= 100 AND id < 2900", true},
	{"sql", "SELECT SUM(val) FROM big WHERE score > 3.5 AND val <= 90", true},
	{"sql", "SELECT MIN(name), MAX(name) FROM big WHERE name >= 'beta'", true},
	{"sql", "SELECT COUNT(*) FROM big WHERE name LIKE '%amm%'", true},
	{"sql", "SELECT COUNT(*) FROM big WHERE NOT (val < 10 OR val > 90)", true},
	// Arithmetic inside predicates and aggregate arguments (incl. % and /
	// whose division-by-zero produces NULL).
	{"sql", "SELECT SUM(val * 2 + id) FROM big WHERE id % 3 = 1", true},
	{"sql", "SELECT SUM(score / (val - 14)) FROM big WHERE id < 500", true},
	{"sql", "SELECT AVG(val % 7) FROM big WHERE score < 9.0", true},
	// Projection through the batch→tuple boundary adapter, with and without
	// ORDER BY.
	{"sql", "SELECT id, name FROM big WHERE id > 2990 ORDER BY id DESC", true},
	{"sql", "SELECT id, val FROM big WHERE val = 3", false},
	{"sql", "SELECT id, score FROM big WHERE id >= 2995 ORDER BY score LIMIT 3", true},
	// Grouped aggregation (single int key → vectorized hash-group path).
	{"sql", "SELECT val, COUNT(*) AS n FROM big GROUP BY val ORDER BY val", true},
	{"sql", "SELECT val, SUM(id) AS s, AVG(score) AS a FROM big WHERE id < 2000 GROUP BY val ORDER BY val", true},
	{"sql", "SELECT val, MIN(name), MAX(id) FROM big GROUP BY val", false},
	// JSON with nulls: NULL never satisfies a predicate; aggregates skip it.
	{"sql", "SELECT COUNT(*) FROM jdocs WHERE v < 25", true},
	{"sql", "SELECT SUM(v), MIN(v), MAX(v), AVG(v) FROM jdocs", true},
	{"sql", "SELECT grp, COUNT(*) AS n, SUM(v) AS s FROM jdocs GROUP BY grp ORDER BY grp", true},
	{"sql", "SELECT grp, AVG(v) AS a FROM jdocs WHERE id >= 10 GROUP BY grp", false},
	// Binary columnar.
	{"sql", "SELECT COUNT(*), SUM(val) FROM bigbin WHERE id >= 1000 AND id < 2000", true},
	{"sql", "SELECT val, COUNT(*) AS n FROM bigbin WHERE score > 2.0 GROUP BY val ORDER BY val", true},
	{"sql", "SELECT id, name FROM bigbin WHERE id < 8 ORDER BY id", true},
	// Comprehensions reach the same compiled segments through the other
	// front end.
	{"comp", "for { n <- big, n.val > 42 } yield sum n.id", true},
	{"comp", "for { n <- big, n.id < 2500, n.score < 8.0 } yield count", true},
	// Joins: vectorized build and probe on the int fast path and the boxed
	// (string, multi-key) path, with projections through the probe-side
	// scatter and ORDER BY over join output.
	{"sql", "SELECT COUNT(*) FROM big a JOIN bigbin b ON a.id = b.id WHERE a.val < 45", true},
	{"sql", "SELECT a.id AS id, a.name AS n, b.val AS bv FROM big a JOIN bigbin b ON a.id = b.id WHERE b.score > 5.0 ORDER BY id", true},
	{"sql", "SELECT COUNT(*) FROM big a JOIN bigbin b ON a.name = b.name WHERE a.id < 40 AND b.id < 200", true},
	{"sql", "SELECT COUNT(*) FROM big a JOIN bigbin b ON a.id = b.id AND a.name = b.name", true},
	{"sql", "SELECT a.id AS id, b.name AS bn FROM big a JOIN bigbin b ON a.id = b.id WHERE a.name = 'gamma' AND b.id < 600 ORDER BY id DESC LIMIT 20", true},
	// Vectorized ORDER BY: columnar index sort with limits, string and
	// descending keys, heavy ties (stability must match the row-wise sort),
	// and nulls (which sort first).
	{"sql", "SELECT id, val, name FROM big WHERE val < 50 ORDER BY name, id DESC LIMIT 100", true},
	{"sql", "SELECT id, score FROM bigbin WHERE id < 2000 ORDER BY score DESC, id LIMIT 17", true},
	{"sql", "SELECT val, id FROM big WHERE id < 1200 ORDER BY val", true},
	{"sql", "SELECT id, v FROM jdocs WHERE id < 600 ORDER BY v, id", true},
	// String predicates: vectorized eq/ne/prefix-LIKE/contains, including
	// the dictionary-code path once caching materializes string columns.
	{"sql", "SELECT COUNT(*) FROM big WHERE name = 'gamma'", true},
	{"sql", "SELECT COUNT(*) FROM big WHERE name <> 'alpha' AND name <> 'zeta'", true},
	{"sql", "SELECT COUNT(*) FROM big WHERE name LIKE 'ga%'", true},
	{"sql", "SELECT COUNT(*) FROM bigbin WHERE name LIKE 'delt%' OR name LIKE 'ze%'", true},
	{"sql", "SELECT id, name FROM bigbin WHERE name = 'beta' AND id < 500 ORDER BY id", true},
}

// rowStrings renders result rows for comparison.
func rowStrings(res *exec.Result) []string {
	out := make([]string, len(res.Rows))
	for i, r := range res.Rows {
		out[i] = r.String()
	}
	return out
}

func runVecQuery(t *testing.T, e *Engine, q vecQuery) (*exec.Result, error) {
	t.Helper()
	if q.lang == "sql" {
		return e.QuerySQL(q.text)
	}
	return e.QueryComp(q.text)
}

// checkEquivalence runs every query against a vectorized and a tuple engine
// built from the same config and demands identical results.
func checkEquivalence(t *testing.T, base Config) {
	t.Helper()
	onCfg, offCfg := base, base
	onCfg.Vectorized = exec.VecOn
	offCfg.Vectorized = exec.VecOff
	on := newVecEngine(t, onCfg)
	off := newVecEngine(t, offCfg)
	for _, q := range vecEquivalenceQueries {
		rOn, errOn := runVecQuery(t, on, q)
		rOff, errOff := runVecQuery(t, off, q)
		if (errOn != nil) != (errOff != nil) {
			t.Errorf("%s: vectorized err = %v, tuple err = %v", q.text, errOn, errOff)
			continue
		}
		if errOn != nil {
			continue
		}
		sOn, sOff := rowStrings(rOn), rowStrings(rOff)
		if !q.ordered {
			sort.Strings(sOn)
			sort.Strings(sOff)
		}
		if len(sOn) != len(sOff) {
			t.Errorf("%s: vectorized %d rows, tuple %d rows", q.text, len(sOn), len(sOff))
			continue
		}
		for i := range sOn {
			if sOn[i] != sOff[i] {
				t.Errorf("%s: row %d differs\n  vectorized: %s\n  tuple:      %s", q.text, i, sOn[i], sOff[i])
				break
			}
		}
	}
}

func TestVectorizedEquivalenceSerial(t *testing.T) {
	checkEquivalence(t, Config{Parallelism: 1})
}

func TestVectorizedEquivalenceParallel(t *testing.T) {
	checkEquivalence(t, Config{Parallelism: 4})
}

func TestVectorizedEquivalenceCached(t *testing.T) {
	// With caching on, the first run materializes blocks and later runs scan
	// them through the zero-copy cached batch path; all must agree. Plan
	// caching is disabled so every repetition recompiles against the current
	// cache contents (the plan cache gets its own tests).
	base := Config{Parallelism: 2, CacheEnabled: true, PlanCacheSize: -1}
	onCfg, offCfg := base, base
	onCfg.Vectorized = exec.VecOn
	offCfg.Vectorized = exec.VecOff
	on := newVecEngine(t, onCfg)
	off := newVecEngine(t, offCfg)
	for round := 0; round < 3; round++ {
		for _, q := range vecEquivalenceQueries {
			rOn, errOn := runVecQuery(t, on, q)
			rOff, errOff := runVecQuery(t, off, q)
			if (errOn != nil) != (errOff != nil) {
				t.Fatalf("round %d %s: vectorized err = %v, tuple err = %v", round, q.text, errOn, errOff)
			}
			if errOn != nil {
				continue
			}
			sOn, sOff := rowStrings(rOn), rowStrings(rOff)
			if !q.ordered {
				sort.Strings(sOn)
				sort.Strings(sOff)
			}
			if fmt.Sprint(sOn) != fmt.Sprint(sOff) {
				t.Errorf("round %d %s:\n  vectorized: %v\n  tuple:      %v", round, q.text, sOn, sOff)
			}
		}
	}
}

// TestVectorizedEquivalenceConcurrent hammers one shared vectorized engine
// from several goroutines (each compiles its own program, morsel workers
// share batches per clone); run under -race this is the data-race guard.
func TestVectorizedEquivalenceConcurrent(t *testing.T) {
	on := newVecEngine(t, Config{Parallelism: 4, Vectorized: exec.VecOn, CacheEnabled: true})
	off := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOff})
	want := map[string][]string{}
	for _, q := range vecEquivalenceQueries {
		if !q.ordered {
			continue
		}
		res, err := runVecQuery(t, off, q)
		if err != nil {
			continue
		}
		want[q.text] = rowStrings(res)
	}
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for _, q := range vecEquivalenceQueries {
				expect, ok := want[q.text]
				if !ok {
					continue
				}
				res, err := runVecQuery(t, on, q)
				if err != nil {
					errs <- fmt.Errorf("%s: %w", q.text, err)
					return
				}
				if got := rowStrings(res); fmt.Sprint(got) != fmt.Sprint(expect) {
					errs <- fmt.Errorf("%s: got %v, want %v", q.text, got, expect)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestVectorizedExplainNamesMode asserts EXPLAIN records the per-segment
// mode decision.
func TestVectorizedExplainNamesMode(t *testing.T) {
	e := newVecEngine(t, Config{Vectorized: exec.VecOn, Parallelism: 1})
	p, err := e.PrepareSQL("SELECT SUM(val) FROM big WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); !strings.Contains(out, "vectorized segment") {
		t.Errorf("EXPLAIN does not name the vectorized segment:\n%s", out)
	}

	off := newVecEngine(t, Config{Vectorized: exec.VecOff, Parallelism: 1})
	p, err = off.PrepareSQL("SELECT SUM(val) FROM big WHERE id < 100")
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); strings.Contains(out, "vectorized segment") {
		t.Errorf("VecOff still vectorizes:\n%s", out)
	}
}

// TestVecAutoThreshold: tiny inputs stay on the tuple path under VecAuto,
// large ones vectorize.
func TestVecAutoThreshold(t *testing.T) {
	e := newTestEngine(t, Config{}) // 5-row datasets, Vectorized default auto
	p, err := e.PrepareSQL("SELECT SUM(val) FROM nums")
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); strings.Contains(out, "vectorized segment") {
		t.Errorf("VecAuto vectorized a 5-row scan:\n%s", out)
	}
	big := newVecEngine(t, Config{})
	p, err = big.PrepareSQL("SELECT SUM(val) FROM big")
	if err != nil {
		t.Fatal(err)
	}
	if out := p.Explain(); !strings.Contains(out, "vectorized segment") {
		t.Errorf("VecAuto kept a %d-row scan on the tuple path:\n%s", vecRows, out)
	}
}

// TestVecAutoModeIsDeterministic: under VecAuto the execution mode is the
// compiler's static heuristic, a function of plan, catalog and config — not
// of run history. A query recompiled 20 times, each run feeding the plan
// feedback store, reports the same EXPLAIN mode every time. The recompiles
// come from plan caching off on one engine and from cache-epoch bumps
// before every run on the other.
func TestVecAutoModeIsDeterministic(t *testing.T) {
	const q = "SELECT SUM(val) FROM big WHERE id < 2000"
	uncached := newVecEngine(t, Config{Parallelism: 1, Observability: true, PlanCacheSize: -1})
	bumped := newVecEngine(t, Config{Parallelism: 1, Observability: true})
	for _, e := range []*Engine{uncached, bumped} {
		for i := 0; i < 20; i++ {
			e.Caches().SetEnabled(false) // advances the cache epoch
			if _, err := e.QuerySQL(q); err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if !e.RecentProfiles()[0].Vectorized {
				t.Fatalf("run %d compiled tuple-at-a-time", i)
			}
			p, err := e.PrepareSQL(q)
			if err != nil {
				t.Fatal(err)
			}
			if out := p.Explain(); !strings.Contains(out, "-- mode: vectorized\n") {
				t.Fatalf("run %d: EXPLAIN mode changed:\n%s", i, out)
			}
		}
	}
	if m := bumped.Metrics(); m.PlanCacheMisses != 20 || m.PlanCacheHits != 0 {
		t.Errorf("epoch bumps did not force recompiles: hits=%d misses=%d", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

// Robustness in batch mode: the PR-3 guarantees must fire mid-batch.

func TestVectorizedCancellationMidBatch(t *testing.T) {
	e := New(Config{Parallelism: 2, Vectorized: exec.VecOn})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	// A concrete schema keeps the scan vec-eligible; the plug-in has no
	// native batch producer, so this exercises the transposed path.
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QuerySQLContext(ctx, "SELECT COUNT(*) FROM slow")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // mid-scan, well inside a batch run
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("cancelled vectorized query returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("vectorized query ignored cancellation")
	}
	if got := e.Metrics().QueriesCancelled; got != 1 {
		t.Errorf("QueriesCancelled = %d, want 1", got)
	}
	// Engine still works (a fast dataset: the slow table's per-row delay
	// would dominate the test otherwise).
	e.Mem().PutFile("mem://tiny.csv", []byte("1\n2\n3\n"))
	tinySchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("tiny", "mem://tiny.csv", "csv", tinySchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	res, err := e.QuerySQL("SELECT COUNT(*) FROM tiny")
	if err != nil {
		t.Fatalf("follow-up after cancel: %v", err)
	}
	if got := res.Scalar().AsInt(); got != 3 {
		t.Fatalf("follow-up count = %d, want 3", got)
	}
}

func TestVectorizedTimeoutMidBatch(t *testing.T) {
	e := New(Config{Parallelism: 2, Vectorized: exec.VecOn, QueryTimeout: 30 * time.Millisecond})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := e.QuerySQL("SELECT SUM(id) FROM slow")
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("timed-out vectorized query returned %v", err)
	}
	if got := e.Metrics().QueriesTimedOut; got != 1 {
		t.Errorf("QueriesTimedOut = %d, want 1", got)
	}
}

func TestVectorizedMemBudgetMidBatch(t *testing.T) {
	// A grouped aggregate with one group per row blows a small budget from
	// inside the vectorized nest terminate loop.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 64 << 10})
	_, err := e.QuerySQL("SELECT id, COUNT(*) AS n FROM big GROUP BY id")
	if err == nil {
		t.Fatal("grouped query under tiny budget succeeded")
	}
	if !strings.Contains(err.Error(), exec.ErrMemBudget.Error()) {
		t.Fatalf("want mem-budget error, got %v", err)
	}
	if got := e.Metrics().QueriesMemRejected; got != 1 {
		t.Errorf("QueriesMemRejected = %d, want 1", got)
	}
	// Within budget still succeeds on the same engine.
	if _, err := e.QuerySQL("SELECT val, COUNT(*) AS n FROM big GROUP BY val"); err != nil {
		t.Fatalf("follow-up grouped query: %v", err)
	}
}

func TestVectorizedJoinCancelMidProbe(t *testing.T) {
	e := New(Config{Parallelism: 1, Vectorized: exec.VecOn})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	// Small CSV build side; the slow table drives the vectorized probe.
	e.Mem().PutFile("mem://dim.csv", []byte("1\n2\n3\n4\n5\n"))
	if err := e.Register("dim", "mem://dim.csv", "csv", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		_, err := e.QuerySQLContext(ctx, "SELECT COUNT(*) FROM slow a JOIN dim b ON a.id = b.id")
		done <- err
	}()
	time.Sleep(20 * time.Millisecond) // mid-probe, inside a batch
	cancel()
	select {
	case err := <-done:
		if err == nil || !strings.Contains(err.Error(), context.Canceled.Error()) {
			t.Fatalf("cancelled vectorized join returned %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("vectorized join ignored cancellation")
	}
}

func TestVectorizedJoinTimeoutMidProbe(t *testing.T) {
	e := New(Config{Parallelism: 1, Vectorized: exec.VecOn, QueryTimeout: 30 * time.Millisecond})
	slow := newSlowInput(1<<20, 50*time.Microsecond)
	e.RegisterPlugin(slow)
	slowSchema := types.NewRecordType(types.Field{Name: "id", Type: types.Int})
	if err := e.Register("slow", "slow://t", "slow", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	e.Mem().PutFile("mem://dim.csv", []byte("1\n2\n3\n"))
	if err := e.Register("dim", "mem://dim.csv", "csv", slowSchema, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	_, err := e.QuerySQL("SELECT COUNT(*) FROM slow a JOIN dim b ON a.id = b.id")
	if err == nil || !strings.Contains(err.Error(), context.DeadlineExceeded.Error()) {
		t.Fatalf("timed-out vectorized join returned %v", err)
	}
}

func TestVectorizedJoinMemBudget(t *testing.T) {
	// 3000 build rows at >= 24 bytes of charged key state blow a 32 KiB
	// budget from inside the vectorized build terminate.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 32 << 10})
	_, err := e.QuerySQL("SELECT COUNT(*) FROM big a JOIN bigbin b ON a.id = b.id")
	if err == nil {
		t.Fatal("vectorized join under tiny budget succeeded")
	}
	if !strings.Contains(err.Error(), exec.ErrMemBudget.Error()) {
		t.Fatalf("want mem-budget error, got %v", err)
	}
	// The engine stays usable within budget.
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM big WHERE val < 50"); err != nil {
		t.Fatalf("follow-up query: %v", err)
	}
}

func TestVectorizedSortMemBudget(t *testing.T) {
	// 3000 collected rows charge 64 bytes each — the columnar collect must
	// fail the same way the row-wise sort buffer would.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 64 << 10})
	_, err := e.QuerySQL("SELECT id, val FROM big ORDER BY val")
	if err == nil {
		t.Fatal("vectorized ORDER BY under tiny budget succeeded")
	}
	if !strings.Contains(err.Error(), exec.ErrMemBudget.Error()) {
		t.Fatalf("want mem-budget error, got %v", err)
	}
	// A bounded sort on the same engine succeeds.
	res, err := e.QuerySQL("SELECT id, val FROM big WHERE id < 200 ORDER BY val")
	if err != nil {
		t.Fatalf("bounded ORDER BY: %v", err)
	}
	if len(res.Rows) != 200 {
		t.Fatalf("bounded ORDER BY returned %d rows, want 200", len(res.Rows))
	}
}

func TestVectorizedTopKMemBudget(t *testing.T) {
	// The 64 KiB budget TestVectorizedSortMemBudget exceeds with a full
	// sort holds a LIMIT 10 over the same 3000 rows: the top-k charges only
	// the rows it keeps.
	e := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOn, QueryMemBudget: 64 << 10})
	const q = "SELECT id, val FROM big ORDER BY val LIMIT 10"
	res, err := e.QuerySQL(q)
	if err != nil {
		t.Fatalf("top-k under the budget: %v", err)
	}
	want, err := newVecEngine(t, Config{Parallelism: 1, Vectorized: exec.VecOff}).QuerySQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if fmt.Sprint(res.Rows) != fmt.Sprint(want.Rows) || len(res.Rows) != 10 {
		t.Fatalf("top-k rows %v, tuple rows %v", res.Rows, want.Rows)
	}
	p, err := e.PrepareSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if explain := p.Explain(); !strings.Contains(explain, "top-k (limit 10)") {
		t.Errorf("EXPLAIN does not name the top-k:\n%s", explain)
	}
	// The collect's row count is the rows that reached it, not the ten kept.
	_, qp, err := e.ExplainAnalyzeSQL(q)
	if err != nil {
		t.Fatal(err)
	}
	if out := obs.RenderProfile(qp); !strings.Contains(out, "Reduce bag(<id: big.id, val: big.val>)  (rows=3000 ") {
		t.Errorf("analyze output does not count the 3000 rows the top-k saw:\n%s", out)
	}
}

// TestVectorizedProfileCountsRows: EXPLAIN ANALYZE row counts stay
// per-tuple-accurate in batch mode, and batch counters populate.
func TestVectorizedProfileCountsRows(t *testing.T) {
	e := newVecEngine(t, Config{Vectorized: exec.VecOn, Parallelism: 1})
	_, qp, err := e.ExplainAnalyzeSQL("SELECT COUNT(*) FROM big WHERE val < 50")
	if err != nil {
		t.Fatal(err)
	}
	out := obs.RenderProfile(qp)
	// 50 of every 100 val cycle survive: 1500 of 3000 rows.
	if !strings.Contains(out, "rows=3000") {
		t.Errorf("scan row count missing from analyze output:\n%s", out)
	}
	if !strings.Contains(out, "rows=1500") {
		t.Errorf("filter row count missing from analyze output:\n%s", out)
	}
	if !strings.Contains(out, "batches=") {
		t.Errorf("batch counter missing from analyze output:\n%s", out)
	}
}
