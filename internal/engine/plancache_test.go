package engine

import (
	"fmt"
	"slices"
	"strings"
	"sync"
	"testing"

	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

func TestPlanCacheHitServesRepeatedQuery(t *testing.T) {
	e := newTestEngine(t, Config{})
	const q = "SELECT SUM(val) FROM nums WHERE id < 4"
	for i := 0; i < 3; i++ {
		res, err := e.QuerySQL(q)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := res.Scalar().AsInt(); got != 60 {
			t.Fatalf("run %d: sum = %d, want 60", i, got)
		}
	}
	m := e.Metrics()
	if m.PlanCacheMisses != 1 {
		t.Errorf("PlanCacheMisses = %d, want 1", m.PlanCacheMisses)
	}
	if m.PlanCacheHits != 2 {
		t.Errorf("PlanCacheHits = %d, want 2", m.PlanCacheHits)
	}
}

func TestPlanCacheNormalizesWhitespace(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QuerySQL("  SELECT   COUNT(*)\n FROM\tnums "); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlanCacheHits != 1 || m.PlanCacheMisses != 1 {
		t.Errorf("hits=%d misses=%d, want 1/1", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

func TestPlanCacheKeySeparatesLanguages(t *testing.T) {
	e := newTestEngine(t, Config{})
	// Same byte string is a valid query in neither/other language — use two
	// distinct texts but assert SQL and comp never share entries by running
	// each once: two misses, zero hits.
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QueryComp("for { n <- nums } yield count"); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlanCacheHits != 0 || m.PlanCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

func TestPlanCacheInvalidatedByCacheBlocks(t *testing.T) {
	// With adaptive caching on, the first run registers cache blocks (after
	// the entry was stored with the pre-run cache epoch), so the second run
	// must miss and recompile into a cache-aware plan; the third run hits.
	e := newTestEngine(t, Config{CacheEnabled: true})
	const q = "SELECT SUM(val) FROM nums WHERE id < 4"
	for i := 0; i < 3; i++ {
		res, err := e.QuerySQL(q)
		if err != nil {
			t.Fatalf("run %d: %v", i, err)
		}
		if got := res.Scalar().AsInt(); got != 60 {
			t.Fatalf("run %d: sum = %d, want 60", i, got)
		}
	}
	if s := e.Caches().Snapshot(); s.Blocks == 0 {
		t.Fatal("caching engine registered no blocks; invalidation untested")
	}
	m := e.Metrics()
	if m.PlanCacheMisses != 2 {
		t.Errorf("PlanCacheMisses = %d, want 2 (cold + post-cache-registration)", m.PlanCacheMisses)
	}
	if m.PlanCacheHits != 1 {
		t.Errorf("PlanCacheHits = %d, want 1", m.PlanCacheHits)
	}
}

func TestPlanCacheInvalidatedByRegister(t *testing.T) {
	e := newTestEngine(t, Config{})
	const q = "SELECT COUNT(*) FROM nums"
	if _, err := e.QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	// Any catalog mutation invalidates: the cached program may bake in
	// layouts resolved against the old catalog.
	e.Mem().PutFile("mem://other.csv", []byte("1\n"))
	sch := types.NewRecordType(types.Field{Name: "x", Type: types.Int})
	if err := e.Register("other", "mem://other.csv", "csv", sch, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QuerySQL(q); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlanCacheHits != 0 || m.PlanCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2 after Register", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

func TestPlanCacheInvalidatedByDrop(t *testing.T) {
	e := newTestEngine(t, Config{})
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
		t.Fatal(err)
	}
	e.Drop("docs")
	if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlanCacheHits != 0 || m.PlanCacheMisses != 2 {
		t.Errorf("hits=%d misses=%d, want 0/2 after Drop", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

func TestPlanCacheDisabled(t *testing.T) {
	e := newTestEngine(t, Config{PlanCacheSize: -1})
	for i := 0; i < 2; i++ {
		if _, err := e.QuerySQL("SELECT COUNT(*) FROM nums"); err != nil {
			t.Fatal(err)
		}
	}
	m := e.Metrics()
	if m.PlanCacheHits != 0 || m.PlanCacheMisses != 0 {
		t.Errorf("disabled cache counted hits=%d misses=%d", m.PlanCacheHits, m.PlanCacheMisses)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	e := newTestEngine(t, Config{PlanCacheSize: 2})
	queries := []string{
		"SELECT COUNT(*) FROM nums",
		"SELECT SUM(val) FROM nums",
		"SELECT MIN(id) FROM nums",
	}
	for _, q := range queries {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatal(err)
		}
	}
	if got := e.plans.size(); got != 2 {
		t.Errorf("plan cache holds %d entries, want 2", got)
	}
	// The first (least recently used) query was evicted: re-running it
	// misses; the most recent still hits.
	if _, err := e.QuerySQL(queries[2]); err != nil {
		t.Fatal(err)
	}
	if _, err := e.QuerySQL(queries[0]); err != nil {
		t.Fatal(err)
	}
	m := e.Metrics()
	if m.PlanCacheHits != 1 {
		t.Errorf("PlanCacheHits = %d, want 1 (only the resident entry)", m.PlanCacheHits)
	}
	if m.PlanCacheMisses != 4 {
		t.Errorf("PlanCacheMisses = %d, want 4 (3 cold + 1 evicted)", m.PlanCacheMisses)
	}
}

// TestPlanCacheConcurrentSameQuery: a cached Program is not concurrently
// runnable, so simultaneous identical queries must either hit (entry free)
// or compile fresh (entry busy) — never block or corrupt results. Run under
// -race this guards the entry-lock protocol.
func TestPlanCacheConcurrentSameQuery(t *testing.T) {
	e := newTestEngine(t, Config{})
	const q = "SELECT SUM(val) FROM nums WHERE id < 4"
	var wg sync.WaitGroup
	errs := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 8; i++ {
				res, err := e.QuerySQL(q)
				if err != nil {
					errs <- err
					return
				}
				if got := res.Scalar().AsInt(); got != 60 {
					errs <- fmt.Errorf("sum = %d, want 60", got)
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
	m := e.Metrics()
	if got := m.PlanCacheHits + m.PlanCacheMisses; got != 64 {
		t.Errorf("hits+misses = %d, want 64", got)
	}
	if m.PlanCacheHits == 0 {
		t.Error("no plan-cache hits across 64 identical queries")
	}
}

// planCache unit tests -------------------------------------------------------

func TestPlanCacheStoreDetachedOnCollision(t *testing.T) {
	// Programs of one shape pool up to maxShapePrograms; one more comes
	// back detached, and the pooled ones stay usable.
	pc := newPlanCache(16)
	var held []*pooledProg
	for i := 0; i <= maxShapePrograms; i++ {
		pp, sh := pc.storeProgram("k", nil, 1, 1)
		if (sh == nil) != (i == maxShapePrograms) {
			t.Fatalf("program %d: shape %v", i, sh)
		}
		held = append(held, pp)
	}
	for _, pp := range held {
		pp.release()
	}
	if pc.size() != maxShapePrograms {
		t.Errorf("size = %d, want %d", pc.size(), maxShapePrograms)
	}
	if pp, _, _ := pc.lookupShape("k", 1, 1); pp == nil {
		t.Error("pooled program lost after the pool filled")
	} else {
		pp.release()
	}
}

func TestPlanCacheBusyEntryIsMiss(t *testing.T) {
	pc := newPlanCache(4)
	pp, _ := pc.storeProgram("k", nil, 1, 1)
	if got, _, why := pc.lookupShape("k", 1, 1); got != nil || why != obs.PlanMissBusy {
		t.Fatalf("lookup returned a program that is mid-run (%v, %v)", got, why)
	}
	pp.release()
	if got, _, _ := pc.lookupShape("k", 1, 1); got == nil {
		t.Fatal("released program should hit")
	} else {
		got.release()
	}
}

func TestPlanCacheEpochMismatchDrops(t *testing.T) {
	pc := newPlanCache(4)
	pp, _ := pc.storeProgram("k", nil, 1, 1)
	pp.release()
	if got, _, why := pc.lookupShape("k", 2, 1); got != nil || why != obs.PlanMissEpoch {
		t.Fatal("catalog-epoch mismatch should miss")
	}
	if pc.size() != 0 {
		t.Errorf("stale entry not dropped, size = %d", pc.size())
	}
	pp, _ = pc.storeProgram("k", nil, 2, 1)
	pp.release()
	if got, _, why := pc.lookupShape("k", 2, 2); got != nil || why != obs.PlanMissEpoch {
		t.Fatal("cache-epoch mismatch should miss")
	}
	if pc.size() != 0 {
		t.Errorf("stale entry not dropped, size = %d", pc.size())
	}
}

func TestPlanCacheEvictionSkipsBusyEntries(t *testing.T) {
	pc := newPlanCache(1)
	busy, _ := pc.storeProgram("a", nil, 1, 1) // still running
	pp, _ := pc.storeProgram("b", nil, 1, 1)
	pp.release()
	// "a" is busy and cannot be evicted; the cache tolerates transient
	// overflow rather than blocking.
	if pc.size() != 2 {
		t.Errorf("size = %d, want 2 (busy entry unevictable)", pc.size())
	}
	busy.release()
	pp, _ = pc.storeProgram("c", nil, 1, 1)
	pp.release()
	if pc.size() != 1 {
		t.Errorf("size = %d, want 1 after releases", pc.size())
	}
	if _, _, why := pc.lookupShape("a", 1, 1); why != obs.PlanMissEvicted {
		t.Errorf("evicted shape's miss reason = %v, want evicted", why)
	}
}

// TestPlanCacheSharedCapacity: text entries and programs count against one
// capacity, and room goes to the least recently used of either, so a shape
// that recent texts bind into outlives the older texts.
func TestPlanCacheSharedCapacity(t *testing.T) {
	pc := newPlanCache(4)
	pp, sh := pc.storeProgram("s", nil, 1, 1)
	pp.release()
	for i := 0; i < 6; i++ {
		pp, _, _ := pc.lookupShape("s", 1, 1) // a shape hit, as the engine does
		pc.storeText(fmt.Sprint("t", i), &textEntry{shape: sh, catalogEpoch: 1, cacheEpoch: 1})
		pp.release()
	}
	resident := func(keys ...string) {
		t.Helper()
		pc.mu.Lock()
		defer pc.mu.Unlock()
		var got []string
		for k := range pc.texts {
			got = append(got, k)
		}
		slices.Sort(got)
		if !slices.Equal(got, keys) {
			t.Errorf("resident texts %v, want %v", got, keys)
		}
	}
	if pc.size() != 4 || pc.shapes["s"] != sh {
		t.Fatalf("size = %d, want 4 with the shape resident", pc.size())
	}
	resident("t3", "t4", "t5")
	// A new shape's program takes the least recently used entry: the
	// oldest text, which is older than the shape it bound into.
	pp, _ = pc.storeProgram("s2", nil, 1, 1)
	pp.release()
	if pc.size() != 4 || pc.shapes["s"] != sh {
		t.Fatalf("size = %d, want 4 with the shape resident", pc.size())
	}
	resident("t4", "t5")
}

// TestPlanCacheOutcomeCounters walks one engine through every plan-cache
// outcome the metrics split: a cold miss, a shape hit, a text hit, an
// epoch miss, an evicted miss and a busy miss, and checks Metrics() and
// the Prometheus families.
func TestPlanCacheOutcomeCounters(t *testing.T) {
	e := newTestEngine(t, Config{PlanCacheSize: 1})
	run := func(q string) {
		t.Helper()
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatal(err)
		}
	}
	run("SELECT SUM(val) FROM nums WHERE id < 4") // cold
	run("SELECT SUM(val) FROM nums WHERE id < 2") // shape hit
	run("SELECT SUM(val) FROM nums WHERE id < 2") // text hit
	e.Drop("docs")
	run("SELECT SUM(val) FROM nums WHERE id < 2") // epoch
	run("SELECT COUNT(*) FROM nums")              // cold; evicts the SUM shape
	run("SELECT SUM(val) FROM nums WHERE id < 3") // evicted
	// Busy: the only program of the shape is running.
	key := planKey(LangSQL, "SELECT SUM(val) FROM nums WHERE id < 3", profOff)
	te, pp, _ := e.plans.lookupText(key, e.planEpoch.Load(), e.caches.Epoch())
	if pp == nil {
		t.Fatal("the last text should hit")
	}
	run("SELECT SUM(val) FROM nums WHERE id < 3") // busy
	pp.release()
	if te.plan == nil {
		t.Fatal("text entry without its plan")
	}

	m := e.Metrics()
	want := obs.PlanMisses{Cold: 2, Epoch: 1, Evicted: 1, Busy: 1}
	if m.PlanCacheMissReasons != want || m.PlanCacheMisses != 5 {
		t.Errorf("misses %d by reason %+v, want 5 %+v", m.PlanCacheMisses, m.PlanCacheMissReasons, want)
	}
	if m.PlanCacheTextHits != 1 || m.PlanCacheShapeHits != 1 || m.PlanCacheHits != 2 {
		t.Errorf("hits text %d shape %d total %d, want 1 1 2", m.PlanCacheTextHits, m.PlanCacheShapeHits, m.PlanCacheHits)
	}
	prom := m.Prometheus()
	for _, line := range []string{
		`proteus_plan_cache_hits_total{level="text"} 1`,
		`proteus_plan_cache_hits_total{level="shape"} 1`,
		`proteus_plan_cache_misses_total{reason="cold"} 2`,
		`proteus_plan_cache_misses_total{reason="busy"} 1`,
	} {
		if !strings.Contains(prom, line+"\n") {
			t.Errorf("Prometheus output lacks %q", line)
		}
	}
}
