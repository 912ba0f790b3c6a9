package engine

import (
	"fmt"
	"runtime"
	"strings"
	"testing"

	"proteus/internal/cache"
	"proteus/internal/exec"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// newIdxEngine registers one wide CSV dataset (3000 rows: several zone
// windows) so zone maps and bitmap indexes have room to act.
func newIdxEngine(t *testing.T, cfg Config) *Engine {
	t.Helper()
	e := New(cfg)
	var sb strings.Builder
	for i := 0; i < 3000; i++ {
		// grp cycles 0..9; band is constant 7 for the first zone and 99
		// afterwards, so a band=7 predicate can skip 2 of 3 zones.
		band := 7
		if i >= 1024 {
			band = 99
		}
		fmt.Fprintf(&sb, "%d,%d,%d,%s\n", i, i%10, band, []string{"red", "green", "blue"}[i%3])
	}
	e.Mem().PutFile("mem://idx.csv", []byte(sb.String()))
	schema := types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "grp", Type: types.Int},
		types.Field{Name: "band", Type: types.Int},
		types.Field{Name: "color", Type: types.String},
	)
	if err := e.Register("idx", "mem://idx.csv", "csv", schema, plugin.Options{}); err != nil {
		t.Fatalf("register csv: %v", err)
	}
	return e
}

// TestIndexedFilterEquivalence runs the same filter queries repeatedly under
// forced-on and forced-off index policies and requires identical results —
// the index is an access path, never a semantics change.
func TestIndexedFilterEquivalence(t *testing.T) {
	queries := []string{
		"SELECT COUNT(*) FROM idx WHERE grp = 3",
		"SELECT COUNT(*), SUM(id) FROM idx WHERE grp <= 2",
		"SELECT COUNT(*) FROM idx WHERE band = 7",
		"SELECT COUNT(*) FROM idx WHERE grp != 4",
		"SELECT SUM(grp) FROM idx WHERE id > 2900",
		"SELECT COUNT(*) FROM idx WHERE grp = 3 AND band = 99",
	}
	mk := func(mode cache.IndexMode) *Engine {
		return newIdxEngine(t, Config{
			CacheEnabled: true, CacheStrings: true, Indexes: mode,
			Vectorized: exec.VecOn, Parallelism: 1,
		})
	}
	on, off := mk(cache.IndexOn), mk(cache.IndexOff)
	for _, q := range queries {
		// Three runs: cold (populates caches), warm (builds/uses indexes),
		// and a third from the plan cache after any epoch bump.
		for run := 0; run < 3; run++ {
			rOn, err := on.QuerySQL(q)
			if err != nil {
				t.Fatalf("indexes on, %q run %d: %v", q, run, err)
			}
			rOff, err := off.QuerySQL(q)
			if err != nil {
				t.Fatalf("indexes off, %q run %d: %v", q, run, err)
			}
			if got, want := fmt.Sprint(rOn.Rows), fmt.Sprint(rOff.Rows); got != want {
				t.Fatalf("%q run %d: indexed %s != unindexed %s", q, run, got, want)
			}
		}
	}
	cs := on.Caches().Snapshot()
	if cs.IndexBuilds == 0 || cs.Indexes == 0 {
		t.Fatalf("forced-on engine built no indexes: %+v", cs)
	}
	if cs.IndexHits == 0 {
		t.Fatalf("forced-on engine recorded no index hits: %+v", cs)
	}
	if cs.IndexBytes <= 0 {
		t.Fatalf("index bytes not accounted: %+v", cs)
	}
	coff := off.Caches().Snapshot()
	if coff.IndexBuilds != 0 || coff.Indexes != 0 || coff.IndexHits != 0 {
		t.Fatalf("forced-off engine touched indexes: %+v", coff)
	}
}

// TestZoneMapSkips checks that a predicate outside most zones' ranges skips
// windows on the fully-cached scan, and that the skip counter surfaces
// through the metrics snapshot.
func TestZoneMapSkips(t *testing.T) {
	e := newIdxEngine(t, Config{
		CacheEnabled: true, Indexes: cache.IndexOff, Parallelism: 1,
	})
	q := "SELECT COUNT(*) FROM idx WHERE band = 7"
	var want int64
	for run := 0; run < 3; run++ {
		res, err := e.QuerySQL(q)
		if err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
		if got := res.Scalar().AsInt(); run == 0 {
			want = got
		} else if got != want {
			t.Fatalf("run %d: count = %d, want %d", run, got, want)
		}
	}
	if want != 1024 {
		t.Fatalf("band=7 count = %d, want 1024", want)
	}
	if skips := e.Metrics().Cache.ZoneSkips; skips == 0 {
		t.Fatalf("warm runs over band=7 should skip zones, got %d", skips)
	}
}

// TestAdaptiveIndexPromotion drives the auto policy past the hot-scan
// threshold and checks an index appears without being forced.
func TestAdaptiveIndexPromotion(t *testing.T) {
	e := newIdxEngine(t, Config{
		CacheEnabled: true, Indexes: cache.IndexAuto,
		Vectorized: exec.VecOn, Parallelism: 1,
	})
	q := "SELECT COUNT(*) FROM idx WHERE grp = 3"
	for run := 0; run < 6; run++ {
		if _, err := e.QuerySQL(q); err != nil {
			t.Fatalf("run %d: %v", run, err)
		}
	}
	cs := e.Caches().Snapshot()
	if cs.IndexBuilds == 0 {
		t.Fatalf("auto policy never promoted grp to an index: %+v", cs)
	}
	if cs.IndexHits == 0 {
		t.Fatalf("promoted index never served a filter: %+v", cs)
	}
}

// TestRefusedIndexAttemptedOnce is the regression for repeated refused
// builds: under IndexAuto, a cached column with 5 000 distinct keys crosses
// the hot-scan threshold once, is refused once (too many keys), and is not
// attempted again by the queries after it. The refused attempt must not
// allocate per-key bitmaps: all ten queries together allocate less than 4x
// the column's bytes more than the same queries with indexes off.
// Parallelism 1 pins the serial plan, which credits every scan.
func TestRefusedIndexAttemptedOnce(t *testing.T) {
	const rows, keys = 20000, 5000
	mk := func(mode cache.IndexMode) *Engine {
		e := New(Config{CacheEnabled: true, Indexes: mode, Parallelism: 1})
		var sb strings.Builder
		for i := 0; i < rows; i++ {
			fmt.Fprintf(&sb, "%d,%d\n", i, i%keys)
		}
		e.Mem().PutFile("mem://wide.csv", []byte(sb.String()))
		schema := types.NewRecordType(
			types.Field{Name: "id", Type: types.Int},
			types.Field{Name: "k", Type: types.Int},
		)
		if err := e.Register("wide", "mem://wide.csv", "csv", schema, plugin.Options{}); err != nil {
			t.Fatalf("register csv: %v", err)
		}
		return e
	}
	const q = "SELECT COUNT(*) FROM wide WHERE k = 7"
	run := func(e *Engine) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < 10; i++ {
			res, err := e.QuerySQL(q)
			if err != nil {
				t.Fatalf("run %d: %v", i, err)
			}
			if got := res.Scalar().AsInt(); got != rows/keys {
				t.Fatalf("run %d: count = %d, want %d", i, got, rows/keys)
			}
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	auto, off := mk(cache.IndexAuto), mk(cache.IndexOff)
	autoAlloc, offAlloc := run(auto), run(off)

	cs := auto.Caches().Snapshot()
	if cs.Refused(cache.RefuseKeys) != 1 || cs.IndexBuilds != 0 {
		t.Fatalf("want exactly one refused attempt and no build: %+v", cs)
	}
	blk, ok := auto.Caches().Lookup("wide", "k")
	if !ok {
		t.Fatal("column k is not cached")
	}
	if extra := int64(autoAlloc) - int64(offAlloc); extra >= 4*blk.Bytes() {
		t.Fatalf("index attempts allocated %d bytes over indexes-off, want < 4 x %d column bytes", extra, blk.Bytes())
	}
	m := auto.Metrics()
	if m.Cache.IndexRefusals["keys"] != 1 || m.Cache.IndexBuildNanos <= 0 {
		t.Fatalf("metrics miss the refusal: %+v", m.Cache)
	}
	if prom := m.Prometheus(); !strings.Contains(prom, `proteus_cache_index_refusals_total{reason="keys"} 1`) ||
		!strings.Contains(prom, "proteus_cache_index_build_seconds_total ") {
		t.Fatal("Prometheus text misses the index refusal families")
	}
}
