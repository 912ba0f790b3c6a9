package qcheck

import (
	"testing"

	"proteus/internal/cache"
	"proteus/internal/engine"
	"proteus/internal/exec"
)

// TestIndexEquivalence is the indexed-vs-unindexed differential check on
// fixed seeds, sized for CI's -race job: for each universe it runs every
// generated query three times on a forced-indexes engine and a no-indexes
// engine and requires byte-identical results on every run. The repeated
// runs matter — the first populates the byte cache, the second builds and
// uses bitmap indexes (recompiling via the cache-epoch bump), the third
// replays from the plan cache over the indexed blocks.
func TestIndexEquivalence(t *testing.T) {
	seeds := []int64{101, 202, 303}
	queriesPer := 24
	if testing.Short() {
		seeds = seeds[:1]
		queriesPer = 10
	}
	mkCfg := func(mode cache.IndexMode) engine.Config {
		return engine.Config{
			Parallelism: 1, Vectorized: exec.VecOn,
			CacheEnabled: true, CacheStrings: true,
			Indexes: mode, PlanCacheSize: 64,
		}
	}
	for _, seed := range seeds {
		u, err := genUniverse(seed)
		if err != nil {
			t.Fatalf("universe %d: %v", seed, err)
		}
		on, err := buildEngine(mkCfg(cache.IndexOn), u)
		if err != nil {
			t.Fatalf("universe %d: build idx-on engine: %v", seed, err)
		}
		off, err := buildEngine(mkCfg(cache.IndexOff), u)
		if err != nil {
			t.Fatalf("universe %d: build idx-off engine: %v", seed, err)
		}
		for q := 0; q < queriesPer; q++ {
			spec := genQuery(mix(seed, int64(q)), u)
			text := spec.render()
			for run := 0; run < 3; run++ {
				rOn, errOn := runEngineQuery(on, spec.lang, text)
				rOff, errOff := runEngineQuery(off, spec.lang, text)
				if (errOn == nil) != (errOff == nil) {
					t.Fatalf("useed=%d case=%d run=%d: indexed err=%v, unindexed err=%v\n  query: %s",
						seed, q, run, errOn, errOff, text)
				}
				if errOn != nil {
					break // consistent rejection; nothing to compare
				}
				if d := compareExact(rOff, rOn); d != "" {
					t.Fatalf("useed=%d case=%d run=%d: indexed diverges from unindexed: %s\n  query: %s",
						seed, q, run, d, text)
				}
			}
		}
	}
}

// TestBinaryZoneSkipsExercised guards the generator, not the engine: at the
// CI seed the differential run must reach binary zone skipping — ranges on
// the ascending column over multi-zone binary tables — or the matrix would
// pass without ever testing it.
func TestBinaryZoneSkipsExercised(t *testing.T) {
	opts := Options{Seed: 20260805, Universes: 8, Queries: 66} // the CI smoke run
	var skips int64
	for i := 0; i < opts.Universes; i++ {
		useed := mix(opts.Seed, int64(i))
		u, err := genUniverse(useed)
		if err != nil {
			t.Fatal(err)
		}
		e, err := buildEngine(engine.Config{Parallelism: 1, Vectorized: exec.VecOn, PlanCacheSize: -1}, u)
		if err != nil {
			t.Fatal(err)
		}
		for q := 0; q < opts.Queries; q++ {
			spec := genQuery(mix(useed, int64(q)), u)
			_, _ = runEngineQuery(e, spec.lang, spec.render()) // correctness is TestQCheck's job
		}
		skips += e.Caches().Snapshot().ZoneSkips
	}
	if skips == 0 {
		t.Fatal("no generated query skipped a binary zone")
	}
	t.Logf("%d zone skips", skips)
}
