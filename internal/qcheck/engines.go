// The engine configuration matrix. One query is executed under every
// config and each result is compared (a) exactly against the base config
// (every mode must agree byte-for-byte, in order) and (b) against the
// Volcano oracle under the looser tier rules. Warm configs run each query
// twice on a shared engine so the second execution hits the byte cache /
// plan cache; the concurrent config races two executions of the same query
// on one engine under the race detector in CI.
package qcheck

import (
	"fmt"
	"io"
	"net/http/httptest"
	"sync"
	"time"

	"proteus"
	"proteus/internal/cache"
	"proteus/internal/cluster"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/server"
)

type engConfig struct {
	name       string
	cfg        engine.Config
	warm       bool // execute twice, check both runs
	concurrent bool // execute twice concurrently, check both runs
	reps       int  // execute sequentially this many times, check every run
	workers    int  // >0: distributed config — scatter over this many in-process worker services
}

// configMatrix is the cross-product slice the harness runs. base MUST be
// first: it is the reference every other config is compared against, with
// serial tuple-at-a-time execution and every cache disabled.
func configMatrix() []engConfig {
	off := func(par int, vec exec.VecMode) engine.Config {
		return engine.Config{Parallelism: par, Vectorized: vec, PlanCacheSize: -1}
	}
	return []engConfig{
		{name: "base", cfg: off(1, exec.VecOff)},
		{name: "vec-on", cfg: off(1, exec.VecOn)},
		{name: "vec-auto", cfg: off(1, exec.VecAuto)},
		{name: "par4", cfg: off(4, exec.VecOff)},
		{name: "par4-vec", cfg: off(4, exec.VecOn)},
		{name: "cache", cfg: engine.Config{Parallelism: 1, Vectorized: exec.VecOff,
			CacheEnabled: true, PlanCacheSize: -1}, warm: true},
		{name: "plancache", cfg: engine.Config{Parallelism: 1, Vectorized: exec.VecAuto,
			PlanCacheSize: 64}, warm: true},
		{name: "kitchen", cfg: engine.Config{Parallelism: 4, Vectorized: exec.VecAuto,
			CacheEnabled: true, PlanCacheSize: 64}, warm: true},
		{name: "concurrent", cfg: engine.Config{Parallelism: 2, Vectorized: exec.VecAuto,
			CacheEnabled: true, PlanCacheSize: 64}, concurrent: true},
		// Index configs: identical except for the bitmap-index policy, both
		// warm (the second run recompiles against freshly built indexes via
		// the cache-epoch bump) with string caching on so dictionary-string
		// equality exercises the dictionary path. Differential comparison
		// against base — and against each other through it — is exactly the
		// indexed-vs-unindexed cross-check.
		{name: "idx-on", cfg: engine.Config{Parallelism: 1, Vectorized: exec.VecOn,
			CacheEnabled: true, CacheStrings: true, Indexes: cache.IndexOn,
			PlanCacheSize: 64}, warm: true},
		{name: "idx-off", cfg: engine.Config{Parallelism: 1, Vectorized: exec.VecOn,
			CacheEnabled: true, CacheStrings: true, Indexes: cache.IndexOff,
			PlanCacheSize: 64}, warm: true},
		// Observability must never change results: full v2 stack on —
		// per-query profiles, a zero-ish slow-log threshold so every query
		// takes the slow-log path, and morsel-event recording on every traced
		// query. Three runs on one engine: the first populates the caches,
		// later ones recompile against them or, once the cache contents
		// settle, replay the cached profiled program — every run is compared
		// against base.
		{name: "obs", cfg: engine.Config{Parallelism: 2, Vectorized: exec.VecAuto,
			CacheEnabled: true, Observability: true,
			SlowQueryThreshold: time.Nanosecond, SlowQueryWriter: io.Discard,
			TraceMorsels: 1, PlanCacheSize: 64}, reps: 3},
		// Distributed execution must never change results: a scatter/gather
		// coordinator over three in-process worker query services speaking the
		// real HTTP fragment protocol (httptest servers around internal/server).
		// Plans that cannot be distributed — no partitionable driving scan,
		// fewer than two morsels — fall back to local execution inside the same
		// config. Two sequential runs exercise repeated scatter over warm
		// worker engines.
		{name: "cluster", cfg: off(1, exec.VecOff), workers: 3, reps: 2},
	}
}

// buildEngine registers every universe table on a fresh engine with the
// given config.
func buildEngine(cfg engine.Config, u *universe) (*engine.Engine, error) {
	e := engine.New(cfg)
	if err := registerTables(e, u); err != nil {
		return nil, err
	}
	return e, nil
}

// registerTables registers every universe table on an engine — the same
// catalog on every node, so coordinator and worker plans agree.
func registerTables(e *engine.Engine, u *universe) error {
	for _, t := range u.Tables {
		path := fmt.Sprintf("mem://qcheck/%s.%s", t.Name, t.Format)
		e.Mem().PutFile(path, t.Data)
		schema := t.Schema
		if t.Format == "bin" || inferable(t) {
			schema = nil // self-describing, or left to the plug-in's inference
		}
		if err := e.Register(t.Name, path, t.Format, schema, t.Opts); err != nil {
			return fmt.Errorf("register %s: %w", t.Name, err)
		}
	}
	return nil
}

// buildRunner builds one config's runner: a plain engine or — for
// distributed configs — a coordinator engine scattering over c.workers
// in-process worker query services. The runner's close func (nil for plain
// configs) tears the worker services down.
func buildRunner(c engConfig, u *universe) (*engineRunner, error) {
	if c.workers == 0 {
		e, err := buildEngine(c.cfg, u)
		if err != nil {
			return nil, err
		}
		return &engineRunner{cfg: c, eng: e}, nil
	}
	var closers []func()
	closeAll := func() {
		for i := len(closers) - 1; i >= 0; i-- {
			closers[i]()
		}
	}
	urls := make([]string, 0, c.workers)
	for i := 0; i < c.workers; i++ {
		// Workers register the identical universe so their locally re-planned
		// fragments carry the coordinator's plan fingerprint. Their execution
		// modes differ on purpose: partial states are mode-independent on the
		// wire, so one query's fragments may be batch kernels on one worker
		// and tuple closures on the next.
		mode := []proteus.VecMode{proteus.VectorizedOn, proteus.VectorizedOff, proteus.VectorizedAuto}[i%3]
		db := proteus.Open(proteus.Config{Parallelism: 1, PlanCacheSize: -1, Vectorized: mode})
		if err := registerTables(db.Engine(), u); err != nil {
			closeAll()
			return nil, fmt.Errorf("cluster worker %d: %w", i, err)
		}
		ts := httptest.NewServer(server.New(server.Config{DB: db}).Handler())
		closers = append(closers, ts.Close)
		urls = append(urls, ts.URL)
	}
	cfg := c.cfg
	cfg.Cluster = cluster.New(cluster.Config{Workers: urls})
	e, err := buildEngine(cfg, u)
	if err != nil {
		closeAll()
		return nil, err
	}
	return &engineRunner{cfg: c, eng: e, close: closeAll}, nil
}

func runEngineQuery(e *engine.Engine, lang, text string) (*resultSet, error) {
	var (
		res *exec.Result
		err error
	)
	if lang == "comp" {
		res, err = e.QueryComp(text)
	} else {
		res, err = e.QuerySQL(text)
	}
	if err != nil {
		return nil, err
	}
	return &resultSet{Cols: res.Cols, Rows: res.Rows}, nil
}

// runConfig executes the query under one config on a prebuilt engine and
// returns every observed result (two for warm/concurrent configs).
func runConfig(e *engine.Engine, c engConfig, lang, text string) ([]*resultSet, error) {
	switch {
	case c.concurrent:
		results := make([]*resultSet, 2)
		errs := make([]error, 2)
		var wg sync.WaitGroup
		for i := 0; i < 2; i++ {
			wg.Add(1)
			go func(i int) {
				defer wg.Done()
				results[i], errs[i] = runEngineQuery(e, lang, text)
			}(i)
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return nil, err
			}
		}
		return results, nil
	case c.warm:
		cold, err := runEngineQuery(e, lang, text)
		if err != nil {
			return nil, err
		}
		warm, err := runEngineQuery(e, lang, text)
		if err != nil {
			return nil, err
		}
		return []*resultSet{cold, warm}, nil
	case c.reps > 1:
		results := make([]*resultSet, c.reps)
		for i := range results {
			res, err := runEngineQuery(e, lang, text)
			if err != nil {
				return nil, fmt.Errorf("run %d: %w", i, err)
			}
			results[i] = res
		}
		return results, nil
	default:
		res, err := runEngineQuery(e, lang, text)
		if err != nil {
			return nil, err
		}
		return []*resultSet{res}, nil
	}
}
