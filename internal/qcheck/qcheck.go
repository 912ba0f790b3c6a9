// Package qcheck is a deterministic differential + metamorphic fuzzing
// harness for the query engine. From a single seed it generates random
// universes (CSV / JSON / binary tables with nulls, quoted strings,
// unicode, and numeric edge values) and random SQL and comprehension
// queries, then executes every query across a matrix of engine
// configurations — serial / parallel, tuple-at-a-time / vectorized, cold /
// warm caches, plan cache on / off, and two racing executions — and
// cross-checks the results:
//
//   - differentially, against a Volcano interpreter running the same
//     translated plan over the truth rows the data files were serialized
//     from (so the raw-data parsers are under test too), and exactly
//     against the base configuration for every other configuration;
//   - metamorphically: ternary-logic partitioning (Q ≡ Q+p ∪ Q+¬p ∪
//     Q+(p IS NULL)), COUNT(*) consistency against the projected row
//     count, and LIMIT prefix monotonicity under ORDER BY.
//
// Divergences are auto-minimized (rows first, then query clauses) and
// reported with a one-line repro command.
package qcheck

import (
	"fmt"
	"hash/fnv"
	"strconv"

	"proteus/internal/engine"
)

// Options configures a harness run.
type Options struct {
	Seed      int64 // master seed; universe i runs with mix(Seed, i)
	Universes int   // number of universes (default 12)
	Queries   int   // cases per universe (default 44)

	// Repro overrides: run exactly one universe (by its derived seed, as
	// printed in a divergence) and optionally a single case index.
	UniverseSeed int64
	Case         int // -1 = all cases

	MaxDivergences int // stop reporting (not running) beyond this many (default 5)
	NoShrink       bool
	Log            func(format string, args ...any) // optional progress/diagnostic sink
}

// Divergence is one observed disagreement.
type Divergence struct {
	UniverseSeed int64
	Case         int
	Config       string // engine config name, or "oracle" for tier-A mismatches
	Kind         string // "result", "error", "metamorphic:…"
	Query        string
	Detail       string
	Repro        string // one-line go test command reproducing this case
	Minimized    string // shrunken tables + query, when shrinking succeeded
}

func (d Divergence) String() string {
	s := fmt.Sprintf("[%s/%s] useed=%d case=%d\n  query: %s\n  %s\n  repro: %s",
		d.Config, d.Kind, d.UniverseSeed, d.Case, d.Query, d.Detail, d.Repro)
	if d.Minimized != "" {
		s += "\n  minimized:\n" + d.Minimized
	}
	return s
}

// Report summarizes a run.
type Report struct {
	Universes   int
	Cases       int // generated cases
	Executed    int // cases that ran on at least the oracle and base engine
	Rejected    int // cases where oracle and every engine agreed on an error
	Comparisons int // individual result comparisons performed
	Divergences []Divergence
	Digest      uint64 // order-sensitive digest of every case's outcome
}

func (o Options) withDefaults() Options {
	if o.Universes == 0 {
		o.Universes = 12
	}
	if o.Queries == 0 {
		o.Queries = 44
	}
	if o.MaxDivergences == 0 {
		o.MaxDivergences = 5
	}
	if o.Case == 0 {
		o.Case = -1
	}
	if o.Log == nil {
		o.Log = func(string, ...any) {}
	}
	return o
}

// Run executes the harness and returns its report. The returned error is
// for harness-infrastructure failures only; engine disagreements are
// reported as Divergences.
func Run(opts Options) (*Report, error) {
	opts = opts.withDefaults()
	rep := &Report{}
	h := fnv.New64a()

	useeds := make([]int64, 0, opts.Universes)
	if opts.UniverseSeed != 0 {
		useeds = append(useeds, opts.UniverseSeed)
	} else {
		for i := 0; i < opts.Universes; i++ {
			useeds = append(useeds, mix(opts.Seed, int64(i)))
		}
	}

	for _, useed := range useeds {
		if err := runUniverse(rep, useed, opts, h); err != nil {
			return rep, err
		}
		rep.Universes++
	}
	rep.Digest = h.Sum64()
	return rep, nil
}

func runUniverse(rep *Report, useed int64, opts Options, h interface{ Write([]byte) (int, error) }) error {
	u, err := genUniverse(useed)
	if err != nil {
		return err
	}
	cfgs := configMatrix()
	engines := make([]*engineRunner, len(cfgs))
	defer func() {
		for _, er := range engines {
			if er != nil && er.close != nil {
				er.close()
			}
		}
	}()
	for i, c := range cfgs {
		r, err := buildRunner(c, u)
		if err != nil {
			return fmt.Errorf("qcheck: build %s engine for universe %d: %w", c.name, useed, err)
		}
		engines[i] = r
	}
	for q := 0; q < opts.Queries; q++ {
		if opts.Case >= 0 && q != opts.Case {
			continue
		}
		rep.Cases++
		runCase(rep, u, useed, q, engines, opts, h)
	}
	return nil
}

// engineRunner pairs a config with its long-lived engine for one universe,
// plus the teardown for any in-process cluster workers behind it.
type engineRunner struct {
	cfg   engConfig
	eng   *engine.Engine
	close func() // nil for plain configs
}

func runCase(rep *Report, u *universe, useed int64, caseIdx int,
	engines []*engineRunner, opts Options, h interface{ Write([]byte) (int, error) }) {

	spec := genQuery(mix(useed, int64(caseIdx)), u)
	text := spec.render()
	repro := fmt.Sprintf("go test ./internal/qcheck -run 'TestQCheck$' -qcheck.useed=%d -qcheck.case=%d", useed, caseIdx)
	fmt.Fprintf(hWriter{h}, "case %d %s\n", caseIdx, text)

	report := func(cfg, kind, detail string, shrinkCfg *engConfig) {
		d := Divergence{
			UniverseSeed: useed, Case: caseIdx, Config: cfg, Kind: kind,
			Query: text, Detail: detail, Repro: repro,
		}
		if !opts.NoShrink && shrinkCfg != nil {
			d.Minimized = shrink(u, spec, *shrinkCfg)
		}
		if len(rep.Divergences) < opts.MaxDivergences {
			rep.Divergences = append(rep.Divergences, d)
			opts.Log("qcheck divergence: %s", d.String())
		}
	}

	oracle, c, oerr := runOracle(u, spec.lang, text)
	baseRes, berr := runConfig(engines[0].eng, engines[0].cfg, spec.lang, text)

	switch {
	case oerr != nil && berr != nil:
		// Consistent rejection; every other config must reject too.
		rep.Rejected++
		for _, er := range engines[1:] {
			if _, err := runConfig(er.eng, er.cfg, spec.lang, text); err == nil {
				cfg := er.cfg
				report(cfg.name, "error", fmt.Sprintf(
					"oracle and base reject the query (%v) but %s accepts it", oerr, cfg.name), &cfg)
			}
			rep.Comparisons++
		}
		fmt.Fprintf(hWriter{h}, "rejected %v\n", oerr)
		return
	case oerr != nil:
		report("oracle", "error", fmt.Sprintf("oracle rejects (%v) but the engine accepts", oerr), &engines[0].cfg)
		return
	case berr != nil:
		report(engines[0].cfg.name, "error", fmt.Sprintf("engine rejects (%v) but the oracle accepts", berr), &engines[0].cfg)
		return
	}
	rep.Executed++

	var orderCols []string
	for _, ob := range c.OrderBy {
		orderCols = append(orderCols, ob)
	}

	base := baseRes[0]
	for _, row := range base.Rows {
		fmt.Fprintf(hWriter{h}, "%s\n", encodeRow(row))
	}

	// Tier A: base vs oracle.
	rep.Comparisons++
	if d := compareOracle(oracle, base, orderCols, c.Limit); d != "" {
		report("oracle", "result", d, &engines[0].cfg)
	}

	// Tier B: every other config vs base. Exact (ordered, byte-identical)
	// where output order is deterministic by construction; oracle-tier rules
	// where it is implementation-defined (group emission order and join row
	// order may shift when the adaptive optimizer re-plans on warmed stats).
	exact := spec.exactOrder()
	for _, er := range engines[1:] {
		results, err := runConfig(er.eng, er.cfg, spec.lang, text)
		rep.Comparisons++
		cfg := er.cfg
		if err != nil {
			report(cfg.name, "error", fmt.Sprintf("base succeeds but %s fails: %v", cfg.name, err), &cfg)
			continue
		}
		for ri, res := range results {
			d := ""
			if exact {
				d = compareExact(base, res)
			} else {
				d = compareOracle(oracle, res, orderCols, c.Limit)
			}
			if d != "" {
				report(cfg.name, "result", fmt.Sprintf("run %d: %s", ri, d), &cfg)
				break
			}
		}
		if cfg.rebind {
			rep.Comparisons++
			if d := rebindDiverges(er.eng, u, spec); d != "" {
				report(cfg.name, "rebind", d, &cfg)
			}
		}
	}

	runMetamorphic(rep, spec, engines[0], base, mix(mix(useed, int64(caseIdx)), 7777), report)
}

// hWriter adapts the digest hash to Fprintf.
type hWriter struct {
	h interface{ Write([]byte) (int, error) }
}

func (w hWriter) Write(p []byte) (int, error) { return w.h.Write(p) }

// FormatReport renders a short human-readable summary.
func FormatReport(r *Report) string {
	s := fmt.Sprintf("qcheck: %d universes, %d cases (%d executed, %d rejected), %d comparisons, digest %s",
		r.Universes, r.Cases, r.Executed, r.Rejected, r.Comparisons,
		strconv.FormatUint(r.Digest, 16))
	for _, d := range r.Divergences {
		s += "\n" + d.String()
	}
	return s
}
