// Divergence minimization. Given a diverging (universe, query, config)
// triple, shrink first the data (ddmin-style contiguous row-chunk removal
// per table, re-serializing after every removal so the engines parse the
// reduced files) and then the query (dropping LIMIT, ORDER BY, WHERE
// conjuncts, projection items, aggregates, group keys, and unreferenced
// join/unnest sources), keeping each reduction only while the divergence
// still reproduces on fresh engines. The whole search is bounded by a
// check budget so a pathological case cannot stall the run.
package qcheck

import (
	"fmt"
	"strings"

	"proteus/internal/expr"
	"proteus/internal/types"
)

const shrinkBudget = 160 // max reproduction attempts per divergence

func cloneUniverse(u *universe) *universe {
	out := &universe{Seed: u.Seed}
	for _, t := range u.Tables {
		tc := *t
		tc.Rows = append([]types.Value(nil), t.Rows...)
		out.Tables = append(out.Tables, &tc)
	}
	return out
}

// checkDiverges rebuilds everything from scratch and reports whether the
// case still shows any disagreement for the given config.
func checkDiverges(u *universe, spec *querySpec, cfg engConfig, budget *int) bool {
	if *budget <= 0 {
		return false
	}
	*budget--
	for _, t := range u.Tables {
		if err := serializeTable(t); err != nil {
			return false
		}
	}
	text := spec.render()
	oracle, c, oerr := runOracle(u, spec.lang, text)

	baseEng, err := buildEngine(configMatrix()[0].cfg, u)
	if err != nil {
		return false
	}
	base, berr := runEngineQuery(baseEng, spec.lang, text)

	if (oerr != nil) != (berr != nil) {
		return true
	}
	if oerr != nil { // both reject: divergence only if cfg accepts
		if cfg.name == "base" {
			return false
		}
		r, err := buildRunner(cfg, u)
		if err != nil {
			return false
		}
		_, cerr := runConfig(r.eng, cfg, spec.lang, text)
		if r.close != nil {
			r.close()
		}
		return cerr == nil
	}
	if d := compareOracle(oracle, base, c.OrderBy, c.Limit); d != "" {
		return true
	}
	if cfg.name == "base" {
		return false
	}
	r, err := buildRunner(cfg, u)
	if err != nil {
		return false
	}
	if r.close != nil {
		defer r.close()
	}
	results, cerr := runConfig(r.eng, cfg, spec.lang, text)
	if cerr != nil {
		return true
	}
	exact := spec.exactOrder()
	for _, res := range results {
		if exact {
			if compareExact(base, res) != "" {
				return true
			}
		} else if compareOracle(oracle, res, c.OrderBy, c.Limit) != "" {
			return true
		}
	}
	return cfg.rebind && rebindDiverges(r.eng, u, spec) != ""
}

// shrink minimizes a diverging case and renders the reduced repro, or
// returns "" when the divergence does not reproduce on fresh engines
// (e.g. warm-cache-only effects).
func shrink(u *universe, spec *querySpec, cfg engConfig) string {
	budget := shrinkBudget
	cu := cloneUniverse(u)
	cs := spec.clone()
	if !checkDiverges(cu, cs, cfg, &budget) {
		return ""
	}
	shrinkRows(cu, cs, cfg, &budget)
	shrinkSpec(cu, cs, cfg, &budget)
	return dumpCase(cu, cs)
}

// shrinkRows removes contiguous row chunks per table while the divergence
// holds.
func shrinkRows(u *universe, spec *querySpec, cfg engConfig, budget *int) {
	for _, t := range u.Tables {
		for chunk := (len(t.Rows) + 1) / 2; chunk >= 1; chunk /= 2 {
			for i := 0; i < len(t.Rows); {
				if *budget <= 0 {
					return
				}
				saved := t.Rows
				end := i + chunk
				if end > len(t.Rows) {
					end = len(t.Rows)
				}
				t.Rows = append(append([]types.Value(nil), t.Rows[:i]...), t.Rows[end:]...)
				if checkDiverges(u, spec, cfg, budget) {
					continue // keep the removal; retry the same offset
				}
				t.Rows = saved
				i += chunk
			}
		}
	}
}

// refsIn collects every generator alias referenced by the spec's
// expressions (excluding the candidate expressions passed in skip).
func (q *querySpec) refsAlias(alias string, skip map[expr.Expr]bool) bool {
	found := false
	see := func(e expr.Expr) {
		if e == nil || skip[e] {
			return
		}
		expr.Walk(e, func(x expr.Expr) bool {
			if r, ok := x.(*expr.Ref); ok && r.Name == alias {
				found = true
			}
			return true
		})
	}
	for _, w := range q.where {
		see(w)
	}
	for _, it := range q.items {
		see(it.e)
	}
	for _, k := range q.keys {
		see(k)
	}
	for _, a := range q.aggs {
		see(a.arg)
	}
	if !skip[q.joinPred] {
		see(q.joinPred)
	}
	return found
}

// pruneOrderBy drops ORDER BY keys whose columns left the output.
func (q *querySpec) pruneOrderBy() {
	cols := map[string]bool{}
	for _, c := range q.orderableCols() {
		cols[c] = true
	}
	var kept []orderKey
	for _, o := range q.orderBy {
		if cols[o.col] {
			kept = append(kept, o)
		}
	}
	q.orderBy = kept
}

// shrinkSpec applies clause-dropping transforms until none makes progress.
func shrinkSpec(u *universe, spec *querySpec, cfg engConfig, budget *int) {
	try := func(mutate func(q *querySpec) bool) bool {
		if *budget <= 0 {
			return false
		}
		cand := spec.clone()
		if !mutate(cand) {
			return false
		}
		cand.pruneOrderBy()
		if !checkDiverges(u, cand, cfg, budget) {
			return false
		}
		*spec = *cand
		return true
	}
	for progress := true; progress; {
		progress = false
		if spec.limit > 0 {
			progress = try(func(q *querySpec) bool { q.limit = 0; return true }) || progress
		}
		if len(spec.orderBy) > 0 {
			progress = try(func(q *querySpec) bool { q.orderBy = nil; return true }) || progress
		}
		for i := range spec.where {
			i := i
			progress = try(func(q *querySpec) bool {
				if i >= len(q.where) {
					return false
				}
				q.where = append(q.where[:i:i], q.where[i+1:]...)
				return true
			}) || progress
		}
		if spec.mode == modeProject && len(spec.items) > 1 {
			for i := range spec.items {
				i := i
				progress = try(func(q *querySpec) bool {
					if len(q.items) < 2 || i >= len(q.items) {
						return false
					}
					q.items = append(q.items[:i:i], q.items[i+1:]...)
					return true
				}) || progress
			}
		}
		if len(spec.aggs) > 1 {
			for i := range spec.aggs {
				i := i
				progress = try(func(q *querySpec) bool {
					if len(q.aggs) < 2 || i >= len(q.aggs) {
						return false
					}
					q.aggs = append(q.aggs[:i:i], q.aggs[i+1:]...)
					return true
				}) || progress
			}
		}
		if spec.mode == modeGroup && len(spec.keys) > 1 {
			progress = try(func(q *querySpec) bool {
				q.keys = q.keys[:1]
				q.items = q.items[:1]
				return true
			}) || progress
		}
		if spec.unnest != "" && !spec.refsAlias("u", nil) {
			progress = try(func(q *querySpec) bool { q.unnest = ""; return true }) || progress
		}
		if len(spec.tables) == 2 && !spec.refsAlias("b", map[expr.Expr]bool{spec.joinPred: true}) {
			progress = try(func(q *querySpec) bool {
				q.tables = q.tables[:1]
				q.aliases = q.aliases[:1]
				q.joinPred = nil
				return true
			}) || progress
		}
	}
}

// dumpCase renders the minimized tables and query.
func dumpCase(u *universe, spec *querySpec) string {
	var b strings.Builder
	for _, t := range u.Tables {
		fmt.Fprintf(&b, "    table %s (%s, %d rows)", t.Name, t.Format, len(t.Rows))
		for i, row := range t.Rows {
			if i == 12 {
				fmt.Fprintf(&b, "\n      … %d more rows", len(t.Rows)-i)
				break
			}
			b.WriteString("\n      ")
			b.WriteString(clip(encodeRow(row), 200))
		}
		b.WriteString("\n")
	}
	fmt.Fprintf(&b, "    query (%s): %s", spec.lang, spec.render())
	return b.String()
}
