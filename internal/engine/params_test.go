package engine

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"proteus/internal/cache"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// rebindTemplates are one-shape query families whose literals alternate:
// an equality, a two-sided range (two conjuncts on one indexed column, one
// merged bitmap), and a string equality whose literal is sometimes absent
// from the column's dictionary.
var rebindTemplates = []struct {
	name   string
	format string
	args   [][]any
}{
	{"equality", "SELECT COUNT(*), SUM(id) FROM idx WHERE grp = %d", [][]any{{3}, {7}, {0}, {11}, {3}}},
	{"range", "SELECT COUNT(*), SUM(id) FROM idx WHERE grp >= %d AND grp < %d AND band = %d",
		[][]any{{2, 5, 7}, {0, 10, 99}, {4, 4, 7}, {9, 12, 99}, {2, 5, 7}}},
	{"absent string", "SELECT COUNT(*), MIN(id) FROM idx WHERE color = '%s'",
		[][]any{{"red"}, {"purple"}, {"blue"}, {""}, {"red"}}},
}

// TestShapeRebindAlternatesLiterals runs texts of one shape with alternating
// literals on an engine whose indexes answer them, and checks every result
// against an engine without indexes or plan cache: a shared program must
// never keep another text's bitmap, zone test or literal.
func TestShapeRebindAlternatesLiterals(t *testing.T) {
	for _, par := range []int{1, 2} {
		e := newIdxEngine(t, Config{
			CacheEnabled: true, CacheStrings: true, Indexes: cache.IndexOn,
			Vectorized: exec.VecOn, Parallelism: par,
		})
		ref := newIdxEngine(t, Config{Indexes: cache.IndexOff, PlanCacheSize: -1, Parallelism: 1})
		for _, tmpl := range rebindTemplates {
			// Warm up: populate the cache blocks and build the indexes.
			for i := 0; i < 3; i++ {
				if _, err := e.QuerySQL(fmt.Sprintf(tmpl.format, tmpl.args[0]...)); err != nil {
					t.Fatal(err)
				}
			}
			before := e.Metrics()
			for round := 0; round < 2; round++ {
				for _, args := range tmpl.args {
					q := fmt.Sprintf(tmpl.format, args...)
					got, err := e.QuerySQL(q)
					if err != nil {
						t.Fatalf("par %d %s: %v", par, q, err)
					}
					want, err := ref.QuerySQL(q)
					if err != nil {
						t.Fatal(err)
					}
					if fmt.Sprint(got.Rows) != fmt.Sprint(want.Rows) {
						t.Fatalf("par %d round %d %s: %v, want %v", par, round, q, got.Rows, want.Rows)
					}
				}
			}
			after := e.Metrics()
			if after.PlanCacheMisses != before.PlanCacheMisses {
				t.Errorf("par %d %s: %d compiles after warm-up, want 0 (%+v)", par, tmpl.name,
					after.PlanCacheMisses-before.PlanCacheMisses, after.PlanCacheMissReasons)
			}
			if after.PlanCacheShapeHits == before.PlanCacheShapeHits || after.PlanCacheTextHits == before.PlanCacheTextHits {
				t.Errorf("par %d %s: shape hits %d → %d, text hits %d → %d; want both to move", par, tmpl.name,
					before.PlanCacheShapeHits, after.PlanCacheShapeHits, before.PlanCacheTextHits, after.PlanCacheTextHits)
			}
		}
		if cs := e.Caches().Snapshot(); cs.IndexHits == 0 {
			t.Fatalf("par %d: no bitmap served a filter: %+v", par, cs)
		}
	}
}

// TestIntAndFloatLiteralsDistinctShapes checks that an int and a float
// literal on one column never share a program: the kernels differ.
func TestIntAndFloatLiteralsDistinctShapes(t *testing.T) {
	e := newTestEngine(t, Config{})
	for _, c := range []struct {
		q    string
		want int64
	}{
		{"SELECT COUNT(*) FROM nums WHERE val < 30", 2},
		{"SELECT COUNT(*) FROM nums WHERE val < 30.5", 3},
		{"SELECT COUNT(*) FROM nums WHERE val < 45", 4},
		{"SELECT COUNT(*) FROM nums WHERE val < 15.5", 1},
	} {
		res, err := e.QuerySQL(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if got := res.Scalar().AsInt(); got != c.want {
			t.Errorf("%s = %d, want %d", c.q, got, c.want)
		}
	}
	m := e.Metrics()
	if m.PlanCacheMissReasons.Cold != 2 || m.PlanCacheShapeHits != 2 {
		t.Errorf("cold misses %d, shape hits %d; want 2 and 2 (one shape per literal kind)",
			m.PlanCacheMissReasons.Cold, m.PlanCacheShapeHits)
	}
}

// TestExplainPrintsBoundLiteral checks that the profile of a shape hit
// shows the text's own literal, not the one its program was compiled for.
func TestExplainPrintsBoundLiteral(t *testing.T) {
	e := newTestEngine(t, Config{})
	ops := func(qp *obs.QueryProfile) string {
		var sb strings.Builder
		qp.Root.Each(func(op *obs.OpProfile) { sb.WriteString(op.Op + "\n") })
		return sb.String()
	}
	if _, qp, err := e.ExplainAnalyzeSQL("SELECT SUM(val) FROM nums WHERE id < 4"); err != nil {
		t.Fatal(err)
	} else if !strings.Contains(ops(qp), "4") {
		t.Fatalf("compiled text's profile:\n%s", ops(qp))
	}
	res, qp, err := e.ExplainAnalyzeSQL("SELECT SUM(val) FROM nums WHERE id < 3")
	if err != nil {
		t.Fatal(err)
	}
	if !qp.PlanCached || e.Metrics().PlanCacheShapeHits != 1 {
		t.Fatalf("second text of the shape did not bind: plan_cached=%v", qp.PlanCached)
	}
	if got := res.Scalar().AsInt(); got != 30 {
		t.Errorf("sum = %d, want 30", got)
	}
	if s := ops(qp); !strings.Contains(s, "< 3") || strings.Contains(s, "< 4") {
		t.Errorf("bound text's profile shows another literal:\n%s", s)
	}
	if sel := findOp(qp.Root, "Select"); sel == nil || sel.Rows != 2 {
		t.Errorf("bound text's select profile %+v, want 2 rows", sel)
	}
}

// TestTextHitAllocs pins the allocations of a plan-cache text hit on a
// default engine: a repeated text installs its binding and runs, and
// allocates no more than before programs were shared per shape.
func TestTextHitAllocs(t *testing.T) {
	e := newTestEngine(t, Config{})
	const q = "SELECT SUM(val) FROM nums WHERE id < 4"
	ctx := context.Background()
	for i := 0; i < 3; i++ {
		if _, err := e.QueryStream(ctx, LangSQL, q); err != nil {
			t.Fatal(err)
		}
	}
	// Alternating with another text of the same shape re-installs the
	// binding on every run; that must not allocate either.
	const q2 = "SELECT SUM(val) FROM nums WHERE id < 3"
	if _, err := e.QueryStream(ctx, LangSQL, q2); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(100, func() {
		if _, err := e.QueryStream(ctx, LangSQL, q); err != nil {
			t.Fatal(err)
		}
		if _, err := e.QueryStream(ctx, LangSQL, q2); err != nil {
			t.Fatal(err)
		}
	})
	if m := e.Metrics(); m.PlanCacheMisses != 1 {
		t.Fatalf("misses = %d, want 1", m.PlanCacheMisses)
	}
	if allocs > 2*textHitAllocs {
		t.Errorf("two text hits allocate %.0f, want at most %d", allocs, 2*textHitAllocs)
	}
}

// textHitAllocs is the allocation count of one text hit of
// TestTextHitAllocs's query when programs were cached per text.
const textHitAllocs = 43

// TestConcurrentShapeRebind races clients that send one shape with
// different literals: each run must see its own literals and bitmaps, and
// the shape's pool stays within its bound. Run under -race it guards the
// program locking and the binding swap.
func TestConcurrentShapeRebind(t *testing.T) {
	e := newIdxEngine(t, Config{
		CacheEnabled: true, CacheStrings: true, Indexes: cache.IndexOn,
		Vectorized: exec.VecOn, Parallelism: 2,
	})
	const q = "SELECT COUNT(*) FROM idx WHERE grp >= %d AND grp < %d"
	for i := 0; i < 3; i++ {
		if _, err := e.QuerySQL(fmt.Sprintf(q, 0, 5)); err != nil {
			t.Fatal(err)
		}
	}
	var wg sync.WaitGroup
	errs := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 12; i++ {
				lo := (w + i) % 10
				res, err := e.QuerySQL(fmt.Sprintf(q, lo, lo+2))
				if err != nil {
					errs <- err
					return
				}
				// grp cycles 0..9 over 3000 rows: 300 rows per value.
				want := int64(300 * (min(lo+2, 10) - lo))
				if got := res.Scalar().AsInt(); got != want {
					errs <- fmt.Errorf("grp in [%d,%d): count %d, want %d", lo, lo+2, got, want)
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	e.plans.mu.Lock()
	n := e.plans.programs
	e.plans.mu.Unlock()
	if n > maxShapePrograms {
		t.Errorf("one shape holds %d programs, want at most %d", n, maxShapePrograms)
	}
}

// BenchmarkShapeRebind compares the three plan-cache outcomes on the shape
// of the svc workload's small aggregate (an indexed equality plus a
// two-sided range over warm cached columns): a full miss runs parse →
// optimize → compile → run, a shape hit parse → optimize → bind → run, a
// text hit only install → run. The compile and bind sub-benchmarks time
// the replaced step alone.
func BenchmarkShapeRebind(b *testing.B) {
	cfg := Config{CacheEnabled: true, CacheStrings: true, Indexes: cache.IndexOn, Vectorized: exec.VecOn, Parallelism: 1}
	mk := func(cfg Config) *Engine {
		e := New(cfg)
		var sb strings.Builder
		for i := 0; i < 20000; i++ {
			fmt.Fprintf(&sb, "%d,%d,%d,%d.5\n", i, i%200, i%50, i%997)
		}
		e.Mem().PutFile("mem://li.csv", []byte(sb.String()))
		schema := types.NewRecordType(
			types.Field{Name: "l_orderkey", Type: types.Int},
			types.Field{Name: "l_suppkey", Type: types.Int},
			types.Field{Name: "l_quantity", Type: types.Int},
			types.Field{Name: "l_extendedprice", Type: types.Float},
		)
		if err := e.Register("lineitem", "mem://li.csv", "csv", schema, plugin.Options{}); err != nil {
			b.Fatal(err)
		}
		return e
	}
	text := func(i int) string {
		q := i%25 + 1
		return fmt.Sprintf("SELECT COUNT(*), SUM(l_quantity), MAX(l_extendedprice) FROM lineitem WHERE l_suppkey = %d AND l_quantity >= %d AND l_quantity < %d", i%200, q, q+25)
	}
	warm := func(e *Engine) {
		for i := 0; i < 4; i++ {
			if _, err := e.QuerySQL(text(0)); err != nil {
				b.Fatal(err)
			}
		}
	}
	run := func(b *testing.B, e *Engine, text func(int) string) {
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.QueryStream(context.Background(), LangSQL, text(i)); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.Run("miss", func(b *testing.B) {
		// Caching needs the plan cache to settle its blocks, so warm a
		// cached engine, then compile every text afresh by planning it
		// directly.
		e := mk(cfg)
		warm(e)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p, err := e.prepare(context.Background(), LangSQL, text(i), profOff, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := p.Program.RunUnboxed(context.Background()); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("shape", func(b *testing.B) {
		// Texts recur every 200 iterations, past the text level's 64
		// entries, so each run binds afresh.
		e := mk(cfg)
		warm(e)
		run(b, e, text)
	})
	b.Run("text", func(b *testing.B) {
		e := mk(cfg)
		warm(e)
		run(b, e, func(int) string { return text(0) })
	})
	b.Run("compile", func(b *testing.B) {
		e := mk(cfg)
		warm(e)
		c, _ := e.parse(LangSQL, text(1), nil)
		plan, _ := e.planFor(context.Background(), c, nil)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := e.compile(context.Background(), plan, nil, profOff, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("bind", func(b *testing.B) {
		e := mk(cfg)
		warm(e)
		c, _ := e.parse(LangSQL, text(1), nil)
		plan, _ := e.planFor(context.Background(), c, nil)
		prog, err := e.compile(context.Background(), plan, nil, profOff, nil)
		if err != nil {
			b.Fatal(err)
		}
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := prog.Bind(plan, nil); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// TestInstallRefusesOtherCacheContents checks that a binding derived by a
// program compiled before an index existed cannot be installed into one
// compiled after: their sites consult different access paths.
func TestInstallRefusesOtherCacheContents(t *testing.T) {
	e := newIdxEngine(t, Config{CacheEnabled: true, Indexes: cache.IndexOff, Vectorized: exec.VecOn, Parallelism: 1})
	const q = "SELECT COUNT(*) FROM idx WHERE grp = 3"
	if _, err := e.QuerySQL(q); err != nil { // caches the column
		t.Fatal(err)
	}
	compile := func() *exec.Program {
		t.Helper()
		c, err := e.parse(LangSQL, q, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan, err := e.planFor(context.Background(), c, nil)
		if err != nil {
			t.Fatal(err)
		}
		prog, err := e.compile(context.Background(), plan, nil, profOff, nil)
		if err != nil {
			t.Fatal(err)
		}
		return prog
	}
	before := compile()
	e.Caches().Indexes = cache.IndexOn
	e.Caches().NotePredicate("idx", "grp", 0.1)
	if e.Caches().Snapshot().IndexBuilds != 1 {
		t.Fatal("no index built")
	}
	after := compile()
	if after.Install(before.Binding()) || before.Install(after.Binding()) {
		t.Error("a binding crossed programs compiled against different cache contents")
	}
	if !after.Install(after.Binding()) || !compile().Install(after.Binding()) {
		t.Error("programs compiled against the same cache contents must share bindings")
	}
}
