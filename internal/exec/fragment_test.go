package exec

import (
	"bytes"
	"context"
	"encoding/binary"
	"fmt"
	"math"
	"strings"
	"testing"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/calculus"
	"proteus/internal/expr"
	"proteus/internal/optimizer"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/plugin/csvpg"
	"proteus/internal/plugin/jsonpg"
	"proteus/internal/sql"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// testCatalog is the least an exec test needs of an engine: datasets opened
// through the real plug-ins, and enough of the planner's interfaces to turn
// SQL into an optimized plan. (internal/engine imports this package, so
// in-package tests cannot use it.)
type testCatalog struct {
	env      *plugin.Env
	registry *plugin.Registry
	datasets map[string]*plugin.Dataset
	caches   *cache.Manager
}

func (c *testCatalog) Dataset(name string) (*plugin.Dataset, plugin.Input, error) {
	ds, ok := c.datasets[name]
	if !ok {
		return nil, nil, fmt.Errorf("unknown dataset %q", name)
	}
	in, err := c.registry.For(ds.Format)
	return ds, in, err
}

func (c *testCatalog) SchemaOf(name string) (*types.RecordType, bool) {
	ds, in, err := c.Dataset(name)
	if err != nil {
		return nil, false
	}
	return in.Schema(ds), true
}

func (c *testCatalog) Rows(name string) int64 {
	ds, in, err := c.Dataset(name)
	if err != nil {
		return 0
	}
	return in.Cardinality(ds)
}

func (c *testCatalog) FieldCost(string) float64 { return 1 }

func (c *testCatalog) add(t testing.TB, name, format string, data []byte, schema *types.RecordType) {
	t.Helper()
	path := "mem://" + name
	c.env.Mem.PutFile(path, data)
	in, err := c.registry.For(format)
	if err != nil {
		t.Fatal(err)
	}
	ds := &plugin.Dataset{Name: name, Path: path, Format: format, Schema: schema}
	if err := in.Open(c.env, ds); err != nil {
		t.Fatalf("open %s: %v", name, err)
	}
	c.datasets[name] = ds
}

func (c *testCatalog) env4(mode VecMode, sort *SortSpec) *Env {
	return &Env{Catalog: c, Caches: c.caches, Vectorize: mode, Sort: sort}
}

// plan runs the front half of the query life-cycle, as engine.planFor does.
func (c *testCatalog) plan(t testing.TB, query string) (algebra.Node, *SortSpec) {
	t.Helper()
	comp, err := sql.Parse(query)
	if err != nil {
		t.Fatalf("parse %q: %v", query, err)
	}
	if err := calculus.ResolveColumns(comp, c); err != nil {
		t.Fatalf("resolve %q: %v", query, err)
	}
	plan, err := calculus.Translate(calculus.Normalize(comp), c)
	if err != nil {
		t.Fatalf("translate %q: %v", query, err)
	}
	plan = optimizer.Optimize(plan, &optimizer.Env{Stats: stats.NewStore(), Costs: c})
	var sort *SortSpec
	if len(comp.OrderBy) > 0 || comp.Limit > 0 {
		sort = &SortSpec{By: comp.OrderBy, Desc: comp.OrderDesc, Limit: comp.Limit}
	}
	return plan, sort
}

const tRows = 5000 // more than two batches, so VecAuto vectorizes t as well

// newTestCatalog registers three tables, one per raw format:
//
//	t (csv)  k 0..4999, g = k%7, f = k/4 (dyadic, so sums are exact in any
//	         order), s = "s<k%13>"
//	j (json) 300 objects {g, v, s}; g is null on every fifth row
//	b (bin)  64 rows {k, x} where x cycles NaN, ±Inf, ±0 and plain values
func newTestCatalog(t testing.TB) *testCatalog {
	t.Helper()
	mem := storage.NewManager(0)
	c := &testCatalog{
		env:      &plugin.Env{Mem: mem, Stats: stats.NewStore()},
		registry: plugin.NewRegistry(),
		datasets: map[string]*plugin.Dataset{},
		caches:   cache.NewManager(mem, false),
	}
	c.registry.Register(csvpg.New())
	c.registry.Register(jsonpg.New())
	c.registry.Register(binpg.New())

	var csv, js bytes.Buffer
	for k := 0; k < tRows; k++ {
		fmt.Fprintf(&csv, "%d,%d,%g,s%d\n", k, k%7, float64(k)/4, k%13)
	}
	c.add(t, "t", "csv", csv.Bytes(), types.NewRecordType(
		types.Field{Name: "k", Type: types.Int},
		types.Field{Name: "g", Type: types.Int},
		types.Field{Name: "f", Type: types.Float},
		types.Field{Name: "s", Type: types.String},
	))
	for i := 0; i < 300; i++ {
		g := fmt.Sprint(i % 4)
		if i%5 == 0 {
			g = "null"
		}
		fmt.Fprintf(&js, `{"g": %s, "v": %g, "s": "w%d"}`+"\n", g, float64(i)/2+0.5, i%11)
	}
	c.add(t, "j", "json", js.Bytes(), types.NewRecordType(
		types.Field{Name: "g", Type: types.Int},
		types.Field{Name: "v", Type: types.Float},
		types.Field{Name: "s", Type: types.String},
	))
	edge := []float64{math.NaN(), math.Inf(1), math.Inf(-1), math.Copysign(0, -1), 0, 1.5, -2.25, 1e300}
	ks, xs := make([]int64, 64), make([]float64, 64)
	for i := range ks {
		ks[i], xs[i] = int64(i%3), edge[(i*5)%len(edge)]
	}
	bin, err := binpg.EncodeColumnar([]binpg.Column{
		{Name: "k", Type: types.Int, Ints: ks},
		{Name: "x", Type: types.Float, Floats: xs},
	})
	if err != nil {
		t.Fatal(err)
	}
	c.add(t, "b", "bin", bin, nil)
	return c
}

// render prints a result so that equal strings mean byte-identical output:
// Value.String formats floats with 'g'/-1, which tells -0 from 0 and every
// finite value from its neighbours.
func render(res *Result) string {
	var sb strings.Builder
	fmt.Fprintln(&sb, res.Cols)
	for _, row := range res.Box().Rows {
		fmt.Fprintln(&sb, row)
	}
	return sb.String()
}

func runLocal(t testing.TB, c *testCatalog, plan algebra.Node, mode VecMode, sort *SortSpec) *Result {
	t.Helper()
	prog, err := Compile(plan, c.env4(mode, sort))
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	res, err := prog.Run()
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	if sort != nil && !prog.Sorted {
		res, _ = OrderAndLimit(res, sort.By, sort.Desc, sort.Limit)
	}
	return res
}

// runFragments does what a cluster does with plan: one fragment per morsel
// [cuts[i], cuts[i+1]) under the given mode, each partial through the wire
// codec, merged in morsel order, then the coordinator's own sort. frames
// receives every decoded partial.
func runFragments(t testing.TB, c *testCatalog, plan algebra.Node, mode VecMode, sort *SortSpec, cuts []int64, frames func(*FragmentProgram, *Partial)) *Result {
	t.Helper()
	ms, err := CompileMergeState(plan, c.env4(VecAuto, nil))
	if err != nil {
		t.Fatalf("merge state: %v", err)
	}
	for i := 0; i+1 < len(cuts); i++ {
		fp, err := CompileFragment(plan, c.env4(mode, sort), cuts[i], cuts[i+1])
		if err != nil {
			t.Fatalf("fragment [%d,%d): %v", cuts[i], cuts[i+1], err)
		}
		p, err := fp.RunContext(context.Background())
		if err != nil {
			t.Fatalf("fragment [%d,%d) run: %v", cuts[i], cuts[i+1], err)
		}
		var wire bytes.Buffer
		if err := p.EncodeStream(&wire); err != nil {
			t.Fatalf("encode: %v", err)
		}
		size := wire.Len()
		decoded, err := DecodePartialStream(&wire)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if decoded.WireBytes() != size {
			t.Errorf("WireBytes = %d, frame was %d bytes", decoded.WireBytes(), size)
		}
		if frames != nil {
			frames(fp, decoded)
		}
		if err := ms.Merge(decoded); err != nil {
			t.Fatalf("merge fragment %d: %v", i, err)
		}
	}
	res, err := ms.Result()
	if err != nil {
		t.Fatal(err)
	}
	if sort != nil {
		res, _ = OrderAndLimit(res, sort.By, sort.Desc, sort.Limit)
	}
	return res
}

// barePlan is a plan without a Reduce/Nest root: rows of whole bindings.
func barePlan(c *testCatalog) algebra.Node {
	schema, _ := c.SchemaOf("j")
	return &algebra.Select{
		Pred:  &expr.IsNull{E: &expr.FieldAcc{Base: &expr.Ref{Name: "r"}, Name: "g"}},
		Child: &algebra.Scan{Dataset: "j", Binding: "r", Type: schema},
	}
}

// TestFragmentModesAgree: over all five wire shapes, fragments compiled to
// batch kernels, fragments compiled to tuple closures and one local serial
// program give byte-identical results — with empty morsels, NULL group keys,
// NaN/±Inf/-0.0 floats and string MIN/MAX in the data.
func TestFragmentModesAgree(t *testing.T) {
	c := newTestCatalog(t)
	cases := []struct {
		name, query, table string
		shape              string
		vectorizes         bool // under VecOn
	}{
		{"agg", "SELECT COUNT(*), SUM(k), MIN(f), MAX(f), AVG(f), MIN(s), MAX(s) FROM t WHERE k >= 10", "t", ShapeAgg, true},
		{"agg/float-edges", "SELECT MIN(x), MAX(x), SUM(x), AVG(x), COUNT(*) FROM b", "b", ShapeAgg, true},
		{"agg/zeros", "SELECT MIN(x), MAX(x), SUM(x) FROM b WHERE x = 0", "b", ShapeAgg, true},
		{"agg/no-rows", "SELECT COUNT(*), SUM(k), MIN(s), AVG(f) FROM t WHERE k < 0", "t", ShapeAgg, true},
		{"group_int", "SELECT g, COUNT(*), SUM(f), MIN(s), MAX(s) FROM t GROUP BY g", "t", ShapeGroupInt, true},
		{"group_int/null-key", "SELECT g, COUNT(*), SUM(v), MIN(s), MAX(s) FROM j GROUP BY g", "j", ShapeGroupInt, true},
		{"group_int/float-edges", "SELECT k, MIN(x), MAX(x), SUM(x) FROM b GROUP BY k", "b", ShapeGroupInt, true},
		{"group/string-key", "SELECT s, COUNT(*), MAX(f), MIN(s) FROM t GROUP BY s", "t", ShapeGroup, false},
		{"group/composite-null", "SELECT g, s, COUNT(*), AVG(v) FROM j GROUP BY g, s", "j", ShapeGroup, false},
		{"collect", "SELECT k, f, s FROM t WHERE g = 3", "t", ShapeCollect, true},
		{"collect/float-edges", "SELECT k, x FROM b", "b", ShapeCollect, true},
		{"collect/nulls", "SELECT g, v FROM j WHERE v < 40", "j", ShapeCollect, true},
		{"bare", "", "j", ShapeBare, false},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			plan, sort := barePlan(c), (*SortSpec)(nil)
			if tc.query != "" {
				plan, sort = c.plan(t, tc.query)
			}
			n := c.Rows(tc.table)
			// Empty morsels at the start, in the middle and at the end, and
			// boundaries that are not batch multiples.
			cuts := []int64{0, 0, n / 3, n / 3, n/3 + 1, n - 1, n, n}
			want := render(runLocal(t, c, plan, VecOff, sort))
			for _, mode := range []VecMode{VecOff, VecOn} {
				got := runFragments(t, c, plan, mode, sort, cuts, func(fp *FragmentProgram, p *Partial) {
					if p.Shape != tc.shape {
						t.Errorf("mode %d: frame shape %q, want %q", mode, p.Shape, tc.shape)
					}
					if wantVec := mode == VecOn && tc.vectorizes; fp.unit.vectorized != wantVec {
						t.Errorf("mode %d: fragment vectorized = %v, want %v", mode, fp.unit.vectorized, wantVec)
					}
				})
				if s := render(got); s != want {
					t.Errorf("mode %d fragments diverge from local:\n--- local\n%s--- fragments\n%s", mode, want, s)
				}
			}
		})
	}
}

// TestFragmentTopK: ORDER BY … LIMIT k reaches the fragment, whose frame
// then carries at most k units; the merged result still equals the local
// one, with ties across morsel boundaries. Without a LIMIT, and above an
// aggregate, nothing is cut.
func TestFragmentTopK(t *testing.T) {
	c := newTestCatalog(t)
	n := c.Rows("t")
	cuts := []int64{0, n / 3, 2 * n / 3, n}
	cases := []struct {
		query    string
		maxUnits int // per frame
		total    int // over the three frames
	}{
		// g has 7 values over 5000 rows: every morsel is full of ties.
		{"SELECT g, k, s FROM t ORDER BY g LIMIT 10", 10, 30},
		{"SELECT g, k, s FROM t ORDER BY g DESC, s, k DESC LIMIT 25", 25, 75},
		{"SELECT k, f FROM t WHERE g = 1 ORDER BY f DESC LIMIT 3", 3, 9},
		{"SELECT k FROM t WHERE k < 40 ORDER BY k LIMIT 1000", 40, 40},             // LIMIT above a morsel's matches
		{"SELECT k, g FROM t LIMIT 7", 7, 21},                                      // LIMIT alone: the first rows in scan order
		{"SELECT k, g FROM t WHERE k >= 1600 AND k < 1700 ORDER BY g, k", 67, 100}, // no LIMIT: no pushdown
		{"SELECT g, COUNT(*) AS n FROM t GROUP BY g ORDER BY n DESC LIMIT 2", 7, 21},
		// Boxed rows (a join): the pushdown sorts them row-wise.
		{"SELECT a.k, b.v FROM t a JOIN j b ON a.k = b.g ORDER BY b.v DESC, a.k LIMIT 5", 5, 5},
	}
	for _, tc := range cases {
		plan, sort := c.plan(t, tc.query)
		want := render(runLocal(t, c, plan, VecOff, sort))
		for _, mode := range []VecMode{VecOff, VecOn} {
			total := 0
			got := runFragments(t, c, plan, mode, sort, cuts, func(_ *FragmentProgram, p *Partial) {
				total += p.Units()
				if p.Units() > tc.maxUnits {
					t.Errorf("%s (mode %d): frame carries %d units, want at most %d", tc.query, mode, p.Units(), tc.maxUnits)
				}
			})
			if total != tc.total {
				t.Errorf("%s (mode %d): frames carry %d units in all, want %d", tc.query, mode, total, tc.total)
			}
			if s := render(got); s != want {
				t.Errorf("%s (mode %d) diverges from local:\n--- local\n%s--- fragments\n%s", tc.query, mode, want, s)
			}
		}
	}
}

// Direct tests of the worker-unit helper every execution style is built on.

func TestCompileUnitPicksStateByMode(t *testing.T) {
	c := newTestCatalog(t)
	cases := []struct {
		query           string
		tuple, batch    string // root state types
		autoVectorizes  bool   // t is large and csv batches natively; j is small json
		absorbsSortInOn bool
	}{
		{"SELECT COUNT(*), SUM(f) FROM t", "*exec.reducePartial", "*exec.vecReducePartial", true, false},
		{"SELECT g, COUNT(*) FROM t GROUP BY g", "*exec.nestPartial", "*exec.vecNestPartial", true, false},
		{"SELECT k, f FROM t ORDER BY f DESC LIMIT 5", "*exec.reducePartial", "*exec.vecCollectPartial", true, true},
		{"SELECT s, COUNT(*) FROM t GROUP BY s", "*exec.nestPartial", "*exec.nestPartial", true, false},
		{"SELECT g, COUNT(*) FROM j GROUP BY g", "*exec.nestPartial", "*exec.vecNestPartial", false, false},
	}
	for _, tc := range cases {
		plan, sort := c.plan(t, tc.query)
		for _, mode := range []VecMode{VecOff, VecOn, VecAuto} {
			u, err := (&Compiler{env: c.env4(mode, sort), cancel: &plugin.Cancel{}}).compileUnit(plan)
			if err != nil {
				t.Fatalf("%s: %v", tc.query, err)
			}
			want := tc.tuple
			if mode == VecOn || (mode == VecAuto && tc.autoVectorizes) {
				want = tc.batch
			}
			if got := fmt.Sprintf("%T", u.state); got != want {
				t.Errorf("%s (mode %d): state %s, want %s", tc.query, mode, got, want)
			}
			if u.sorted != (tc.absorbsSortInOn && want == tc.batch) {
				t.Errorf("%s (mode %d): sorted = %v", tc.query, mode, u.sorted)
			}
			if want != tc.tuple && (!u.vectorized || len(u.explain) == 0) {
				t.Errorf("%s (mode %d): batch state, but vectorized = %v with %d compile notes", tc.query, mode, u.vectorized, len(u.explain))
			}
		}
	}
}

func TestWorkerUnitMorselsMergeToSerial(t *testing.T) {
	c := newTestCatalog(t)
	plan, _ := c.plan(t, "SELECT g, COUNT(*), SUM(f), MAX(s) FROM t GROUP BY g")
	for _, mode := range []VecMode{VecOff, VecOn} {
		compile := func(m *plugin.Morsel) *workerUnit {
			cc := &Compiler{env: c.env4(mode, nil), cancel: &plugin.Cancel{}, shared: newSharedRun(1)}
			if m != nil {
				cc.driveScan, cc.morsel = drivingScan(plan), m
			}
			u, err := cc.compileUnit(plan)
			if err != nil {
				t.Fatal(err)
			}
			return u
		}
		whole := compile(nil)
		if err := whole.exec(); err != nil {
			t.Fatal(err)
		}
		serial, _ := whole.state.result()

		left, right := compile(&plugin.Morsel{Start: 0, End: 1234}), compile(&plugin.Morsel{Start: 1234, End: tRows})
		for _, u := range []*workerUnit{left, right} {
			if err := u.exec(); err != nil {
				t.Fatal(err)
			}
		}
		// exec re-arms: a second run must not double the state.
		if err := right.exec(); err != nil {
			t.Fatal(err)
		}
		if err := left.state.merge(right.state); err != nil {
			t.Fatal(err)
		}
		merged, _ := left.state.result()
		if render(merged) != render(serial) {
			t.Errorf("mode %d: merged morsel units diverge from the serial unit:\n%s\nvs\n%s", mode, render(merged), render(serial))
		}
		// States of different styles must refuse each other rather than mis-merge.
		other := VecOn
		if mode == VecOn {
			other = VecOff
		}
		foreign, err := (&Compiler{env: c.env4(other, nil), cancel: &plugin.Cancel{}}).compileUnit(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := left.state.merge(foreign.state); err == nil {
			t.Errorf("mode %d: merging a mode-%d state succeeded", mode, other)
		}
	}
}

func TestWorkerUnitUsesItsOwnRegisters(t *testing.T) {
	c := newTestCatalog(t)
	plan, _ := c.plan(t, "SELECT COUNT(*), SUM(k) FROM t WHERE g = 2")
	u, err := (&Compiler{env: c.env4(VecOff, nil), cancel: &plugin.Cancel{}}).compileUnit(plan)
	if err != nil {
		t.Fatal(err)
	}
	// The serial program runs the unit on a register file of its own making.
	u.state.reset()
	if err := u.run(vbuf.NewRegs(&u.alloc)); err != nil {
		t.Fatal(err)
	}
	first, _ := u.state.result()
	if err := u.exec(); err != nil {
		t.Fatal(err)
	}
	second, _ := u.state.result()
	if render(first) != render(second) || !strings.Contains(render(first), "714") {
		t.Errorf("runs differ or are wrong:\n%s\n%s", render(first), render(second))
	}
}

// wire frames ---------------------------------------------------------------

// sampleFrames returns one valid encoded frame per shape, built from real
// fragment runs, plus the plan each belongs to.
func sampleFrames(t testing.TB, c *testCatalog) (frames [][]byte, plans []algebra.Node) {
	t.Helper()
	queries := []string{
		"SELECT COUNT(*), SUM(f), MIN(s), AVG(f), MAX(k) FROM t",
		"SELECT g, COUNT(*), SUM(v), MAX(s) FROM j GROUP BY g",
		"SELECT g, s, COUNT(*), MIN(v) FROM j GROUP BY g, s",
		"SELECT k, x FROM b",
		"",
	}
	for _, q := range queries {
		plan := barePlan(c)
		if q != "" {
			plan, _ = c.plan(t, q)
		}
		fp, err := CompileFragment(plan, c.env4(VecOn, nil), 0, 40)
		if err != nil {
			t.Fatal(err)
		}
		p, err := fp.RunContext(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		var buf bytes.Buffer
		if err := p.EncodeStream(&buf); err != nil {
			t.Fatal(err)
		}
		frames, plans = append(frames, buf.Bytes()), append(plans, plan)
	}
	return frames, plans
}

func TestFrameRoundTrip(t *testing.T) {
	p := &Partial{
		Shape: ShapeGroup, Names: []string{"k", "f", "n", "m", "e"}, Fingerprint: "fp123", NumKeys: 2,
		Groups: []WireGroup{
			{Keys: []types.Value{types.StringValue("a"), types.FloatValue(math.Copysign(0, -1))},
				Aggs: []any{int64(3), scalarPart[float64]{v: math.Inf(-1), seen: true},
					[]types.Value{types.IntValue(1), types.NullValue()}}},
			{Keys: []types.Value{types.NullValue(), types.FloatValue(math.NaN())},
				Aggs: []any{int64(0), scalarPart[float64]{}, []types.Value(nil)}},
		},
	}
	var buf bytes.Buffer
	if err := p.EncodeStream(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := DecodePartialStream(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Shape != p.Shape || got.Fingerprint != p.Fingerprint || got.NumKeys != 2 || len(got.Groups) != 2 {
		t.Fatalf("header mismatch: %+v", got)
	}
	g0, g1 := got.Groups[0], got.Groups[1]
	if g0.Keys[0].S != "a" || !math.Signbit(g0.Keys[1].F) || g0.Aggs[0] != int64(3) ||
		g0.Aggs[1] != (scalarPart[float64]{v: math.Inf(-1), seen: true}) || len(g0.Aggs[2].([]types.Value)) != 2 {
		t.Errorf("group 0 changed: %+v", g0)
	}
	if !g1.Keys[0].IsNull() || !math.IsNaN(g1.Keys[1].F) || g1.Aggs[1] != (scalarPart[float64]{}) {
		t.Errorf("group 1 changed: %+v", g1)
	}

	// Rows over one field list ship their values only.
	names := []string{"field_x", "y"}
	rows := &Partial{Shape: ShapeCollect, Names: []string{"result"}}
	for i := 0; i < 100; i++ {
		rows.Rows = append(rows.Rows, types.RecordValue(names, []types.Value{types.IntValue(int64(i)), types.StringValue("v")}))
	}
	buf.Reset()
	if err := rows.EncodeStream(&buf); err != nil {
		t.Fatal(err)
	}
	if strings.Count(buf.String(), "field_x") != 1 {
		t.Errorf("field names repeat in a %d-byte frame of 100 rows", buf.Len())
	}
	got, err = DecodePartialStream(&buf)
	if err != nil || len(got.Rows) != 100 || got.Rows[99].String() != rows.Rows[99].String() {
		t.Errorf("rows round trip: %v, %d rows", err, len(got.Rows))
	}
	// Rows that are not uniform records travel free-form.
	mixed := &Partial{Shape: ShapeBare, Names: []string{"r"}, Rows: []types.Value{types.IntValue(1), rows.Rows[0]}}
	if sharedFieldNames(mixed.Rows) != nil {
		t.Fatal("mixed rows claim shared field names")
	}
	buf.Reset()
	if err := mixed.EncodeStream(&buf); err != nil {
		t.Fatal(err)
	}
	if got, err = DecodePartialStream(&buf); err != nil || got.Rows[1].String() != rows.Rows[0].String() {
		t.Errorf("free-form rows round trip: %v", err)
	}
}

func TestEncodeRejectsInconsistentPartial(t *testing.T) {
	bad := []*Partial{
		{Shape: "mystery"},
		{Shape: ShapeAgg, Names: []string{"a", "b"}, Aggs: []any{int64(1)}},
		{Shape: ShapeAgg, Names: []string{"a"}, Aggs: []any{"not a monoid partial"}},
		{Shape: ShapeGroup, Names: []string{"k", "n"}, NumKeys: 1, Groups: []WireGroup{{Keys: nil, Aggs: []any{int64(1)}}}},
	}
	for i, p := range bad {
		if err := p.EncodeStream(&bytes.Buffer{}); err == nil {
			t.Errorf("partial %d encoded without error", i)
		}
	}
}

// hostileFrames derives, from valid frames, the corpus ROADMAP 3(a) names:
// truncated, length-lying, shape-lying, fingerprint-lying and oversized.
func hostileFrames(valid [][]byte) [][]byte {
	var out [][]byte
	for _, f := range valid {
		for cut := 0; cut < len(f); cut += 1 + len(f)/40 {
			out = append(out, f[:cut]) // truncated
		}
		out = append(out, append(append([]byte{}, f...), 0)) // bytes after the end marker
		for shape := byte(0); shape <= 6; shape++ {          // shape-lying
			g := append([]byte{}, f...)
			g[5] = shape
			out = append(out, g)
		}
		g := append([]byte{}, f...)
		g[4]++ // another wire version
		out = append(out, g)
		g = append([]byte{}, f...)
		g[7] ^= 0x20 // fingerprint-lying: decodes, must not merge
		out = append(out, g)
		for i := 6; i < len(f); i += 1 + len(f)/60 { // length-lying: blow up one byte at a time
			g := append([]byte{}, f...)
			g[i] = 0xFF
			out = append(out, g)
		}
		// A unit count far beyond what the frame holds.
		head := append([]byte{}, f[:6]...)
		head = append(head, 0, 1, 1, 'c', 1) // no fingerprint, one name, (no row names | one key)
		out = append(out, binary.AppendUvarint(head, 1<<50))
	}
	return out
}

func TestDecodeRejectsHostileFrames(t *testing.T) {
	c := newTestCatalog(t)
	valid, plans := sampleFrames(t, c)
	for i, f := range valid {
		p, err := DecodePartialStream(bytes.NewReader(f))
		if err != nil {
			t.Fatalf("valid frame %d: %v", i, err)
		}
		ms, _ := CompileMergeState(plans[i], c.env4(VecAuto, nil))
		if err := ms.Merge(p); err != nil {
			t.Fatalf("valid frame %d does not merge: %v", i, err)
		}
		for cut := 0; cut < len(f); cut++ {
			if _, err := DecodePartialStream(bytes.NewReader(f[:cut])); err == nil {
				t.Fatalf("frame %d cut at %d of %d decoded", i, cut, len(f))
			}
		}
		// Every frame is refused by every other shape's merge state.
		for j, other := range plans {
			if j == i {
				continue
			}
			ms, _ := CompileMergeState(other, c.env4(VecAuto, nil))
			if err := ms.Merge(p); err == nil {
				t.Errorf("frame %d merged into plan %d", i, j)
			}
		}
		// A frame of the right shape for another fingerprint is refused too.
		lied := append([]byte{}, f...)
		lied[7] ^= 0x20
		if p, err := DecodePartialStream(bytes.NewReader(lied)); err == nil {
			ms, _ := CompileMergeState(plans[i], c.env4(VecAuto, nil))
			if err := ms.Merge(p); err == nil {
				t.Errorf("frame %d merged under a foreign fingerprint", i)
			}
		}
	}
	for _, f := range [][]byte{nil, []byte("PRT"), []byte("{\"shape\":\"bare\"}\n"), []byte("PRTF\x02\x01")} {
		if _, err := DecodePartialStream(bytes.NewReader(f)); err == nil {
			t.Errorf("%q decoded", f)
		}
	}
	// The size cap: reading stops one byte past it.
	if _, err := decodePartialStream(bytes.NewReader(valid[0]), len(valid[0])-1); err != errFrameTooLarge {
		t.Errorf("frame over the cap: err = %v, want errFrameTooLarge", err)
	}
	if _, err := decodePartialStream(bytes.NewReader(valid[0]), len(valid[0])); err != nil {
		t.Errorf("frame at the cap: %v", err)
	}
}
