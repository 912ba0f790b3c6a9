package exec

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"proteus/internal/plugin"
	"proteus/internal/types"
)

const nRows = 3000 // three batches

// addNullTable registers n (json): nRows objects {id, a, g, i, b, s} where
// every field but id is sometimes null. a has four values (heavy ties), g
// is a group key of which 0..24 occur only in the first half of the rows
// and 50..74 only in the second, i is always null in groups g%10 == 9, and
// b is dyadic (float sums are exact in any order) and never NaN.
func addNullTable(t testing.TB, c *testCatalog) {
	t.Helper()
	r := rand.New(rand.NewSource(7))
	maybe := func(pNull int, v string) string {
		if r.Intn(100) < pNull {
			return "null"
		}
		return v
	}
	var js bytes.Buffer
	for id := range nRows {
		g := r.Intn(50)
		if id >= nRows/2 {
			g += 25
		}
		i := fmt.Sprint(r.Intn(1000) - 500)
		if g%10 == 9 {
			i = "null"
		}
		fmt.Fprintf(&js, `{"id": %d, "a": %s, "g": %s, "i": %s, "b": %s, "s": %s}`+"\n", id,
			maybe(10, fmt.Sprint(r.Intn(4))), maybe(5, fmt.Sprint(g)), maybe(20, i),
			maybe(15, fmt.Sprint(float64(r.Intn(40)-20)/4)), maybe(10, fmt.Sprintf(`"s%d"`, r.Intn(3))))
	}
	c.add(t, "n", "json", js.Bytes(), types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "a", Type: types.Int},
		types.Field{Name: "g", Type: types.Int},
		types.Field{Name: "i", Type: types.Int},
		types.Field{Name: "b", Type: types.Float},
		types.Field{Name: "s", Type: types.String},
	))
}

// runMorsels runs plan as two worker units over [0, cut) and [cut, nRows)
// of n and merges them, as a two-worker program does.
func runMorsels(t testing.TB, c *testCatalog, query string, mode VecMode, cut int64) *Result {
	t.Helper()
	plan, sort := c.plan(t, query)
	var units []*workerUnit
	for _, m := range []plugin.Morsel{{Start: 0, End: cut}, {Start: cut, End: nRows}} {
		cc := &Compiler{env: c.env4(mode, sort), cancel: &plugin.Cancel{}, shared: newSharedRun(1),
			driveScan: drivingScan(plan), morsel: &m}
		u, err := cc.compileUnit(plan)
		if err != nil {
			t.Fatal(err)
		}
		if err := u.exec(); err != nil {
			t.Fatal(err)
		}
		units = append(units, u)
	}
	if err := units[0].state.merge(units[1].state); err != nil {
		t.Fatal(err)
	}
	res, err := units[0].state.result()
	if err != nil {
		t.Fatal(err)
	}
	if sort != nil && !units[0].sorted {
		res, _ = OrderAndLimit(res, sort.By, sort.Desc, sort.Limit)
	}
	return res
}

// stableSorted is the reference ORDER BY … LIMIT: a stable sort of the
// boxed rows by types.Compare, then the cut.
func stableSorted(rows []types.Value, by []string, desc []bool, limit int) *Result {
	rows = slices.Clone(rows)
	slices.SortStableFunc(rows, func(x, y types.Value) int {
		for k, name := range by {
			a, _ := x.Field(name)
			b, _ := y.Field(name)
			if c := types.Compare(a, b); c != 0 {
				if desc[k] {
					return -c
				}
				return c
			}
		}
		return 0
	})
	return &Result{Cols: []string{"result"}, Rows: rows[:min(limit, len(rows))]}
}

// TestVecTopKMatchesFullSort: the columnar top-k — serial, merged from two
// morsels, and gathered from fragments — and OrderAndLimit over boxed and
// over columnar rows all emit exactly the first k rows of a stable sort,
// over 1–3 keys with mixed directions, heavy ties and NULLs, for k from 1
// to past the row count.
func TestVecTopKMatchesFullSort(t *testing.T) {
	c := newTestCatalog(t)
	addNullTable(t, c)
	const sel = "SELECT id, a, i, b, s FROM n"
	unsortedPlan, _ := c.plan(t, sel)
	all := runLocal(t, c, unsortedPlan, VecOff, nil).Rows
	if len(all) != nRows {
		t.Fatalf("table has %d rows", len(all))
	}
	r := rand.New(rand.NewSource(11))
	for spec := range 12 {
		cols := []string{"a", "i", "b", "s"}
		r.Shuffle(len(cols), func(i, j int) { cols[i], cols[j] = cols[j], cols[i] })
		by, desc := cols[:1+spec%3], make([]bool, 1+spec%3)
		var terms []string
		for k := range by {
			desc[k] = r.Intn(2) == 0
			term := by[k]
			if desc[k] {
				term += " DESC"
			}
			terms = append(terms, term)
		}
		for _, k := range []int{1, 7, nRows - 1, nRows, nRows + 5} {
			query := fmt.Sprintf("%s ORDER BY %s LIMIT %d", sel, strings.Join(terms, ", "), k)
			want := render(stableSorted(all, by, desc, k))
			check := func(how string, res *Result) {
				t.Helper()
				if got := render(res); got != want {
					t.Fatalf("%s, %s: diverges from the stable sort:\n--- want\n%s--- got\n%s", query, how, want, got)
				}
			}
			plan, sort := c.plan(t, query)
			prog, err := Compile(plan, c.env4(VecOn, sort))
			if err != nil {
				t.Fatal(err)
			}
			if !prog.Sorted || !slices.ContainsFunc(prog.Explain, func(s string) bool { return strings.Contains(s, "top-k") }) {
				t.Fatalf("%s: no top-k in %v", query, prog.Explain)
			}
			res, err := prog.Run()
			if err != nil {
				t.Fatal(err)
			}
			check("serial", res)
			check("two morsels", runMorsels(t, c, query, VecOn, nRows/3))
			cuts := []int64{0, nRows / 4, nRows / 4, nRows - 10, nRows}
			check("fragments", runFragments(t, c, plan, VecOn, sort, cuts, nil))
			boxed, _ := OrderAndLimit(&Result{Cols: []string{"result"}, Rows: slices.Clone(all)}, by, desc, k)
			check("boxed OrderAndLimit", boxed)
			unsorted, err := Compile(unsortedPlan, c.env4(VecOn, nil))
			if err != nil {
				t.Fatal(err)
			}
			columnar, err := unsorted.RunUnboxed(context.Background())
			if err != nil || !columnar.out.unboxed() {
				t.Fatalf("unsorted collect: %v, columnar %v", err, err == nil && columnar.out.unboxed())
			}
			columnar, _ = OrderAndLimit(columnar, by, desc, k)
			if columnar.Len() != min(k, nRows) || !columnar.out.unboxed() {
				t.Fatalf("%s: columnar OrderAndLimit kept %d rows, columnar %v", query, columnar.Len(), columnar.out.unboxed())
			}
			check("columnar OrderAndLimit", columnar)
		}
	}
}
