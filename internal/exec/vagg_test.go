package exec

import (
	"bytes"
	"context"
	"fmt"
	"slices"
	"strings"
	"testing"

	"proteus/internal/plugin"
)

// The columnar group table against the tuple accumulators, over every
// aggregate kind, NULL keys, NULL and all-NULL arguments, and groups only
// one morsel sees (addNullTable).
var vecAggQueries = []string{
	"SELECT g, COUNT(*), SUM(i), MIN(i), MAX(i), AVG(i), SUM(b), MIN(b), MAX(b), AVG(b), MIN(s), MAX(s) FROM n GROUP BY g",
	"SELECT a, COUNT(*), MIN(s), MAX(b) FROM n WHERE i IS NULL GROUP BY a",
	"SELECT g, COUNT(*) FROM n WHERE id < 0 GROUP BY g",
	"SELECT COUNT(*), SUM(i), MIN(i), MAX(i), AVG(i), SUM(b), MIN(b), MAX(b), MIN(s), MAX(s) FROM n WHERE g >= 0",
	"SELECT COUNT(*), SUM(i), MIN(i), MAX(b), MIN(s), AVG(b) FROM n WHERE i IS NULL AND b IS NULL AND s IS NULL",
}

// TestVecGroupByMatchesTuple: vectorized and tuple aggregation give
// byte-identical results serially and merged from two morsels, and the
// group table really is the one compiled.
func TestVecGroupByMatchesTuple(t *testing.T) {
	c := newTestCatalog(t)
	addNullTable(t, c)
	for _, q := range vecAggQueries {
		plan, _ := c.plan(t, q)
		u, err := (&Compiler{env: c.env4(VecOn, nil), cancel: &plugin.Cancel{}}).compileUnit(plan)
		if err != nil {
			t.Fatal(err)
		}
		switch st := fmt.Sprintf("%T", u.state); st {
		case "*exec.vecNestPartial":
			if !slices.ContainsFunc(u.explain, func(s string) bool { return strings.Contains(s, "columnar grouping") }) {
				t.Errorf("%s: no columnar grouping in %v", q, u.explain)
			}
		case "*exec.vecReducePartial":
		default:
			t.Fatalf("%s: vectorized state is %s", q, st)
		}
		want := render(runLocal(t, c, plan, VecOff, nil))
		if got := render(runLocal(t, c, plan, VecOn, nil)); got != want {
			t.Errorf("%s: serial VecOn diverges from VecOff:\n--- off\n%s--- on\n%s", q, want, got)
		}
		for _, mode := range []VecMode{VecOff, VecOn} {
			if got := render(runMorsels(t, c, q, mode, nRows/2)); got != want {
				t.Errorf("%s: two morsels (mode %d) diverge from serial:\n--- serial\n%s--- merged\n%s", q, mode, want, got)
			}
		}
	}
}

// TestVecGroupByFramesMatchTuple pins the wire: for one morsel, the
// vectorized and the tuple state encode byte-identical fragment frames,
// unseen accumulators included.
func TestVecGroupByFramesMatchTuple(t *testing.T) {
	c := newTestCatalog(t)
	addNullTable(t, c)
	for _, q := range vecAggQueries {
		plan, _ := c.plan(t, q)
		for _, cut := range [][2]int64{{0, nRows}, {nRows / 2, nRows}, {10, 20}} {
			var frames [2][]byte
			for i, mode := range []VecMode{VecOff, VecOn} {
				fp, err := CompileFragment(plan, c.env4(mode, nil), cut[0], cut[1])
				if err != nil {
					t.Fatal(err)
				}
				if fp.unit.vectorized != (mode == VecOn) {
					t.Fatalf("%s (mode %d): vectorized = %v", q, mode, fp.unit.vectorized)
				}
				p, err := fp.RunContext(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				var wire bytes.Buffer
				if err := p.EncodeStream(&wire); err != nil {
					t.Fatal(err)
				}
				frames[i] = wire.Bytes()
			}
			if !bytes.Equal(frames[0], frames[1]) {
				t.Errorf("%s over [%d,%d): vectorized frame (%d bytes) differs from the tuple frame (%d bytes)",
					q, cut[0], cut[1], len(frames[1]), len(frames[0]))
			}
		}
	}
}
