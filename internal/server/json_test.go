package server

import (
	"bytes"
	"context"
	"math"
	"testing"

	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// TestColumnarNDJSONMatchesBoxed: the NDJSON a columnar result encodes
// straight from its typed columns is byte for byte what appendValueJSON
// writes for the same result boxed — across value kinds, NULLs, non-finite
// floats, escapes, empty results and an ORDER BY … LIMIT the collect
// absorbed.
func TestColumnarNDJSONMatchesBoxed(t *testing.T) {
	strs := []string{"plain", "", "quote \" back \\ slash", "ctl \x00\x01\x1f\t\n\r", "ünïcødé ✓ 日本 🙂", "bad \xff utf8", "</script>"}
	floats := []float64{0, -0.5, 1e300, math.NaN(), math.Inf(1), math.Inf(-1), 5e-324, 123456789.125}
	cols := []binpg.Column{
		{Name: "k", Type: types.Int}, {Name: "f", Type: types.Float},
		{Name: "ok", Type: types.Bool}, {Name: "s", Type: types.String},
	}
	const n = 3000
	for i := 0; i < n; i++ {
		cols[0].Ints = append(cols[0].Ints, int64(i)-1500)
		cols[1].Floats = append(cols[1].Floats, floats[i%len(floats)])
		cols[2].Bools = append(cols[2].Bools, i%3 == 0)
		cols[3].Strs = append(cols[3].Strs, strs[i%len(strs)])
	}
	data, err := binpg.EncodeColumnar(cols)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(engine.Config{Vectorized: exec.VecOn})
	e.Mem().PutFile("mem://b.bin", data)
	if err := e.Register("b", "mem://b.bin", "bin", nil, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		q        string
		columnar bool
	}{
		{"SELECT k, f, ok, s FROM b WHERE k % 3 = 1", true},
		{"SELECT s, k / (k - k), k * 2 FROM b WHERE k < 40", true}, // x/0 is NULL
		{"SELECT f, s FROM b WHERE k > 100000", true},              // empty
		{"SELECT s, k FROM b WHERE k >= 0 ORDER BY s DESC, k LIMIT 9", true},
		{"SELECT k, f FROM b ORDER BY f LIMIT 5", true},
		{"for { x <- b, x.k < 10 } yield bag x.s", false}, // scalar rows stay boxed
		{"SELECT COUNT(*), MAX(s) FROM b", false},
		{"SELECT k, COUNT(*), MIN(s), MAX(f), AVG(f) FROM b WHERE k < 50 GROUP BY k", true}, // group table
		{"SELECT k, COUNT(*) AS n, MIN(f) AS lo FROM b GROUP BY k ORDER BY lo DESC, k LIMIT 4", true},
	} {
		res, err := e.QueryStream(context.Background(), langOf(tc.q), tc.q)
		if err != nil {
			t.Fatalf("%s: %v", tc.q, err)
		}
		columnar, unboxed := ndjsonBody(t, res)
		if res.Len() > 0 && unboxed != tc.columnar {
			t.Errorf("%s: columnar chunks %v, want %v", tc.q, unboxed, tc.columnar)
		}
		boxed, again := ndjsonBody(t, res.Box())
		if again {
			t.Fatalf("%s: boxed result still streams columns", tc.q)
		}
		if !bytes.Equal(columnar, boxed) {
			t.Errorf("%s: columnar body differs from boxed\ncolumnar: %q\nboxed:    %q", tc.q, columnar, boxed)
		}
	}
}

func langOf(q string) string {
	if bytes.HasPrefix([]byte(q), []byte("for")) {
		return engine.LangComp
	}
	return engine.LangSQL
}

// ndjsonBody encodes a result's row lines the way handleQuery does, in
// small chunks, and reports whether they came from typed columns.
func ndjsonBody(t *testing.T, res *exec.Result) ([]byte, bool) {
	t.Helper()
	scalarCol := "result"
	if len(res.Cols) == 1 {
		scalarCol = res.Cols[0]
	}
	enc := newRowEncoder(scalarCol, res.FieldNames())
	var out []byte
	columnar := false
	err := res.StreamChunks(context.Background(), 7, func(c exec.Chunk) error {
		columnar = columnar || c.Columns() != nil
		out = enc.appendChunk(out, c)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out, columnar
}
