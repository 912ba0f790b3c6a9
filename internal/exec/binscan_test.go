package exec_test

import (
	"context"
	"errors"
	"fmt"
	"reflect"
	"strings"
	"testing"

	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// binEngine registers b(k int ascending, v int, f float, s string) as a
// columnar binary file of n rows.
func binEngine(t *testing.T, cfg engine.Config, n int) *engine.Engine {
	t.Helper()
	cols := []binpg.Column{
		{Name: "k", Type: types.Int}, {Name: "v", Type: types.Int},
		{Name: "f", Type: types.Float}, {Name: "s", Type: types.String},
	}
	for i := 0; i < n; i++ {
		cols[0].Ints = append(cols[0].Ints, int64(3*i))
		cols[1].Ints = append(cols[1].Ints, int64(i*7919%1000))
		cols[2].Floats = append(cols[2].Floats, float64(i%97)/4)
		cols[3].Strs = append(cols[3].Strs, fmt.Sprintf("s%d", i%13))
	}
	data, err := binpg.EncodeColumnar(cols)
	if err != nil {
		t.Fatal(err)
	}
	e := engine.New(cfg)
	e.Mem().PutFile("mem://b.bin", data)
	if err := e.Register("b", "mem://b.bin", "bin", nil, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	return e
}

// TestBinaryRangeScanSkipsWindows: a range on the ascending column reads
// only the windows its zone maps cannot rule out, in both execution modes,
// and counts the skips per query and cumulatively.
func TestBinaryRangeScanSkipsWindows(t *testing.T) {
	const n = 10 * 1024
	const q = "SELECT COUNT(*), SUM(v) FROM b WHERE k >= 9000 AND k < 12000"
	var want []types.Value
	// k = 3i, so rows 3000..3999 qualify: windows 2 and 3 of ten. Batch
	// mode decodes k in those windows, then v for the 1000 surviving rows;
	// tuple mode decodes both columns for every row of the two windows.
	for mode, fields := range map[exec.VecMode]int64{exec.VecOn: 2048 + 1000, exec.VecOff: 2 * 2048} {
		e := binEngine(t, engine.Config{Vectorized: mode}, n)
		res, qp, err := e.ExplainAnalyzeSQL(q)
		if err != nil {
			t.Fatal(err)
		}
		if want == nil {
			want = res.Rows
		} else if !reflect.DeepEqual(res.Rows, want) {
			t.Errorf("mode %d: %v, want %v", mode, res.Rows, want)
		}
		if got := e.Caches().Snapshot().ZoneSkips; got != 8 {
			t.Errorf("mode %d: %d windows skipped, want 8", mode, got)
		}
		var skips, parsed int64
		qp.Root.Each(func(op *obs.OpProfile) {
			skips += op.ExtraValue("zone_skips")
			parsed += op.ExtraValue("fields_parsed")
		})
		if skips != 8 || parsed != fields {
			t.Errorf("mode %d: profile counts %d zone skips and %d fields, want 8 and %d", mode, skips, parsed, fields)
		}
	}
	if c := want[0].Rec.Values[0]; c.I != 1000 {
		t.Errorf("COUNT(*) = %v, want 1000", c)
	}
}

// TestBinarySparseGatherMatchesDense: predicate-first scans gather the
// payload columns for the surviving lanes only; the rows must be exactly
// what the tuple engine, which decodes every column of every row, returns —
// for a sparse filter, a filter that keeps everything, and one that keeps
// nothing.
func TestBinarySparseGatherMatchesDense(t *testing.T) {
	const n = 5000
	vec := binEngine(t, engine.Config{Vectorized: exec.VecOn}, n)
	tuple := binEngine(t, engine.Config{Vectorized: exec.VecOff}, n)
	for _, q := range []string{
		"SELECT k, f, s FROM b WHERE v % 7 = 3",
		"SELECT k, f, s FROM b WHERE v < 500 AND f > 3.0",
		"SELECT k, v, s FROM b WHERE v >= 0",
		"SELECT k, s FROM b WHERE v > 5000",
		"SELECT s, COUNT(*), MAX(f) FROM b WHERE v % 5 = 1 GROUP BY s",
	} {
		got, err := vec.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		want, err := tuple.QuerySQL(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if len(got.Rows) != len(want.Rows) || (len(got.Rows) > 0 && !reflect.DeepEqual(got.Rows, want.Rows)) {
			t.Errorf("%s: vectorized returned %d rows, tuple %d (or they differ)", q, len(got.Rows), len(want.Rows))
		}
	}
	p, err := vec.PrepareSQL("SELECT k, f, s FROM b WHERE v % 7 = 3")
	if err != nil {
		t.Fatal(err)
	}
	if ex := p.Explain(); !strings.Contains(ex, "predicate-first, 3 of 4 columns") {
		t.Errorf("explain lacks the predicate-first note:\n%s", ex)
	}
}

// TestColumnarStreamStopsAtChunkBoundary: a columnar result streams from
// its typed columns, and a consumer that goes away mid-stream stops it at
// the next chunk boundary with the context's cause.
func TestColumnarStreamStopsAtChunkBoundary(t *testing.T) {
	e := binEngine(t, engine.Config{Vectorized: exec.VecOn}, 3000)
	res, err := e.QueryStream(context.Background(), engine.LangSQL, "SELECT k, s FROM b WHERE v < 500")
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var chunks, rows int
	err = res.StreamChunks(ctx, 16, func(c exec.Chunk) error {
		if c.Columns() == nil {
			t.Fatal("result is not columnar")
		}
		chunks++
		rows += c.Len()
		cancel() // the client disconnects while the first chunk is written
		return nil
	})
	if !errors.Is(err, context.Canceled) || chunks != 1 || rows != 16 {
		t.Errorf("stream: %d chunks, %d rows, err %v; want 1 chunk of 16 rows, context.Canceled", chunks, rows, err)
	}
}
