package bench

import (
	"fmt"
	"math"
	"strings"

	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// Vectorized execution round two: joins, ORDER BY, and string predicates.
// Both static modes (VecSysTuple / VecSysVectorized) run identical queries
// over cache-resident data, so the report shows the kernel speedups.

var vec2Names = []string{"ash", "birch", "cedar", "oak", "pine", "elm", "willow", "maple"}

// Vec2Queries are the join / ORDER BY / string-predicate shapes PR 9
// vectorizes. The fact table t has VecBenchRows rows; the dimension d has
// 1000 rows keyed by t.val's domain.
var Vec2Queries = []struct {
	Name string
	SQL  string
}{
	{"join_count", "SELECT COUNT(*) FROM t a JOIN d b ON a.val = b.k WHERE b.tag < 500"},
	{"join_project", "SELECT a.id AS id, b.label AS l FROM t a JOIN d b ON a.val = b.k WHERE b.tag < 50"},
	{"order_by_limit", "SELECT id, val, score FROM t WHERE val < 500 ORDER BY score DESC, id LIMIT 100"},
	{"order_by_full", "SELECT id, val FROM t WHERE grp < 10 ORDER BY val, id"},
	{"str_eq", "SELECT COUNT(*) FROM t WHERE name = 'cedar'"},
	{"str_prefix", "SELECT COUNT(*) FROM t WHERE name LIKE 'ce%'"},
	{"str_contains", "SELECT COUNT(*) FROM t WHERE name LIKE '%da%'"},
}

// NewVec2Engine builds the two-table fixture (fact CSV with a string column
// plus an integer-keyed dimension) and warms the adaptive cache with two
// runs of every benchmark query.
func NewVec2Engine(mode exec.VecMode) (*engine.Engine, error) {
	e := engine.New(engine.Config{CacheEnabled: true, Parallelism: 1, Vectorized: mode})
	var sb strings.Builder
	for i := 0; i < VecBenchRows; i++ {
		fmt.Fprintf(&sb, "%d,%d,%d,%g,%s\n",
			i, (i*2654435761)%1000, i%97, float64(i%1024)*0.5, vec2Names[i%len(vec2Names)])
	}
	e.Mem().PutFile("mem://vbench2.csv", []byte(sb.String()))
	schema := types.NewRecordType(
		types.Field{Name: "id", Type: types.Int},
		types.Field{Name: "val", Type: types.Int},
		types.Field{Name: "grp", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "name", Type: types.String},
	)
	if err := e.Register("t", "mem://vbench2.csv", "csv", schema, plugin.Options{}); err != nil {
		return nil, fmt.Errorf("bench: registering vbench2 fact: %w", err)
	}
	var db strings.Builder
	for k := 0; k < 1000; k++ {
		fmt.Fprintf(&db, "%d,%d,%s\n", k, (k*7919)%1000, vec2Names[k%len(vec2Names)])
	}
	e.Mem().PutFile("mem://vdim2.csv", []byte(db.String()))
	dimSchema := types.NewRecordType(
		types.Field{Name: "k", Type: types.Int},
		types.Field{Name: "tag", Type: types.Int},
		types.Field{Name: "label", Type: types.String},
	)
	if err := e.Register("d", "mem://vdim2.csv", "csv", dimSchema, plugin.Options{}); err != nil {
		return nil, fmt.Errorf("bench: registering vbench2 dim: %w", err)
	}
	for _, q := range Vec2Queries {
		for i := 0; i < 2; i++ {
			if _, err := e.QuerySQL(q.SQL); err != nil {
				return nil, fmt.Errorf("bench: warming %q: %w", q.SQL, err)
			}
		}
	}
	return e, nil
}

// FigVec2 measures every query under both systems and reports one Row per
// (query, system) with Exp "vec2". All programs are prepared up front and
// the systems are timed interleaved — each iteration runs every (system,
// query) pair back to back — so slow phases of the host machine hit both
// systems alike instead of biasing whichever ran last. The reported figure
// is the min across iterations: the systems run identical deterministic
// work, so the fastest observation is the cleanest estimate of the code
// path.
func FigVec2(iters int) ([]Row, error) {
	if iters < 1 {
		iters = 1
	}
	systems := []struct {
		system string
		mode   exec.VecMode
	}{
		{VecSysTuple, exec.VecOff},
		{VecSysVectorized, exec.VecOn},
	}
	type cell struct {
		prep *engine.Prepared
		best float64
	}
	progs := make([][]cell, len(systems))
	for si, m := range systems {
		e, err := NewVec2Engine(m.mode)
		if err != nil {
			return nil, err
		}
		progs[si] = make([]cell, len(Vec2Queries))
		for qi, q := range Vec2Queries {
			prep, err := e.PrepareSQL(q.SQL)
			if err != nil {
				return nil, fmt.Errorf("bench: preparing %q: %w", q.SQL, err)
			}
			progs[si][qi] = cell{prep: prep, best: math.MaxFloat64}
		}
	}
	for i := 0; i < iters; i++ {
		for si := range systems {
			for qi, q := range Vec2Queries {
				c := &progs[si][qi]
				sec, err := timeIt(func() error {
					_, err := c.prep.Program.Run()
					return err
				})
				if err != nil {
					return nil, fmt.Errorf("bench: running %q: %w", q.SQL, err)
				}
				if sec < c.best {
					c.best = sec
				}
			}
		}
	}
	var rows []Row
	for si, m := range systems {
		for qi, q := range Vec2Queries {
			rows = append(rows, Row{
				Exp: "vec2", Query: q.Name, System: m.system,
				Seconds: progs[si][qi].best,
			})
		}
	}
	return rows, nil
}

// PrintVec2 renders the figure: both static modes and the speedup.
func PrintVec2(w interface{ Write([]byte) (int, error) }, rows []Row) {
	fmt.Fprintln(w, "== vec2: joins, ORDER BY, string predicates — tuple vs vectorized (seconds) ==")
	fmt.Fprintf(w, "%-16s%12s%12s%10s\n", "query", "tuple", "vectorized", "speedup")
	for _, q := range Vec2Queries {
		var tup, vec float64
		for _, r := range rows {
			if r.Exp != "vec2" || r.Query != q.Name {
				continue
			}
			switch r.System {
			case VecSysTuple:
				tup = r.Seconds
			case VecSysVectorized:
				vec = r.Seconds
			}
		}
		if tup == 0 || vec == 0 {
			continue
		}
		fmt.Fprintf(w, "%-16s%12.6f%12.6f%9.2fx\n", q.Name, tup, vec, tup/vec)
	}
	fmt.Fprintln(w)
}
