package exec

import (
	"context"
	"math/rand"
	"testing"

	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// liCatalog registers li (bin), the shape of the benchmark's lineitem:
// 120 000 rows over 30 000 order keys in random order, a line number, an
// integer quantity in 1..50 and a random price.
func liCatalog(b *testing.B) *testCatalog {
	const rows, orders = 120_000, 30_000
	r := rand.New(rand.NewSource(1))
	cols := []binpg.Column{
		{Name: "k", Type: types.Int}, {Name: "n", Type: types.Int},
		{Name: "q", Type: types.Int}, {Name: "p", Type: types.Float},
	}
	for i := range rows {
		cols[0].Ints = append(cols[0].Ints, r.Int63n(orders)+1)
		cols[1].Ints = append(cols[1].Ints, int64(i%7)+1)
		cols[2].Ints = append(cols[2].Ints, r.Int63n(50)+1)
		cols[3].Floats = append(cols[3].Floats, 1000+float64(r.Intn(9_000_000))/1000)
	}
	data, err := binpg.EncodeColumnar(cols)
	if err != nil {
		b.Fatal(err)
	}
	c := newTestCatalog(b)
	c.add(b, "li", "bin", data, nil)
	return c
}

// benchVecQuery times one vectorized program over li as join_sort runs it:
// two morsel workers, merged, and the result boxed for a library caller.
func benchVecQuery(b *testing.B, query string) {
	c := liCatalog(b)
	plan, sort := c.plan(b, query)
	prog, err := CompileParallel(plan, c.env4(VecOn, sort), 2)
	if err != nil {
		b.Fatal(err)
	}
	if sort != nil && !prog.Sorted {
		b.Fatalf("%s: the collect did not adopt the ORDER BY", query)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		if _, err := prog.RunContext(context.Background()); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkVecTopK is join_sort's order_limit: a LIMIT 100 over the
// ~96 000 rows a quantity window keeps.
func BenchmarkVecTopK(b *testing.B) {
	benchVecQuery(b, "SELECT k, n, p FROM li WHERE q >= 5 AND q < 45 ORDER BY p DESC, k, n LIMIT 100")
}

// BenchmarkVecNestHighCardinality is join_sort's group_orderkey: 30 000
// groups over 120 000 rows.
func BenchmarkVecNestHighCardinality(b *testing.B) {
	benchVecQuery(b, "SELECT k, COUNT(*), SUM(q) FROM li GROUP BY k")
}
