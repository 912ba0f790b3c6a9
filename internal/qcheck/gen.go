// Random universe generation: schemas, datasets, and their truth rows.
//
// Every choice flows from a single int64 seed through math/rand, so a
// universe is reproducible from its seed alone. Data is designed so that
// every execution mode must produce bit-identical answers:
//
//   - floats are dyadic rationals (i + j/4, |i| ≤ 512): they round-trip
//     exactly through decimal serialization and their partial sums are
//     exact, so parallel merge order cannot change aggregate results;
//   - ints stay within ±10^10 so int→float promotions (AVG) are exact;
//   - key columns (join/group candidates) draw from small domains to force
//     collisions, and are never floats (−0.0 vs 0.0 hash apart but compare
//     equal, a trap this harness sidesteps by construction);
//   - strings mix ASCII, RFC-4180 triggers (delimiters, quotes, CR/LF),
//     and multi-byte unicode including surrogate-pair escapes, but never
//     NUL (the Volcano group-key separator) or single quotes (the SQL
//     lexer has no escape syntax).
//
// CSV and binary tables are never nullable (the formats cannot represent
// NULL); JSON tables are, per column, with varying probability. A JSON table
// whose rows determine its schema is registered without one (inferable), so
// the plug-in's inference is under the same differential test.
package qcheck

import (
	"fmt"
	"math"
	"math/rand"

	"proteus/internal/cache"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// mix derives a child seed from a parent seed and an index (splitmix64
// finalizer), keeping every component independently reproducible.
func mix(seed, idx int64) int64 {
	z := uint64(seed) + 0x9e3779b97f4a7c15*uint64(idx+1)
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	z ^= z >> 31
	return int64(z & 0x7fffffffffffffff)
}

func newRand(seed int64) *rand.Rand { return rand.New(rand.NewSource(seed)) }

// qColumn is one generated column.
type qColumn struct {
	Name     string
	Kind     types.Kind
	Key      bool    // small domain; safe as join/group key
	NullProb float64 // JSON tables only; 1.0 makes the column all-NULL
	Const    bool    // every row holds the same value (degenerate zone maps)
	// Bare marks the JSON float column written the way JSON in the wild
	// writes numbers — 7, not 7.0 — whose first row is integral and whose
	// second is fractional: typing it from the first object alone reads Int.
	Bare bool
	// Asc marks the binary column whose values rise with the row ordinal,
	// so a range on it lets the plug-in's zone maps skip whole windows.
	Asc bool
	// NaNZones marks the binary float column whose zones are each all NaN,
	// part NaN or NaN-free. NaN orders unlike any value (the oracle's
	// three-way compare even calls it equal to everything), so the column
	// stays out of query scope: only < and > ranges reach it, and on those
	// every engine mode and the oracle agree.
	NaNZones bool
}

// nestedCol is the optional nested list-of-records column of a JSON table.
type nestedCol struct {
	Name string // field name in the record
	// Elements are records {p: int, q: string}.
}

// qTable is one generated dataset: schema, truth rows, and the serialized
// file image the engines parse.
type qTable struct {
	Name   string
	Format string // "csv", "json", "bin"
	Cols   []qColumn
	Nested *nestedCol
	Opts   plugin.Options
	CRLF   bool // CSV: terminate rows with \r\n
	Array  bool // JSON: one top-level array instead of NDJSON
	Rows   []types.Value
	Schema *types.RecordType
	Data   []byte
}

// universe is a set of tables sharing one seed.
type universe struct {
	Seed   int64
	Tables []*qTable
}

func (u *universe) table(name string) *qTable {
	for _, t := range u.Tables {
		if t.Name == name {
			return t
		}
	}
	return nil
}

var keyStrings = []string{"ash", "birch", "cedar", "oak", "pine", "elm"}

var valueStrings = []string{
	"", "plain", "word list", "comma,inside", `quote "double" here`,
	"line\nbreak", "crlf\r\nrow", "pipe|field", "trailing space ",
	"héllo wörld", "naïve café", "日本語テキスト", "πρόταση", "emoji 🙂 data",
	"mixed Ωmega √2", "tab\tsep", "'single'",
}

// genString draws a value string; csvSafe excludes nothing extra (the CSV
// writer quotes), but literals used in predicates must come from
// likeNeedles instead.
func genString(r *rand.Rand) string {
	return valueStrings[r.Intn(len(valueStrings))]
}

// likeNeedles are predicate-literal-safe substrings (no quotes, ASCII).
var likeNeedles = []string{"a", "e", "in", "or", "data", "x", "li", "o"}

// prefixNeedles are predicate-literal-safe LIKE 'p%' prefixes, aimed at the
// key-string and value-string domains (plus misses like "zz") so the
// vectorized prefix kernel and the dictionary-code path see hits, misses,
// and partial matches.
var prefixNeedles = []string{"a", "b", "ce", "oa", "pi", "el", "pl", "li", "data", "zz"}

// genInt draws an int value: biased small, with occasional large-but-safe
// magnitudes (|v| ≤ 10^10 keeps float promotion exact).
func genInt(r *rand.Rand) int64 {
	switch r.Intn(10) {
	case 0:
		return 0
	case 1:
		return int64(1e10) * int64(1-2*r.Intn(2))
	case 2:
		return int64(r.Intn(2000001) - 1000000)
	default:
		return int64(r.Intn(51) - 25)
	}
}

// genFloat draws a dyadic rational i + j/4 with |i| ≤ 512 (never −0.0).
func genFloat(r *rand.Rand) float64 {
	i := r.Intn(1025) - 512
	j := r.Intn(4)
	f := float64(i) + float64(j)/4
	if f == 0 {
		return 0 // normalize: never emit −0.0
	}
	return f
}

// genValue draws a value of the column's kind (never NULL; the caller rolls
// nullability separately).
func genValue(r *rand.Rand, c qColumn) types.Value {
	if c.Const {
		// Constant columns collapse the zone map to a single-point range and
		// the bitmap index to one key — both degenerate paths worth fuzzing.
		switch c.Kind {
		case types.KindInt:
			return types.IntValue(42)
		case types.KindFloat:
			return types.FloatValue(2.5)
		case types.KindBool:
			return types.BoolValue(true)
		case types.KindString:
			return types.StringValue("cedar")
		}
	}
	if c.Key {
		switch c.Kind {
		case types.KindInt:
			return types.IntValue(int64(r.Intn(8)))
		case types.KindString:
			return types.StringValue(keyStrings[r.Intn(len(keyStrings))])
		case types.KindBool:
			return types.BoolValue(r.Intn(2) == 0)
		}
	}
	switch c.Kind {
	case types.KindInt:
		return types.IntValue(genInt(r))
	case types.KindFloat:
		return types.FloatValue(genFloat(r))
	case types.KindBool:
		return types.BoolValue(r.Intn(2) == 0)
	case types.KindString:
		return types.StringValue(genString(r))
	}
	panic("qcheck: unreachable column kind")
}

func kindType(k types.Kind) types.Type {
	switch k {
	case types.KindInt:
		return types.Int
	case types.KindFloat:
		return types.Float
	case types.KindBool:
		return types.Bool
	case types.KindString:
		return types.String
	}
	panic("qcheck: unreachable kind")
}

var nestedElemType = &types.RecordType{Fields: []types.Field{
	{Name: "p", Type: types.Int},
	{Name: "q", Type: types.String},
}}

// genUniverse builds 2–3 tables with schemas, rows, and serialized images.
func genUniverse(seed int64) (*universe, error) {
	r := newRand(seed)
	u := &universe{Seed: seed}
	nTables := 2 + r.Intn(2)
	formats := []string{"csv", "json", "bin"}
	// Guarantee format variety: shuffle, then round-robin.
	r.Shuffle(len(formats), func(i, j int) { formats[i], formats[j] = formats[j], formats[i] })
	for ti := 0; ti < nTables; ti++ {
		t := genTable(r, fmt.Sprintf("t%d", ti), formats[ti%len(formats)])
		if err := serializeTable(t); err != nil {
			return nil, fmt.Errorf("qcheck: universe %d table %s: %w", seed, t.Name, err)
		}
		u.Tables = append(u.Tables, t)
	}
	return u, nil
}

func genTable(r *rand.Rand, name, format string) *qTable {
	t := &qTable{Name: name, Format: format}
	nullable := format == "json"

	// Key columns: 1–2 int keys, optionally a string key.
	nIntKeys := 1 + r.Intn(2)
	for i := 0; i < nIntKeys; i++ {
		c := qColumn{Name: fmt.Sprintf("k%d", i), Kind: types.KindInt, Key: true}
		if nullable && r.Intn(4) == 0 {
			c.NullProb = 0.15
		}
		t.Cols = append(t.Cols, c)
	}
	if r.Intn(2) == 0 {
		t.Cols = append(t.Cols, qColumn{Name: "ks", Kind: types.KindString, Key: true})
	}
	// Value columns: 1–3 of random kinds.
	kinds := []types.Kind{types.KindInt, types.KindFloat, types.KindBool, types.KindString}
	nVals := 1 + r.Intn(3)
	for i := 0; i < nVals; i++ {
		c := qColumn{Name: fmt.Sprintf("v%d", i), Kind: kinds[r.Intn(len(kinds))]}
		if nullable {
			// 1.0 yields an all-NULL column: its zone maps carry no range and
			// must skip every comparison without losing IS NULL rows.
			c.NullProb = []float64{0, 0.2, 0.5, 1}[r.Intn(4)]
		}
		if c.NullProb == 0 && r.Intn(8) == 0 {
			c.Const = true
		}
		t.Cols = append(t.Cols, c)
	}
	if format == "bin" {
		t.Cols = append(t.Cols,
			qColumn{Name: "ka", Kind: types.KindInt, Asc: true},
			qColumn{Name: "fz", Kind: types.KindFloat, NaNZones: true})
	}
	if format == "json" {
		t.Cols = append(t.Cols, qColumn{Name: "vw", Kind: types.KindFloat, Bare: true})
		if r.Intn(2) == 0 {
			t.Nested = &nestedCol{Name: "items"}
		}
	}

	// Format quirks.
	switch format {
	case "csv":
		if r.Intn(3) == 0 {
			t.Opts.Delimiter = '|'
		}
		t.CRLF = r.Intn(3) == 0
	case "json":
		t.Array = r.Intn(2) == 0
	case "bin":
		t.Opts.Columnar = r.Intn(2) == 0
	}

	// Schema (explicit for csv/json; bin files are self-describing but the
	// schema is still recorded for query generation).
	fields := make([]types.Field, 0, len(t.Cols)+1)
	for _, c := range t.Cols {
		fields = append(fields, types.Field{Name: c.Name, Type: kindType(c.Kind)})
	}
	if t.Nested != nil {
		fields = append(fields, types.Field{Name: t.Nested.Name, Type: types.NewListType(nestedElemType)})
	}
	t.Schema = &types.RecordType{Fields: fields}

	// Rows: occasionally empty or single-row, else 2–40.
	var n int
	switch r.Intn(10) {
	case 0:
		n = 0
	case 1:
		n = 1
	default:
		n = 2 + r.Intn(39)
	}
	if format == "bin" && r.Intn(3) == 0 {
		// Several zones, so ranges on the ascending column skip some.
		n = cache.ZoneSize + 1 + r.Intn(2*cache.ZoneSize)
	}
	ascStart, ascStep := int64(r.Intn(101)-50), int64(1+r.Intn(3))
	nanMode := 0
	names := t.Schema.Names()
	for i := 0; i < n; i++ {
		if i%cache.ZoneSize == 0 {
			nanMode = r.Intn(3) // 0: all NaN, 1: one row in four, 2: none
		}
		vals := make([]types.Value, 0, len(names))
		for _, c := range t.Cols {
			if c.NullProb > 0 && r.Float64() < c.NullProb {
				vals = append(vals, types.NullValue())
				continue
			}
			if c.Asc {
				vals = append(vals, types.IntValue(ascStart+int64(i)*ascStep))
				continue
			}
			if c.NaNZones && (nanMode == 0 || nanMode == 1 && r.Intn(4) == 0) {
				vals = append(vals, types.FloatValue(math.NaN()))
				continue
			}
			if c.Bare && i < 2 {
				vals = append(vals, types.FloatValue(float64(r.Intn(65)-32)+0.5*float64(i)))
				continue
			}
			vals = append(vals, genValue(r, c))
		}
		if t.Nested != nil {
			m := r.Intn(4)
			elems := make([]types.Value, 0, m)
			for j := 0; j < m; j++ {
				elems = append(elems, types.RecordValue(
					[]string{"p", "q"},
					[]types.Value{
						types.IntValue(int64(r.Intn(10))),
						types.StringValue(keyStrings[r.Intn(len(keyStrings))]),
					}))
			}
			vals = append(vals, types.ListValue(elems...))
		}
		t.Rows = append(t.Rows, types.RecordValue(names, vals))
	}
	return t
}

// inferable reports whether jsonpg's schema inference over the table's rows
// (it samples more of them than a table here has) arrives at t.Schema: every
// column shows a non-null value, the bare float column a fractional one, and
// the nested list an element.
func inferable(t *qTable) bool {
	if t.Format != "json" {
		return false
	}
	for _, c := range t.Cols {
		typed := false
		for _, row := range t.Rows {
			v, _ := row.Field(c.Name)
			typed = typed || (!v.IsNull() && (!c.Bare || v.F != float64(int64(v.F))))
		}
		if !typed {
			return false
		}
	}
	if t.Nested != nil {
		for _, row := range t.Rows {
			if v, _ := row.Field(t.Nested.Name); v.Len() > 0 {
				return true
			}
		}
		return false
	}
	return len(t.Rows) > 0
}
