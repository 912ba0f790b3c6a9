package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"math"
	"strconv"

	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
)

// rng is splitmix64: every input of the benchmark — rows, literals, the
// order of operations — is drawn from one of these, seeded from -seed, so
// the engine only ever sees bytes and query texts the seed determines.
type rng struct{ state uint64 }

func newRng(seed uint64) *rng { return &rng{state: seed} }

// fork derives an independent stream, so adding draws to one generator does
// not shift the values another one produces.
func (r *rng) fork(label uint64) *rng { return newRng(r.next() ^ label*0x9e3779b97f4a7c15) }

func (r *rng) next() uint64 {
	r.state += 0x9e3779b97f4a7c15
	z := r.state
	z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9
	z = (z ^ (z >> 27)) * 0x94d049bb133111eb
	return z ^ (z >> 31)
}

func (r *rng) intn(n int64) int64 { return int64(r.next() % uint64(n)) }

// frac draws a float in [lo, hi) that is a multiple of 1/den, den a power
// of two. Sums of such values are exact in float64 whatever the order of
// addition, so a parallel or vectorized SUM equals the serial reference bit
// for bit and results can be compared by digest.
func (r *rng) frac(lo, hi, den int64) float64 {
	return float64(lo*den+r.intn((hi-lo)*den)) / float64(den)
}

func pick[T any](r *rng, s []T) T { return s[r.intn(int64(len(s)))] }

func shuffle[T any](r *rng, s []T) {
	for i := len(s) - 1; i > 0; i-- {
		j := r.intn(int64(i + 1))
		s[i], s[j] = s[j], s[i]
	}
}

// scale is the input size of one run. Row counts are exact (not "about SF
// x"), so rows_per_s and live_heap_mb have the same denominator and the same
// file sizes at every seed.
type scale struct {
	Lineitem, Orders, Clerks   int
	SpamJSON, SpamCSV, SpamBin int
}

// fullScale is what BENCHMARK.json's command measures. ISSUE 11 proposed
// 300 000 lineitems; the driver's 158-run cap leaves ~20 s per run for
// generation, three set-ups, verification and the timed phase, so the
// default is 40 % of that (-scale 2.5 restores it).
var fullScale = scale{Lineitem: 120_000, Orders: 30_000, Clerks: 1000, SpamJSON: 24_000, SpamCSV: 48_000, SpamBin: 72_000}

func (s scale) times(f float64) scale {
	mul := func(n, floor int) int {
		if v := int(float64(n) * f); v > floor {
			return v
		}
		return floor
	}
	return scale{
		Lineitem: mul(s.Lineitem, 400), Orders: mul(s.Orders, 100), Clerks: mul(s.Clerks, 20),
		SpamJSON: mul(s.SpamJSON, 200), SpamCSV: mul(s.SpamCSV, 400), SpamBin: mul(s.SpamBin, 600),
	}
}

// table is one logical table: typed columns (the truth the Volcano
// reference reads) and the same rows rendered in each raw format.
type table struct {
	Name   string // logical name; datasets register as <Name>_<format>
	Rows   int
	Schema *types.RecordType
	Cols   []binpg.Column
	CSV    []byte
	JSON   []byte
	Bin    []byte
	// Nest is an optional nested column that exists only in the JSON form
	// and in the reference rows (the spam feed's classes array).
	NestName string
	NestType types.Type
	Nest     []types.Value
}

func newTable(name string, fields ...types.Field) *table {
	t := &table{Name: name, Schema: types.NewRecordType(fields...)}
	for _, f := range fields {
		t.Cols = append(t.Cols, binpg.Column{Name: f.Name, Type: f.Type})
	}
	return t
}

func (t *table) ints(c int, v int64)     { t.Cols[c].Ints = append(t.Cols[c].Ints, v) }
func (t *table) floats(c int, v float64) { t.Cols[c].Floats = append(t.Cols[c].Floats, v) }
func (t *table) strs(c int, v string)    { t.Cols[c].Strs = append(t.Cols[c].Strs, v) }

// render produces the three raw representations of the typed columns. JSON
// is rendered by the caller-supplied function when the table is nested or
// has a varying field order; nil means one flat object per row.
func (t *table) render(rows int, jsonRow func(out []byte, r int) []byte) error {
	t.Rows = rows
	for r := 0; r < rows; r++ {
		for c := range t.Cols {
			if c > 0 {
				t.CSV = append(t.CSV, ',')
			}
			t.CSV = appendCell(t.CSV, &t.Cols[c], r, false)
		}
		t.CSV = append(t.CSV, '\n')
		if jsonRow != nil {
			t.JSON = jsonRow(t.JSON, r)
			continue
		}
		t.JSON = append(t.JSON, '{')
		for c := range t.Cols {
			if c > 0 {
				t.JSON = append(t.JSON, ", "...)
			}
			t.JSON = strconv.AppendQuote(t.JSON, t.Cols[c].Name)
			t.JSON = append(t.JSON, ": "...)
			t.JSON = appendCell(t.JSON, &t.Cols[c], r, true)
		}
		t.JSON = append(t.JSON, "}\n"...)
	}
	var err error
	t.Bin, err = binpg.EncodeColumnar(t.Cols)
	return err
}

// appendCell writes one value as text. Every float is generated as k/2^n
// (see frac), so its shortest decimal text is exact and parses back to the
// very double the binary file stores.
func appendCell(out []byte, col *binpg.Column, r int, quote bool) []byte {
	switch col.Type.Kind() {
	case types.KindInt:
		return strconv.AppendInt(out, col.Ints[r], 10)
	case types.KindFloat:
		// Always with a decimal point: the JSON plug-in infers a column's
		// type from the first object, and "4956" would make prices ints.
		out = strconv.AppendFloat(out, col.Floats[r], 'f', -1, 64)
		if col.Floats[r] == math.Trunc(col.Floats[r]) {
			out = append(out, ".0"...)
		}
		return out
	default:
		if quote {
			return strconv.AppendQuote(out, col.Strs[r])
		}
		return append(out, col.Strs[r]...)
	}
}

// refSchema is the schema the reference interpreter plans against.
func (t *table) refSchema() *types.RecordType {
	if t.Nest == nil {
		return t.Schema
	}
	fields := append(append([]types.Field(nil), t.Schema.Fields...), types.Field{Name: t.NestName, Type: t.NestType})
	return types.NewRecordType(fields...)
}

// boxed converts the typed columns into the record values the Volcano
// reference interpreter loads.
func (t *table) boxed() []types.Value {
	names := t.refSchema().Names()
	out := make([]types.Value, t.Rows)
	for r := range out {
		vals := make([]types.Value, len(t.Cols), len(names))
		for c := range t.Cols {
			switch t.Cols[c].Type.Kind() {
			case types.KindInt:
				vals[c] = types.IntValue(t.Cols[c].Ints[r])
			case types.KindFloat:
				vals[c] = types.FloatValue(t.Cols[c].Floats[r])
			default:
				vals[c] = types.StringValue(t.Cols[c].Strs[r])
			}
		}
		if t.Nest != nil {
			vals = append(vals, t.Nest[r])
		}
		out[r] = types.RecordValue(names, vals)
	}
	return out
}

var (
	shipModes = []string{"AIR", "FOB", "MAIL", "RAIL", "REG AIR", "SHIP", "TRUCK"}
	spamLangs = []string{"en", "ru", "zh", "es", "de", "fr", "pt", "ja"}
	spamLands = []string{"US", "RU", "CN", "BR", "IN", "DE", "GB", "NL", "VN", "UA"}
	spamKinds = []string{"phish", "pharma", "casino", "malware", "dating", "seo"}
)

// Value domains the operation generators draw literals from.
const (
	maxSuppKey  = 1000
	maxShipDate = 2500
	maxQuantity = 50
	spamDays    = 365
)

// tpch is the TPC-H subset: lineitem ⋈ orders ⋈ clerk (a small dimension).
type tpch struct{ Lineitem, Orders, Clerk *table }

// genTPCH generates exactly sc.Lineitem lineitems over sc.Orders orders.
// File order shuffles l_orderkey (as the paper shuffles its inputs) while
// l_shipdate ascends with file position, the one clustered column zone maps
// can prune on.
func genTPCH(r *rng, sc scale) (*tpch, error) {
	nOrd, nLi, nClerk := sc.Orders, sc.Lineitem, sc.Clerks
	clerk := newTable("clerk",
		types.Field{Name: "c_clerkkey", Type: types.Int},
		types.Field{Name: "c_name", Type: types.String},
		types.Field{Name: "c_dept", Type: types.Int},
	)
	for i := 1; i <= nClerk; i++ {
		clerk.ints(0, int64(i))
		clerk.strs(1, fmt.Sprintf("Clerk#%06d", i))
		clerk.ints(2, r.intn(20))
	}
	if err := clerk.render(nClerk, nil); err != nil {
		return nil, err
	}

	// Lines per order: at least one each, the rest dealt at random.
	perOrder := make([]int, nOrd)
	for i := range perOrder {
		perOrder[i] = 1
	}
	for left := nLi - nOrd; left > 0; left-- {
		perOrder[r.intn(int64(nOrd))]++
	}

	orders := newTable("orders",
		types.Field{Name: "o_orderkey", Type: types.Int},
		types.Field{Name: "o_custkey", Type: types.Int},
		types.Field{Name: "o_totalprice", Type: types.Float},
		types.Field{Name: "o_shippriority", Type: types.Int},
		types.Field{Name: "o_clerkkey", Type: types.Int},
		types.Field{Name: "o_clerk", Type: types.String},
	)
	type line struct {
		okey, pkey, skey, lnum, qty int64
		price, disc, tax            float64
		mode                        string
	}
	lines := make([]line, 0, nLi)
	ordPerm := make([]int, nOrd)
	for i := range ordPerm {
		ordPerm[i] = i
	}
	shuffle(r, ordPerm)
	for _, i := range ordPerm {
		okey := int64(i + 1)
		var total float64
		for ln := 1; ln <= perOrder[i]; ln++ {
			l := line{
				okey: okey, pkey: r.intn(200_000) + 1, skey: r.intn(maxSuppKey) + 1, lnum: int64(ln),
				qty: r.intn(maxQuantity) + 1, price: r.frac(1000, 10000, 16), disc: float64(r.intn(9)) / 64, tax: float64(r.intn(9)) / 64,
				mode: pick(r, shipModes),
			}
			total += l.price
			lines = append(lines, l)
		}
		ck := r.intn(int64(nClerk)) + 1
		orders.ints(0, okey)
		orders.ints(1, r.intn(int64(nOrd/4)+1))
		orders.floats(2, total)
		orders.ints(3, r.intn(5))
		orders.ints(4, ck)
		orders.strs(5, fmt.Sprintf("Clerk#%06d", ck))
	}
	if err := orders.render(nOrd, nil); err != nil {
		return nil, err
	}

	shuffle(r, lines)
	li := newTable("lineitem",
		types.Field{Name: "l_orderkey", Type: types.Int},
		types.Field{Name: "l_partkey", Type: types.Int},
		types.Field{Name: "l_suppkey", Type: types.Int},
		types.Field{Name: "l_linenumber", Type: types.Int},
		types.Field{Name: "l_quantity", Type: types.Int},
		types.Field{Name: "l_extendedprice", Type: types.Float},
		types.Field{Name: "l_discount", Type: types.Float},
		types.Field{Name: "l_tax", Type: types.Float},
		types.Field{Name: "l_shipdate", Type: types.Int},
		types.Field{Name: "l_shipmode", Type: types.String},
	)
	for pos, l := range lines {
		li.ints(0, l.okey)
		li.ints(1, l.pkey)
		li.ints(2, l.skey)
		li.ints(3, l.lnum)
		li.ints(4, l.qty)
		li.floats(5, l.price)
		li.floats(6, l.disc)
		li.floats(7, l.tax)
		li.ints(8, int64(pos)*maxShipDate/int64(nLi))
		li.strs(9, l.mode)
	}
	if err := li.render(nLi, nil); err != nil {
		return nil, err
	}
	return &tpch{Lineitem: li, Orders: orders, Clerk: clerk}, nil
}

// spam is the synthetic stand-in for the paper's §7.2 spam telemetry: a JSON
// feed whose field order varies from object to object and which nests a
// classes array (feed_json), a CSV classifier output (class_csv) and a
// binary history table (hist_bin), all keyed by mail id.
type spam struct {
	Feed, Class, Hist *table
	MaxMid            int64
}

func genSpam(r *rng, sc scale) (*spam, error) {
	n := sc.SpamJSON
	feed := newTable("feed",
		types.Field{Name: "mid", Type: types.Int},
		types.Field{Name: "lang", Type: types.String},
		types.Field{Name: "country", Type: types.String},
		types.Field{Name: "body_len", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "day", Type: types.Int},
	)
	classNames := []string{"c", "w"}
	feed.NestName = "classes"
	feed.NestType = types.NewListType(types.NewRecordType(
		types.Field{Name: "c", Type: types.String}, types.Field{Name: "w", Type: types.Int}))
	classText := make([][]byte, n)
	flip := make([]bool, n)
	for i := 0; i < n; i++ {
		feed.ints(0, int64(i+1))
		feed.strs(1, pick(r, spamLangs))
		feed.strs(2, pick(r, spamLands))
		feed.ints(3, r.intn(4000)+50)
		feed.floats(4, r.frac(0, 1, 256))
		feed.ints(5, r.intn(spamDays))
		cb := []byte{'['}
		var elems []types.Value
		for k, nk := 0, int(r.intn(3))+1; k < nk; k++ {
			kind, w := pick(r, spamKinds), r.intn(100)
			if k > 0 {
				cb = append(cb, ", "...)
			}
			cb = append(cb, `{"c": "`...)
			cb = append(cb, kind...)
			cb = append(cb, `", "w": `...)
			cb = strconv.AppendInt(cb, w, 10)
			cb = append(cb, '}')
			elems = append(elems, types.RecordValue(classNames, []types.Value{types.StringValue(kind), types.IntValue(w)}))
		}
		classText[i] = append(cb, ']')
		feed.Nest = append(feed.Nest, types.ListValue(elems...))
		flip[i] = r.next()%2 == 0
	}
	err := feed.render(n, func(out []byte, row int) []byte {
		order := []int{0, 1, 2, 3, 4, 5}
		if flip[row] {
			order = []int{5, 0, 4, 2, 1, 3}
		}
		out = append(out, '{')
		for _, c := range order {
			out = strconv.AppendQuote(out, feed.Cols[c].Name)
			out = append(out, ": "...)
			out = appendCell(out, &feed.Cols[c], row, true)
			out = append(out, ", "...)
		}
		out = append(out, `"classes": `...)
		out = append(out, classText[row]...)
		return append(out, "}\n"...)
	})
	if err != nil {
		return nil, err
	}

	class := newTable("class",
		types.Field{Name: "mid", Type: types.Int},
		types.Field{Name: "class_id", Type: types.Int},
		types.Field{Name: "cluster", Type: types.Int},
		types.Field{Name: "score", Type: types.Float},
		types.Field{Name: "confidence", Type: types.Float},
		types.Field{Name: "label", Type: types.String},
	)
	for i := 0; i < sc.SpamCSV; i++ {
		class.ints(0, r.intn(int64(n))+1)
		class.ints(1, r.intn(int64(len(spamKinds))))
		class.ints(2, r.intn(5000))
		class.floats(3, r.frac(0, 1, 256))
		class.floats(4, r.frac(0, 1, 256))
		class.strs(5, pick(r, spamKinds))
	}
	if err := class.render(sc.SpamCSV, nil); err != nil {
		return nil, err
	}

	hist := newTable("hist",
		types.Field{Name: "mid", Type: types.Int},
		types.Field{Name: "day", Type: types.Int},
		types.Field{Name: "hits", Type: types.Int},
		types.Field{Name: "volume", Type: types.Float},
		types.Field{Name: "feature", Type: types.Float},
	)
	for i := 0; i < sc.SpamBin; i++ {
		hist.ints(0, r.intn(int64(n))+1)
		hist.ints(1, r.intn(spamDays))
		hist.ints(2, r.intn(1000))
		hist.floats(3, r.frac(0, 1_000_000, 16))
		hist.floats(4, r.frac(0, 1, 256))
	}
	if err := hist.render(sc.SpamBin, nil); err != nil {
		return nil, err
	}
	// Each spam table is queried in one format only; drop the other images
	// so they do not sit in live_heap_mb.
	feed.CSV, feed.Bin = nil, nil
	class.JSON, class.Bin = nil, nil
	hist.CSV, hist.JSON = nil, nil
	return &spam{Feed: feed, Class: class, Hist: hist, MaxMid: int64(n)}, nil
}

// hashTables is the reproducibility witness: one SHA-256 over every byte
// the engine will be handed, in a fixed order.
func hashTables(ts ...*table) string {
	h := sha256.New()
	for _, t := range ts {
		h.Write([]byte(t.Name))
		h.Write(t.CSV)
		h.Write(t.JSON)
		h.Write(t.Bin)
	}
	return hex.EncodeToString(h.Sum(nil))
}
