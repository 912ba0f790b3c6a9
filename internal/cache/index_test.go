package cache

import (
	"fmt"
	"maps"
	"math"
	"slices"
	"sort"
	"testing"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// zoned builds an int block spanning several zones: row i holds i, except
// rows listed in nulls.
func zonedIntBlock(n int, nulls ...int) *Block {
	b := &Block{Dataset: "d", Key: "k", Kind: types.KindInt, Complete: true, Rows: int64(n)}
	b.Ints = make([]int64, n)
	b.Nulls = make([]bool, n)
	for i := 0; i < n; i++ {
		b.Ints[i] = int64(i)
	}
	for _, i := range nulls {
		b.Nulls[i] = true
	}
	return b
}

func TestZoneMapsBoundaries(t *testing.T) {
	b := zonedIntBlock(3 * ZoneSize)
	z := BuildZones(b)
	if z == nil || len(z.IMin) != 3 {
		t.Fatalf("want 3 zones, got %+v", z)
	}
	// Zone 1 covers [1024, 2047]. Exact min/max must match (inclusive).
	w := func(p Pred) bool { return z.CanMatchWindow(ZoneSize, 2*ZoneSize, p) }
	cases := []struct {
		op   CmpOp
		k    int64
		want bool
	}{
		{CmpEq, 1024, true}, {CmpEq, 2047, true}, {CmpEq, 1023, false}, {CmpEq, 2048, false},
		{CmpLt, 1024, false}, {CmpLt, 1025, true},
		{CmpLe, 1023, false}, {CmpLe, 1024, true},
		{CmpGt, 2047, false}, {CmpGt, 2046, true},
		{CmpGe, 2048, false}, {CmpGe, 2047, true},
		{CmpNe, 1500, true},
	}
	for _, c := range cases {
		if got := w(Pred{Op: c.op, Kind: types.KindInt, I: c.k}); got != c.want {
			t.Errorf("op %d k=%d: CanMatchWindow = %v, want %v", c.op, c.k, got, c.want)
		}
	}
	// A constant zone matches Eq on its value and nothing else via Ne.
	cb := &Block{Kind: types.KindInt, Rows: 4, Ints: []int64{9, 9, 9, 9}}
	cz := BuildZones(cb)
	if !cz.CanMatchWindow(0, 4, Pred{Op: CmpEq, Kind: types.KindInt, I: 9}) {
		t.Error("constant zone should match its own value")
	}
	if cz.CanMatchWindow(0, 4, Pred{Op: CmpNe, Kind: types.KindInt, I: 9}) {
		t.Error("constant zone cannot satisfy Ne of its only value")
	}
}

func TestZoneMapsAllNullAndNaN(t *testing.T) {
	// All-null zone: comparisons never match NULL, so every op skips.
	b := &Block{Kind: types.KindInt, Rows: 3, Ints: []int64{0, 0, 0}, Nulls: []bool{true, true, true}}
	z := BuildZones(b)
	for _, op := range []CmpOp{CmpEq, CmpNe, CmpLt, CmpLe, CmpGt, CmpGe} {
		if z.CanMatchWindow(0, 3, Pred{Op: op, Kind: types.KindInt, I: 0}) {
			t.Errorf("all-null zone matched op %d", op)
		}
	}
	if z.NullCnt[0] != 3 {
		t.Errorf("null count = %d, want 3", z.NullCnt[0])
	}
	// NaN poisons a float zone's range: it must stay conservative (match).
	fb := &Block{Kind: types.KindFloat, Rows: 3, Floats: []float64{1, math.NaN(), 3}}
	fz := BuildZones(fb)
	if !fz.CanMatchWindow(0, 3, Pred{Op: CmpGt, Kind: types.KindFloat, F: 100}) {
		t.Error("NaN-poisoned zone must not be skipped")
	}
}

func TestZoneMapsCrossKind(t *testing.T) {
	b := zonedIntBlock(10)
	z := BuildZones(b)
	// Float constant against an int zone [0,9].
	if z.CanMatchWindow(0, 10, Pred{Op: CmpGt, Kind: types.KindFloat, F: 9.5}) {
		t.Error("x > 9.5 cannot match [0,9]")
	}
	if !z.CanMatchWindow(0, 10, Pred{Op: CmpGt, Kind: types.KindFloat, F: 8.5}) {
		t.Error("x > 8.5 matches 9")
	}
	if z.CanMatchWindow(0, 10, Pred{Op: CmpEq, Kind: types.KindFloat, F: 10.5}) {
		t.Error("x = 10.5 is outside [0,9]")
	}
	// In-range fractional equality stays conservative (range test only).
	if !z.CanMatchWindow(0, 10, Pred{Op: CmpEq, Kind: types.KindFloat, F: 4.5}) {
		t.Error("range-based zone maps cannot prune in-range constants")
	}
	// Beyond float64's exact-integer range an int zone must not prune
	// against float constants: the conversion rounds.
	big := &Block{Kind: types.KindInt, Rows: 2, Ints: []int64{1 << 53, 1<<53 + 3}}
	bz := BuildZones(big)
	if !bz.CanMatchWindow(0, 2, Pred{Op: CmpEq, Kind: types.KindFloat, F: float64(uint64(1)<<53) + 1}) {
		t.Error("zones past 2^53 must stay conservative")
	}
}

func TestBitmapFillSel(t *testing.T) {
	bm := NewBitmap(200)
	want := []int64{0, 5, 63, 64, 65, 127, 128, 199}
	for _, i := range want {
		bm.Set(i)
	}
	if bm.Count() != int64(len(want)) {
		t.Fatalf("count = %d, want %d", bm.Count(), len(want))
	}
	out := bm.FillSel(0, 200, make([]int32, 1024))
	if len(out) != len(want) {
		t.Fatalf("fill = %v", out)
	}
	for i, r := range out {
		if int64(r) != want[i] {
			t.Fatalf("fill[%d] = %d, want %d", i, r, want[i])
		}
	}
	// Window [64, 192): offsets are window-relative, tail clamped to n.
	out = bm.FillSel(64, 128, out)
	if len(out) != 4 || out[0] != 0 || out[1] != 1 || out[2] != 63 || out[3] != 64 {
		t.Fatalf("windowed fill = %v", out)
	}
	// Clamp past the bitmap's end.
	out = bm.FillSel(192, 100, out)
	if len(out) != 1 || out[0] != 7 {
		t.Fatalf("clamped fill = %v", out)
	}
}

func TestBuildIndexAndLookupInt(t *testing.T) {
	b := &Block{Dataset: "d", Key: "k", Kind: types.KindInt, Complete: true, Rows: 8,
		Ints:  []int64{5, 3, 5, 7, 3, 5, 2, 7},
		Nulls: []bool{false, false, false, false, false, false, false, true}}
	ix := BuildIndexFor(b)
	if ix == nil {
		t.Fatal("no index built")
	}
	if ix.Keys() != 4 || ix.Rows() != 8 {
		t.Fatalf("keys=%d rows=%d", ix.Keys(), ix.Rows())
	}
	check := func(op CmpOp, k int64, want ...int64) {
		t.Helper()
		bm, ok := ix.Lookup(op, Pred{Op: op, Kind: types.KindInt, I: k})
		if !ok {
			t.Fatalf("lookup op %d k=%d refused", op, k)
		}
		var got []int64
		for i := int64(0); i < 8; i++ {
			if bm.Get(i) {
				got = append(got, i)
			}
		}
		if fmt.Sprint(got) != fmt.Sprint(want) {
			t.Fatalf("op %d k=%d rows = %v, want %v", op, k, got, want)
		}
	}
	check(CmpEq, 5, 0, 2, 5)
	check(CmpEq, 7, 3) // row 7 is NULL, never matches
	check(CmpEq, 4)    // absent key
	check(CmpNe, 5, 1, 3, 4, 6)
	check(CmpLt, 5, 1, 4, 6)
	check(CmpLe, 3, 1, 4, 6)
	check(CmpGt, 5, 3)
	check(CmpGe, 7, 3)
	// Float lookups on an int index must refuse (fallback to kernels).
	if _, ok := ix.Lookup(CmpEq, Pred{Op: CmpEq, Kind: types.KindFloat, F: 5}); ok {
		t.Error("cross-kind lookup must refuse")
	}
}

func TestBuildIndexDictString(t *testing.T) {
	b := &Block{Dataset: "d", Key: "k", Kind: types.KindString, Complete: true, Rows: 6,
		Strs:  []string{"red", "blue", "red", "green", "blue", "red"},
		Nulls: []bool{false, false, false, false, true, false}}
	ix := BuildIndexFor(b)
	if ix == nil {
		t.Fatal("no string index built")
	}
	bm, ok := ix.Lookup(CmpEq, Pred{Op: CmpEq, Kind: types.KindString, S: "red"})
	if !ok || !bm.Get(0) || bm.Get(1) || !bm.Get(2) || !bm.Get(5) {
		t.Fatalf("red lookup wrong: ok=%v", ok)
	}
	// Ne must exclude NULL rows: row 4 is a null "blue" slot.
	bm, ok = ix.Lookup(CmpNe, Pred{Op: CmpNe, Kind: types.KindString, S: "red"})
	if !ok || !bm.Get(1) || !bm.Get(3) || bm.Get(4) || bm.Get(0) {
		t.Fatal("ne lookup wrong")
	}
	// Missing needle: Eq matches nothing, Ne matches every non-null row.
	bm, ok = ix.Lookup(CmpEq, Pred{Op: CmpEq, Kind: types.KindString, S: "mauve"})
	if !ok || bm.Count() != 0 {
		t.Fatal("missing-key Eq should be empty")
	}
	bm, ok = ix.Lookup(CmpNe, Pred{Op: CmpNe, Kind: types.KindString, S: "mauve"})
	if !ok || bm.Count() != 5 {
		t.Fatalf("missing-key Ne = %d, want 5", bm.Count())
	}
	// Range ops have no meaning over appearance-ordered codes.
	if _, ok := ix.Lookup(CmpLt, Pred{Op: CmpLt, Kind: types.KindString, S: "red"}); ok {
		t.Error("string range lookup must refuse")
	}
}

func TestBuildIndexRefusals(t *testing.T) {
	fb := &Block{Kind: types.KindFloat, Rows: 2, Floats: []float64{1, 2}}
	if BuildIndexFor(fb) != nil {
		t.Error("float columns must not be indexed")
	}
	wide := &Block{Kind: types.KindInt, Rows: maxIndexKeys + 1}
	for i := 0; i <= maxIndexKeys; i++ {
		wide.Ints = append(wide.Ints, int64(i))
	}
	if BuildIndexFor(wide) != nil {
		t.Error("too-distinct columns must not be indexed")
	}
}

// referenceIndex is the straightforward build the single pass must match:
// a dense bitmap per key as it is met, keys sorted afterwards.
func referenceIndex(b *Block) *Index {
	ix := &Index{Kind: b.Kind, rows: b.Rows, nonNull: NewBitmap(b.Rows)}
	byKey := map[int64]*Bitmap{}
	add := func(i int, k int64) bool {
		bm := byKey[k]
		if bm == nil {
			if len(byKey) == maxIndexKeys {
				return false
			}
			bm = NewBitmap(b.Rows)
			byKey[k] = bm
		}
		bm.Set(int64(i))
		ix.nonNull.Set(int64(i))
		return true
	}
	null := func(i int) bool { return b.Nulls != nil && b.Nulls[i] }
	switch b.Kind {
	case types.KindInt:
		for i, v := range b.Ints {
			if !null(i) && !add(i, v) {
				return nil
			}
		}
	case types.KindBool:
		for i, v := range b.Bools {
			if !null(i) && !add(i, int64(boolKey(v))) {
				return nil
			}
		}
	case types.KindString:
		ix.dict = &Dict{codes: map[string]uint32{}}
		for i, s := range b.Strs {
			if null(i) {
				continue
			}
			code, ok := ix.dict.codes[s]
			if !ok {
				code = uint32(len(ix.dict.strs))
				ix.dict.codes[s] = code
				ix.dict.strs = append(ix.dict.strs, s)
			}
			if !add(i, int64(code)) {
				return nil
			}
		}
	default:
		return nil
	}
	for k := range byKey {
		ix.keys = append(ix.keys, k)
	}
	sort.Slice(ix.keys, func(i, j int) bool { return ix.keys[i] < ix.keys[j] })
	ix.bytes = ix.nonNull.Bytes() + int64(len(ix.keys))*8
	for _, k := range ix.keys {
		ix.bitmaps = append(ix.bitmaps, *byKey[k])
		ix.bytes += byKey[k].Bytes()
	}
	if ix.dict != nil {
		ix.bytes += ix.dict.bytes()
	}
	return ix
}

// TestBuildIndexMatchesReference checks the single-pass build against the
// reference: same keys, bitmaps, non-null bitmap, dictionary and Bytes(),
// and the same refusals, at and just past the key cap.
func TestBuildIndexMatchesReference(t *testing.T) {
	ints := func(n, everyNull int, f func(i int) int64) *Block {
		b := &Block{Kind: types.KindInt, Rows: int64(n), Ints: make([]int64, n)}
		if everyNull > 0 {
			b.Nulls = make([]bool, n)
		}
		for i := range b.Ints {
			b.Ints[i] = f(i)
			if everyNull > 0 && i%everyNull == 0 {
				b.Nulls[i], b.Ints[i] = true, 1<<40 // a NULL slot's value is junk
			}
		}
		return b
	}
	strs := func(n, everyNull, distinct int) *Block {
		b := &Block{Kind: types.KindString, Rows: int64(n), Strs: make([]string, n)}
		if everyNull > 0 {
			b.Nulls = make([]bool, n)
		}
		for i := range b.Strs {
			b.Strs[i] = fmt.Sprintf("s%d", (i*7919)%distinct)
			if everyNull > 0 && i%everyNull == 0 {
				b.Nulls[i] = true
			}
		}
		return b
	}
	bools := &Block{Kind: types.KindBool, Rows: 131, Bools: make([]bool, 131), Nulls: make([]bool, 131)}
	for i := range bools.Bools {
		bools.Bools[i], bools.Nulls[i] = i%3 == 0, i%5 == 0
	}
	cases := []struct {
		name  string
		b     *Block
		build bool
	}{
		{"int narrow nulls", ints(3000, 7, func(i int) int64 { return int64(i*37%300) - 100 }), true},
		{"int wide nulls", ints(3000, 5, func(i int) int64 { return int64(i%50) * -1_000_003 }), true},
		{"int extremes", ints(200, 0, func(i int) int64 { return []int64{math.MinInt64, math.MaxInt64, 0}[i%3] }), true},
		{"int narrow 4096 keys", ints(9000, 0, func(i int) int64 { return int64(i % 4096) }), true},
		{"int wide 4096 keys", ints(9000, 3, func(i int) int64 { return int64(i%4096) * 1000 }), true},
		{"int 4096 keys plus null", ints(4097, 4097, func(i int) int64 { return int64(i) }), true},
		{"int 4097 keys", ints(4097, 0, func(i int) int64 { return int64(i) }), false},
		{"int wide 4097 keys", ints(9000, 0, func(i int) int64 { return int64(i%4097) * 1000 }), false},
		{"int all null", ints(70, 1, func(i int) int64 { return 0 }), true},
		{"int empty", ints(0, 0, nil), true},
		{"bool nulls", bools, true},
		{"bool one value", &Block{Kind: types.KindBool, Rows: 64, Bools: make([]bool, 64)}, true},
		{"string nulls", strs(1000, 9, 37), true},
		{"string 4096 keys", strs(4096, 0, 4096), true},
		{"string 4097 keys", strs(4097, 0, 4097), false},
		{"float", &Block{Kind: types.KindFloat, Rows: 2, Floats: []float64{1, 2}}, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := BuildIndexFor(c.b), referenceIndex(c.b)
			if (got != nil) != c.build || (want != nil) != c.build {
				t.Fatalf("built = %v, reference built = %v, want %v", got != nil, want != nil, c.build)
			}
			if !c.build {
				return
			}
			if !slices.Equal(got.keys, want.keys) {
				t.Fatalf("keys differ: %d vs %d", len(got.keys), len(want.keys))
			}
			if !slices.Equal(got.nonNull.words, want.nonNull.words) || got.nonNull.n != want.nonNull.n {
				t.Fatal("non-null bitmaps differ")
			}
			for k := range want.bitmaps {
				if !slices.Equal(got.bitmaps[k].words, want.bitmaps[k].words) || got.bitmaps[k].n != want.bitmaps[k].n {
					t.Fatalf("bitmap of key %d differs", want.keys[k])
				}
			}
			if (got.dict == nil) != (want.dict == nil) ||
				got.dict != nil && (!slices.Equal(got.dict.strs, want.dict.strs) || !maps.Equal(got.dict.codes, want.dict.codes)) {
				t.Fatal("dictionaries differ")
			}
			if got.Bytes() != want.Bytes() {
				t.Fatalf("Bytes() = %d, reference %d", got.Bytes(), want.Bytes())
			}
		})
	}
}

// BenchmarkBuildIndex times one index build (or refusal) over 120 000-row
// columns: int columns with 50 to 48 000 distinct keys 0..k-1, one with
// 1 000 keys spread too wide for the dense-range path, and a 7-value
// string column.
func BenchmarkBuildIndex(b *testing.B) {
	const rows = 120_000
	for _, c := range []struct {
		name       string
		keys, step int
	}{{"int_50_keys", 50, 1}, {"int_1000_keys", 1000, 1}, {"int_1000_sparse_keys", 1000, 1000},
		{"int_2500_keys", 2500, 1}, {"int_48000_keys", 48_000, 1}} {
		blk := &Block{Kind: types.KindInt, Rows: rows, Ints: make([]int64, rows), Complete: true}
		for i := range blk.Ints {
			blk.Ints[i] = int64((i*7919)%c.keys) * int64(c.step)
		}
		blk.Zones = BuildZones(blk)
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				benchIndex = BuildIndexFor(blk)
			}
		})
	}
	colors := []string{"red", "orange", "yellow", "green", "blue", "indigo", "violet"}
	blk := &Block{Kind: types.KindString, Rows: rows, Strs: make([]string, rows), Complete: true}
	for i := range blk.Strs {
		blk.Strs[i] = colors[i%len(colors)]
	}
	b.Run("string_7_keys", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			benchIndex = BuildIndexFor(blk)
		}
	})
}

var benchIndex *Index

// TestConcatBlocksValidation pins the fragment-merge contract: mismatched
// datasets, keys, kinds, or inconsistent column/null lengths reject the
// merge, and Complete propagates only when every fragment is complete.
func TestConcatBlocksValidation(t *testing.T) {
	frag := func(key string, kind types.Kind, rows int) *Block {
		b := &Block{Dataset: "ds", Key: key, Kind: kind, Complete: true, Rows: int64(rows)}
		switch kind {
		case types.KindInt:
			b.Ints = make([]int64, rows)
		case types.KindFloat:
			b.Floats = make([]float64, rows)
		}
		return b
	}
	if ConcatBlocks(nil) != nil {
		t.Error("empty concat must be nil")
	}
	ok := ConcatBlocks([]*Block{frag("a", types.KindInt, 2), frag("a", types.KindInt, 3)})
	if ok == nil || ok.Rows != 5 || !ok.Complete || len(ok.Ints) != 5 {
		t.Fatalf("valid concat = %+v", ok)
	}
	if ok.Nulls != nil {
		t.Error("all-dense fragments must concat dense")
	}

	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), nil}) != nil {
		t.Error("nil fragment must reject")
	}
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), frag("b", types.KindInt, 2)}) != nil {
		t.Error("key mismatch must reject")
	}
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), frag("a", types.KindFloat, 2)}) != nil {
		t.Error("kind mismatch must reject")
	}
	other := frag("a", types.KindInt, 2)
	other.Dataset = "other"
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), other}) != nil {
		t.Error("dataset mismatch must reject")
	}
	short := frag("a", types.KindInt, 3)
	short.Ints = short.Ints[:2] // typed column shorter than Rows
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), short}) != nil {
		t.Error("length-inconsistent fragment must reject")
	}
	crossed := frag("a", types.KindInt, 2)
	crossed.Floats = []float64{1} // foreign typed column populated
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), crossed}) != nil {
		t.Error("cross-typed fragment must reject")
	}
	badNulls := frag("a", types.KindInt, 2)
	badNulls.Nulls = []bool{true} // nulls shorter than Rows
	if ConcatBlocks([]*Block{frag("a", types.KindInt, 2), badNulls}) != nil {
		t.Error("short null column must reject")
	}

	partial := frag("a", types.KindInt, 2)
	partial.Complete = false
	got := ConcatBlocks([]*Block{frag("a", types.KindInt, 2), partial})
	if got == nil || got.Complete {
		t.Error("any incomplete fragment must clear Complete")
	}
	// Sparse + dense fragments: the merged null column covers both.
	sparse := frag("a", types.KindInt, 2)
	sparse.Nulls = []bool{false, true}
	got = ConcatBlocks([]*Block{frag("a", types.KindInt, 2), sparse})
	if got == nil || len(got.Nulls) != 4 || got.Nulls[2] || !got.Nulls[3] {
		t.Fatalf("sparse concat nulls = %+v", got)
	}
}

// TestEvictionOrderLargeClock is the regression for the float eviction
// score: with lastUsed values past float64's 53-bit mantissa, the old
// bias*1e9+lastUsed score collapsed recency within a bias class (and let a
// huge clock bleed across classes). The lexicographic comparison must evict
// strictly LRU-within-cheapest-bias regardless of clock magnitude.
func TestEvictionOrderLargeClock(t *testing.T) {
	// Each 20-row int block is 160 column bytes + 21 zone-map bytes = 181;
	// the arena holds exactly two.
	mem := storage.NewManager(2 * 181)
	m := NewManager(mem, true)
	m.clock = 1 << 53 // past float64 integer precision
	old := intBlock("d", "old", 20, 1)
	mid := intBlock("d", "mid", 20, 1)
	josn := intBlock("d", "json", 20, 14) // expensive format, oldest of all
	m.Register(old)
	m.Register(josn)
	// Registering "mid" must evict "old" (cheapest bias, least recent),
	// not "json" (expensive bias) — even though their lastUsed values
	// differ by 1, which a float64 bias*1e9+lastUsed score cannot see at
	// this clock magnitude.
	m.Register(mid)
	if _, ok := m.blocks["d\x00old"]; ok {
		t.Error("old should have been evicted")
	}
	if _, ok := m.blocks["d\x00json"]; !ok {
		t.Error("json (expensive bias) must survive")
	}
	if _, ok := m.blocks["d\x00mid"]; !ok {
		t.Error("mid must be registered")
	}
	// Recency within a bias class at huge clock: touch "json" then force
	// another eviction round — "mid" (cheap) goes before "json".
	if _, ok := m.Lookup("d", "json"); !ok {
		t.Fatal("lookup json")
	}
	m.Register(intBlock("d", "new", 20, 1))
	if _, ok := m.blocks["d\x00mid"]; ok {
		t.Error("mid should have been evicted on the second round")
	}
	if _, ok := m.blocks["d\x00json"]; !ok {
		t.Error("json must still survive")
	}
}

// repeatedIntBlock holds n rows cycling through distinct values 0..distinct-1.
func repeatedIntBlock(key string, n, distinct int) *Block {
	b := &Block{Dataset: "d", Key: key, Kind: types.KindInt, FormatBias: 1, Complete: true, Rows: int64(n)}
	for i := 0; i < n; i++ {
		b.Ints = append(b.Ints, int64(i%distinct))
	}
	return b
}

// TestIndexPolicy pins NotePredicate/CreditScan promotion: IndexOn builds
// immediately, IndexAuto needs hotScanThreshold scans on a selective
// predicate and refuses an index larger than its column, IndexOff never
// builds, and unselective predicates never promote.
func TestIndexPolicy(t *testing.T) {
	mk := func(mode IndexMode, b *Block) *Manager {
		m := NewManager(storage.NewManager(0), true)
		m.Indexes = mode
		m.Register(b)
		return m
	}
	// Ten distinct keys in ten rows: an index 1.7x the column.
	distinct := func() *Block { return intBlock("d", "k", 10, 1) }
	m := mk(IndexOn, distinct())
	m.NotePredicate("d", "k", 0.9) // forced mode ignores selectivity and size
	if b, _ := m.Lookup("d", "k"); b.Index() == nil {
		t.Fatal("IndexOn must build on first predicate")
	}
	if s := m.Snapshot(); s.IndexBuilds != 1 || s.Indexes != 1 || s.IndexBytes <= 0 {
		t.Fatalf("accounting after forced build: %+v", s)
	}

	m = mk(IndexAuto, repeatedIntBlock("k", 1000, 10))
	m.NotePredicate("d", "k", 0.1)
	for i := 0; i < hotScanThreshold-1; i++ {
		m.CreditScan("d", "k")
		if b, _ := m.Lookup("d", "k"); b.Index() != nil {
			t.Fatalf("promoted after only %d scans", i+1)
		}
	}
	m.CreditScan("d", "k")
	if b, _ := m.Lookup("d", "k"); b.Index() == nil {
		t.Fatal("auto policy must promote at the hot-scan threshold")
	}

	m = mk(IndexAuto, distinct())
	m.NotePredicate("d", "k", 0.1)
	for i := 0; i < 10*hotScanThreshold; i++ {
		m.CreditScan("d", "k")
	}
	s := m.Snapshot()
	if b, _ := m.Lookup("d", "k"); b.Index() != nil || s.IndexBuilds != 0 {
		t.Fatal("auto policy must refuse an index larger than its column")
	}
	if got := s.Refused(RefuseSize); got != 1 {
		t.Fatalf("size refusals = %d over %d hot scans, want 1 (remembered)", got, 10*hotScanThreshold)
	}
	if m.mem.ArenaUsed() != distinct().Bytes()+BuildZones(distinct()).bytes() {
		t.Fatalf("a refused index must reserve nothing: arena %d", m.mem.ArenaUsed())
	}

	m = mk(IndexAuto, distinct())
	m.NotePredicate("d", "k", 0.9) // unselective: never promote
	for i := 0; i < 10*hotScanThreshold; i++ {
		m.CreditScan("d", "k")
	}
	if b, _ := m.Lookup("d", "k"); b.Index() != nil {
		t.Fatal("unselective predicates must not promote")
	}

	m = mk(IndexOff, distinct())
	m.NotePredicate("d", "k", 0.01)
	for i := 0; i < 10*hotScanThreshold; i++ {
		m.CreditScan("d", "k")
	}
	if b, _ := m.Lookup("d", "k"); b.Index() != nil {
		t.Fatal("IndexOff must never build")
	}
}

// TestIndexRefusalMemo checks that a refusal is remembered per block: a
// dropped, replaced or evicted-and-rebuilt block is attempted afresh, a
// kind refusal costs one attempt, and a budget refusal is not remembered.
func TestIndexRefusalMemo(t *testing.T) {
	hot := func(m *Manager, key string) {
		m.NotePredicate("d", key, 0.1)
		for i := 0; i < 2*hotScanThreshold; i++ {
			m.CreditScan("d", key)
		}
	}
	m := NewManager(storage.NewManager(0), true)
	m.Register(intBlock("d", "k", 10, 1))
	hot(m, "k")
	m.Drop("d")
	m.Register(intBlock("d", "k", 10, 1))
	hot(m, "k")
	if got := m.Snapshot().Refused(RefuseSize); got != 2 {
		t.Fatalf("size refusals after drop and re-register = %d, want 2", got)
	}
	m.Register(intBlock("d", "k", 10, 1)) // replaces the refused block
	m.CreditScan("d", "k")
	if got := m.Snapshot().Refused(RefuseSize); got != 3 {
		t.Fatalf("size refusals after replacement = %d, want 3", got)
	}

	fb := &Block{Dataset: "d", Key: "f", Kind: types.KindFloat, Complete: true, Rows: 2, Floats: []float64{1, 2}}
	m.Register(fb)
	hot(m, "f")
	if got := m.Snapshot().Refused(RefuseKind); got != 1 {
		t.Fatalf("kind refusals = %d, want 1", got)
	}

	// Eviction plus rebuild: the arena holds one 20-row block (181 bytes).
	m = NewManager(storage.NewManager(181), true)
	m.Register(intBlock("d", "k", 20, 1))
	hot(m, "k")
	m.Register(intBlock("d", "other", 20, 1)) // evicts k
	if m.Has("d", "k") {
		t.Fatal("k should have been evicted")
	}
	m.Register(intBlock("d", "k", 20, 1)) // rebuilt by a later scan
	m.CreditScan("d", "k")
	if got := m.Snapshot().Refused(RefuseSize); got != 2 {
		t.Fatalf("size refusals after eviction and rebuild = %d, want 2", got)
	}

	// Budget: the index cannot fit while something else holds the arena.
	// The refusal is not remembered, so the same block builds once space
	// frees.
	mem := storage.NewManager(16 << 10)
	m = NewManager(mem, true)
	m.Indexes = IndexOn
	b := repeatedIntBlock("k", 1000, 10)
	m.Register(b)
	held := mem.ArenaBudget() - mem.ArenaUsed()
	if !mem.ArenaReserve(held) {
		t.Fatal("hold the rest of the arena")
	}
	m.NotePredicate("d", "k", 0.1)
	if s := m.Snapshot(); s.Refused(RefuseBudget) != 1 || s.IndexBuilds != 0 {
		t.Fatalf("budget refusal not counted: %+v", s)
	}
	mem.ArenaRelease(held)
	if b.Index() != nil || !m.Register(b) {
		t.Fatal("re-register after the budget refusal")
	}
	m.NotePredicate("d", "k", 0.1)
	if s := m.Snapshot(); b.Index() == nil || s.IndexBuilds != 1 || s.Refused(RefuseBudget) != 1 {
		t.Fatalf("budget refusal must retry once space frees: %+v", s)
	}
}

// TestIndexEvictionAccounting checks an evicted block releases its index
// bytes along with its column bytes.
func TestIndexEvictionAccounting(t *testing.T) {
	m := NewManager(storage.NewManager(0), true)
	m.Indexes = IndexOn
	m.Register(intBlock("d", "k", 10, 1))
	m.NotePredicate("d", "k", 0.1)
	if got := m.Snapshot().IndexBytes; got <= 0 {
		t.Fatalf("index bytes = %d", got)
	}
	m.Drop("d")
	if used := m.mem.ArenaUsed(); used != 0 {
		t.Fatalf("arena after drop = %d, want 0", used)
	}
}
