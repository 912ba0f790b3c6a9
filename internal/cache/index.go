// Columnar cache v2: per-block zone maps, dense bitmap indexes, and
// dictionary-encoded string equality, in the style of in-memory columnar
// stores (kelindar/column). Zone maps generalize the paper's DBMS-C
// sort-on-load trick — a scan skips whole 1024-row windows whose min/max
// range cannot satisfy a pushed-down predicate — and bitmap indexes turn
// repeated selective filters over cached columns into word-parallel
// bitmap operations plus a gather instead of per-row compares. Which
// columns earn an index is decided adaptively from optimizer selectivity
// estimates plus observed scan counts, closing the paper's §6 adaptive
// loop one level deeper than block materialization alone.
package cache

import (
	"math"
	"math/bits"
	"slices"
	"sort"
	"time"

	"proteus/internal/types"
)

// ZoneSize is the number of rows covered by one zone-map entry. It equals
// vbuf.BatchSize and plugin.CancelStride so one zone decision covers
// exactly one vectorized batch (and one cancellation-poll window of the
// tuple path).
const ZoneSize = 1024

// Index-selection policy knobs.
const (
	// hotScanThreshold is how many observed scans with a pushed-down
	// predicate a column needs before IndexAuto builds a bitmap index.
	hotScanThreshold = 3
	// maxIndexKeys caps the distinct values a column may have and still be
	// bitmap-indexed; beyond it the per-key bitmaps stop paying for
	// themselves and the column keeps zone maps only.
	maxIndexKeys = 4096
	// maxIndexSelectivity is the estimated-selectivity cutoff for IndexAuto:
	// predicates expected to keep most rows gain little from an index.
	maxIndexSelectivity = 0.5
)

// IndexMode selects the bitmap-index policy.
type IndexMode int

// Index policies: adaptive (stats + observed scans), always, never.
const (
	IndexAuto IndexMode = iota
	IndexOn
	IndexOff
)

// CmpOp is a comparison operator in the cache layer's own vocabulary, so
// the package does not depend on the expression compiler.
type CmpOp uint8

// Comparison operators.
const (
	CmpEq CmpOp = iota
	CmpNe
	CmpLt
	CmpLe
	CmpGt
	CmpGe
)

// Pred is one pushed-down comparison against a constant, pre-lowered by
// the executor: Kind says which constant field is active.
type Pred struct {
	Op   CmpOp
	Kind types.Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// ZoneMaps carries per-zone min/max and null counts for one block. Built
// once at registration time, immutable afterwards.
type ZoneMaps struct {
	Kind types.Kind
	Rows int64

	IMin, IMax []int64   // int columns
	FMin, FMax []float64 // float columns
	NullCnt    []int32
	ranged     []bool // zone has a usable min/max (non-null, NaN-free rows)
}

func (z *ZoneMaps) bytes() int64 {
	if z == nil {
		return 0
	}
	return int64(len(z.IMin)+len(z.IMax))*8 +
		int64(len(z.FMin)+len(z.FMax))*8 +
		int64(len(z.NullCnt))*4 + int64(len(z.ranged))
}

// BuildZones computes the zone maps for a block. Min/max are tracked for
// int and float columns; every kind gets null counts (an all-null zone is
// skippable under any comparison predicate).
func BuildZones(b *Block) *ZoneMaps {
	nz := int((b.Rows + ZoneSize - 1) / ZoneSize)
	z := &ZoneMaps{
		Kind:    b.Kind,
		Rows:    b.Rows,
		NullCnt: make([]int32, nz),
		ranged:  make([]bool, nz),
	}
	switch b.Kind {
	case types.KindInt:
		z.IMin = make([]int64, nz)
		z.IMax = make([]int64, nz)
	case types.KindFloat:
		z.FMin = make([]float64, nz)
		z.FMax = make([]float64, nz)
	}
	for zi := 0; zi < nz; zi++ {
		lo := int64(zi) * ZoneSize
		hi := lo + ZoneSize
		if hi > b.Rows {
			hi = b.Rows
		}
		var nulls int32
		started, poisoned := false, false
		for i := lo; i < hi; i++ {
			if b.Nulls != nil && b.Nulls[i] {
				nulls++
				continue
			}
			switch b.Kind {
			case types.KindInt:
				v := b.Ints[i]
				if !started {
					z.IMin[zi], z.IMax[zi], started = v, v, true
				} else if v < z.IMin[zi] {
					z.IMin[zi] = v
				} else if v > z.IMax[zi] {
					z.IMax[zi] = v
				}
			case types.KindFloat:
				v := b.Floats[i]
				if v != v {
					poisoned = true // a NaN breaks ordering: never prune this zone
					continue
				}
				if !started {
					z.FMin[zi], z.FMax[zi], started = v, v, true
				} else if v < z.FMin[zi] {
					z.FMin[zi] = v
				} else if v > z.FMax[zi] {
					z.FMax[zi] = v
				}
			}
		}
		z.NullCnt[zi] = nulls
		z.ranged[zi] = started && !poisoned
	}
	return z
}

// CanMatchWindow reports whether any row in [lo, hi) could satisfy the
// predicate. False means the caller may skip the window entirely; true is
// always safe. A nil receiver never prunes.
func (z *ZoneMaps) CanMatchWindow(lo, hi int64, p Pred) bool {
	if z == nil {
		return true
	}
	if lo < 0 {
		lo = 0
	}
	if hi > z.Rows {
		hi = z.Rows
	}
	if lo >= hi {
		return false
	}
	for zi := int(lo / ZoneSize); zi <= int((hi-1)/ZoneSize); zi++ {
		if z.canMatchZone(zi, p) {
			return true
		}
	}
	return false
}

func (z *ZoneMaps) canMatchZone(zi int, p Pred) bool {
	zlo := int64(zi) * ZoneSize
	zlen := z.Rows - zlo
	if zlen > ZoneSize {
		zlen = ZoneSize
	}
	if int64(z.NullCnt[zi]) == zlen {
		return false // comparisons never match NULL
	}
	if !z.ranged[zi] {
		return true
	}
	switch z.Kind {
	case types.KindInt:
		switch p.Kind {
		case types.KindInt:
			return rangeCanMatchI(p.Op, z.IMin[zi], z.IMax[zi], p.I)
		case types.KindFloat:
			// Compare in the float domain (matching the engine's mixed
			// int/float comparison semantics); beyond float64's exact-integer
			// range the conversion rounds, so don't prune.
			if z.IMin[zi] <= -(1<<53) || z.IMax[zi] >= 1<<53 {
				return true
			}
			return rangeCanMatchF(p.Op, float64(z.IMin[zi]), float64(z.IMax[zi]), p.F)
		}
	case types.KindFloat:
		switch p.Kind {
		case types.KindFloat:
			return rangeCanMatchF(p.Op, z.FMin[zi], z.FMax[zi], p.F)
		case types.KindInt:
			if p.I <= -(1<<53) || p.I >= 1<<53 {
				return true
			}
			return rangeCanMatchF(p.Op, z.FMin[zi], z.FMax[zi], float64(p.I))
		}
	}
	return true
}

func rangeCanMatchI(op CmpOp, min, max, k int64) bool {
	switch op {
	case CmpEq:
		return min <= k && k <= max
	case CmpNe:
		return !(min == k && max == k)
	case CmpLt:
		return min < k
	case CmpLe:
		return min <= k
	case CmpGt:
		return max > k
	case CmpGe:
		return max >= k
	}
	return true
}

func rangeCanMatchF(op CmpOp, min, max, k float64) bool {
	switch op {
	case CmpEq:
		return min <= k && k <= max
	case CmpNe:
		return !(min == k && max == k)
	case CmpLt:
		return min < k
	case CmpLe:
		return min <= k
	case CmpGt:
		return max > k
	case CmpGe:
		return max >= k
	}
	return true
}

// Bitmap is a dense bit set over block row ordinals.
type Bitmap struct {
	words []uint64
	n     int64
}

// NewBitmap returns an empty bitmap covering n rows.
func NewBitmap(n int64) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)>>6), n: n}
}

// Set marks row i.
func (bm *Bitmap) Set(i int64) { bm.words[i>>6] |= 1 << uint(i&63) }

// Get reports whether row i is set.
func (bm *Bitmap) Get(i int64) bool { return bm.words[i>>6]&(1<<uint(i&63)) != 0 }

// Len returns the number of rows the bitmap covers.
func (bm *Bitmap) Len() int64 { return bm.n }

// Count returns the number of set rows.
func (bm *Bitmap) Count() int64 {
	var c int64
	for _, w := range bm.words {
		c += int64(bits.OnesCount64(w))
	}
	return c
}

// Bytes reports the bitmap's memory footprint.
func (bm *Bitmap) Bytes() int64 { return int64(len(bm.words)) * 8 }

// Clone returns a private copy.
func (bm *Bitmap) Clone() *Bitmap {
	out := &Bitmap{words: make([]uint64, len(bm.words)), n: bm.n}
	copy(out.words, bm.words)
	return out
}

// Or folds o into the receiver.
func (bm *Bitmap) Or(o *Bitmap) {
	dst := bm.words[:len(o.words)]
	for i, w := range o.words {
		dst[i] |= w
	}
}

// And intersects the receiver with o.
func (bm *Bitmap) And(o *Bitmap) {
	for i, w := range o.words {
		bm.words[i] &= w
	}
}

// AndNot clears the receiver's bits that are set in o.
func (bm *Bitmap) AndNot(o *Bitmap) {
	for i, w := range o.words {
		bm.words[i] &^= w
	}
}

// FillSel writes the batch-relative ordinals of set rows in
// [base, base+n) into out (reusing its backing array) and returns the
// filled prefix. It allocates nothing when cap(out) >= n — the batch
// executor passes its selection scratch buffer.
func (bm *Bitmap) FillSel(base int64, n int, out []int32) []int32 {
	out = out[:0]
	end := base + int64(n)
	if end > bm.n {
		end = bm.n
	}
	for i := base; i < end; {
		wordBase := i &^ 63
		w := bm.words[i>>6] & (^uint64(0) << uint(i&63))
		if wordBase+64 > end {
			w &= (uint64(1) << uint(end-wordBase)) - 1
		}
		for w != 0 {
			row := wordBase + int64(bits.TrailingZeros64(w))
			out = append(out, int32(row-base))
			w &= w - 1
		}
		i = wordBase + 64
	}
	return out
}

// AnyRange reports whether any bit in [lo, hi) is set — the window test the
// scan drivers use to skip materializing 1024-row windows that a bitmap
// filter would empty anyway.
func (bm *Bitmap) AnyRange(lo, hi int64) bool {
	if lo < 0 {
		lo = 0
	}
	if hi > bm.n {
		hi = bm.n
	}
	for i := lo; i < hi; {
		wordBase := i &^ 63
		w := bm.words[i>>6] & (^uint64(0) << uint(i&63))
		if wordBase+64 > hi {
			w &= (uint64(1) << uint(hi-wordBase)) - 1
		}
		if w != 0 {
			return true
		}
		i = wordBase + 64
	}
	return false
}

// Dict is an order-of-appearance dictionary for one string column; bitmap
// indexes evaluate string equality on codes, never on the strings.
type Dict struct {
	codes map[string]uint32
	strs  []string
}

// Code returns the code for s, if s occurs in the column.
func (d *Dict) Code(s string) (uint32, bool) {
	c, ok := d.codes[s]
	return c, ok
}

// Len returns the number of distinct strings.
func (d *Dict) Len() int { return len(d.strs) }

// At returns the string for a code.
func (d *Dict) At(c uint32) string { return d.strs[c] }

func (d *Dict) bytes() int64 {
	n := int64(0)
	for _, s := range d.strs {
		n += int64(len(s))*2 + 48 // map entry + slice entry
	}
	return n
}

// Index is a per-key bitmap index over one cached column. keys are sorted
// int values (for int columns), 0/1 (bool), or dictionary codes (string).
// It is immutable once published on a Block.
type Index struct {
	Kind    types.Kind
	rows    int64
	keys    []int64
	bitmaps []Bitmap
	nonNull *Bitmap
	dict    *Dict
	bytes   int64
}

// Keys returns the number of distinct indexed values.
func (ix *Index) Keys() int { return len(ix.keys) }

// Rows returns the number of rows the index covers.
func (ix *Index) Rows() int64 { return ix.rows }

// Bytes reports the index's accounted memory footprint.
func (ix *Index) Bytes() int64 { return ix.bytes }

// Refusal says why a bitmap index was not built for a block.
type Refusal uint8

// Refusal reasons. Kind, keys and size depend only on the block's contents
// (and the policy), so the block remembers them; budget depends on what
// else the arena holds, so a later attempt may succeed.
const (
	refuseNone   Refusal = iota
	RefuseKind           // float or other unindexable column kind
	RefuseKeys           // more than maxIndexKeys distinct values
	RefuseSize           // under IndexAuto, the index would outweigh its column
	RefuseBudget         // the arena could not hold the index next to its block
)

// IndexRefusalReasons names each Refusal, indexed by its value minus one:
// the reason label of the refusal counters.
var IndexRefusalReasons = [...]string{"kind", "keys", "size", "budget"}

// noKey marks a NULL row in indexPlan.ids.
const noKey = math.MaxUint16

// indexPlan is the first half of an index build: one pass maps every row
// to a dense key id, so the key set, its order and the final size are known
// before any bitmap exists. build then allocates and fills the bitmaps.
type indexPlan struct {
	b    *Block
	keys []int64 // sorted distinct keys
	dict *Dict
	// pos maps a key id to its position in keys. Ids come from ids[i]
	// (general int and string columns), v-min (int columns whose zone-map
	// range spans at most maxIndexKeys values) or 0/1 (bool columns).
	pos   []uint16
	ids   []uint16
	min   int64
	bytes int64
}

// planIndex runs the key pass of an index build. It allocates at most a
// key table and one uint16 per row, and stops at the (maxIndexKeys+1)-th
// distinct key.
func planIndex(b *Block) (*indexPlan, Refusal) {
	p := &indexPlan{b: b}
	switch b.Kind {
	case types.KindInt:
		if r := p.planInts(); r != refuseNone {
			return nil, r
		}
	case types.KindBool:
		var seen [2]bool
		for i, v := range b.Bools {
			if b.Nulls == nil || !b.Nulls[i] {
				seen[boolKey(v)] = true
			}
		}
		p.denseKeys(seen[:], 0)
	case types.KindString:
		p.dict = &Dict{codes: map[string]uint32{}}
		p.ids = make([]uint16, b.Rows)
		for i, s := range b.Strs {
			if b.Nulls != nil && b.Nulls[i] {
				p.ids[i] = noKey
				continue
			}
			code, ok := p.dict.codes[s]
			if !ok {
				if len(p.dict.strs) == maxIndexKeys {
					return nil, RefuseKeys
				}
				code = uint32(len(p.dict.strs))
				p.dict.codes[s] = code
				p.dict.strs = append(p.dict.strs, s)
			}
			p.ids[i] = uint16(code)
		}
		// Codes are the keys, in code order: ids are already positions.
		p.keys = make([]int64, len(p.dict.strs))
		p.pos = make([]uint16, len(p.dict.strs))
		for c := range p.keys {
			p.keys[c], p.pos[c] = int64(c), uint16(c)
		}
	default:
		return nil, RefuseKind
	}
	words := (b.Rows + 63) >> 6
	p.bytes = int64(len(p.keys)+1)*words*8 + int64(len(p.keys))*8
	if p.dict != nil {
		p.bytes += p.dict.bytes()
	}
	return p, refuseNone
}

func boolKey(v bool) int {
	if v {
		return 1
	}
	return 0
}

// planInts maps an int column's rows to key ids. When the zone maps say
// every value lies within maxIndexKeys of the minimum, v-min is the id and
// no per-row ids are kept; otherwise a keyTable assigns ids in order of
// first appearance.
func (p *indexPlan) planInts() Refusal {
	b := p.b
	z := b.Zones
	if z == nil {
		z = BuildZones(b)
	}
	lo, hi, found := int64(0), int64(0), false
	for zi, ok := range z.ranged {
		if !ok {
			continue
		}
		if !found || z.IMin[zi] < lo {
			lo = z.IMin[zi]
		}
		if !found || z.IMax[zi] > hi {
			hi = z.IMax[zi]
		}
		found = true
	}
	if !found {
		return refuseNone // all NULL: no keys
	}
	if uint64(hi)-uint64(lo) < maxIndexKeys {
		seen := make([]bool, uint64(hi)-uint64(lo)+1)
		for i, v := range b.Ints {
			if b.Nulls == nil || !b.Nulls[i] {
				seen[v-lo] = true
			}
		}
		p.denseKeys(seen, lo)
		return refuseNone
	}
	t := newKeyTable(b.Rows)
	p.ids = make([]uint16, b.Rows)
	for i, v := range b.Ints {
		if b.Nulls != nil && b.Nulls[i] {
			p.ids[i] = noKey
			continue
		}
		id, ok := t.id(v)
		if !ok {
			return RefuseKeys
		}
		p.ids[i] = id
	}
	p.keys = slices.Clone(t.vals)
	slices.Sort(p.keys)
	p.pos = make([]uint16, len(t.vals))
	for id, v := range t.vals {
		k, _ := slices.BinarySearch(p.keys, v)
		p.pos[id] = uint16(k)
	}
	return refuseNone
}

// denseKeys sets the keys and their positions for a column whose key id is
// its value's offset from lo; seen marks the offsets that occur.
func (p *indexPlan) denseKeys(seen []bool, lo int64) {
	p.min = lo
	p.pos = make([]uint16, len(seen))
	for off, ok := range seen {
		if ok {
			p.pos[off] = uint16(len(p.keys))
			p.keys = append(p.keys, lo+int64(off))
		}
	}
}

// keyTable assigns dense ids to int keys in order of first appearance. It
// is a linear-probing table sized once for at most maxIndexKeys+1 keys at
// no more than two-thirds load, so it never grows and a refused column
// costs one allocation.
type keyTable struct {
	slots []int64
	ids   []uint16 // id+1 of the key in the same slot; 0 marks it empty
	vals  []int64  // keys by id
	shift uint
}

func newKeyTable(rows int64) *keyTable {
	want := min(rows, maxIndexKeys+1)
	size, shift := int64(2), uint(63)
	for size < want+want/2 {
		size, shift = size<<1, shift-1
	}
	return &keyTable{slots: make([]int64, size), ids: make([]uint16, size), shift: shift}
}

// id returns k's id, adding k if it is new. ok is false when k would be
// the (maxIndexKeys+1)-th key.
func (t *keyTable) id(k int64) (id uint16, ok bool) {
	mask := len(t.slots) - 1
	for h := int((uint64(k) * 0x9E3779B97F4A7C15) >> t.shift); ; h = (h + 1) & mask {
		if t.ids[h] == 0 {
			if len(t.vals) == maxIndexKeys {
				return 0, false
			}
			t.slots[h] = k
			t.vals = append(t.vals, k)
			t.ids[h] = uint16(len(t.vals))
			return uint16(len(t.vals) - 1), true
		}
		if t.slots[h] == k {
			return t.ids[h] - 1, true
		}
	}
}

// build allocates the plan's bitmaps and fills them from the ids. Each
// bitmap is its own allocation: bitmaps carved from one shared slab built
// as fast, but made the filters that read them slower (EXPERIMENTS.md,
// "Index build").
func (p *indexPlan) build() *Index {
	b := p.b
	words := (b.Rows + 63) >> 6
	ix := &Index{Kind: b.Kind, rows: b.Rows, keys: p.keys, dict: p.dict, bytes: p.bytes,
		nonNull: NewBitmap(b.Rows), bitmaps: make([]Bitmap, len(p.keys))}
	for k := range ix.bitmaps {
		ix.bitmaps[k] = Bitmap{words: make([]uint64, words), n: b.Rows}
	}
	set := func(k uint16, i int) {
		ix.bitmaps[k].words[i>>6] |= 1 << (uint(i) & 63)
	}
	switch {
	case p.ids != nil:
		for i, id := range p.ids {
			if id != noKey {
				set(p.pos[id], i)
			}
		}
	case b.Kind == types.KindInt && len(p.keys) > 0:
		for i, v := range b.Ints {
			if b.Nulls == nil || !b.Nulls[i] {
				set(p.pos[v-p.min], i)
			}
		}
	case b.Kind == types.KindBool:
		for i, v := range b.Bools {
			if b.Nulls == nil || !b.Nulls[i] {
				set(p.pos[boolKey(v)], i)
			}
		}
	}
	if b.Nulls == nil {
		for w := range ix.nonNull.words {
			ix.nonNull.words[w] = ^uint64(0)
		}
		if tail := b.Rows & 63; tail != 0 {
			ix.nonNull.words[words-1] = 1<<uint(tail) - 1
		}
	} else {
		for i, null := range b.Nulls {
			if !null {
				ix.nonNull.Set(int64(i))
			}
		}
	}
	return ix
}

// BuildIndexFor constructs a bitmap index for a block, or returns nil when
// the column is not indexable: float columns (zone maps only — equality on
// floats is rare and range queries are served by zones) and columns with
// more than maxIndexKeys distinct values.
func BuildIndexFor(b *Block) *Index {
	p, r := planIndex(b)
	if r != refuseNone {
		return nil
	}
	return p.build()
}

// Lookup evaluates a pushed-down predicate against the index and returns
// the bitmap of matching rows (never containing a NULL row, matching SQL
// comparison semantics). ok is false when the operator or constant kind is
// not served by this index and the caller must fall back to a compare
// kernel. The returned bitmap may be shared — callers must not mutate it.
func (ix *Index) Lookup(op CmpOp, p Pred) (*Bitmap, bool) {
	switch ix.Kind {
	case types.KindInt:
		if p.Kind != types.KindInt {
			return nil, false
		}
		return ix.lookupKey(op, p.I)
	case types.KindBool:
		if p.Kind != types.KindBool || (op != CmpEq && op != CmpNe) {
			return nil, false
		}
		k := int64(0)
		if p.B {
			k = 1
		}
		return ix.lookupKey(op, k)
	case types.KindString:
		if p.Kind != types.KindString || (op != CmpEq && op != CmpNe) {
			return nil, false
		}
		code, ok := ix.dict.Code(p.S)
		if !ok {
			// The value never occurs: = matches nothing, <> matches every
			// non-null row.
			if op == CmpEq {
				return NewBitmap(ix.rows), true
			}
			return ix.nonNull, true
		}
		return ix.lookupKey(op, int64(code))
	}
	return nil, false
}

// Answers reports whether Lookup can answer op against a constant of the
// given kind: any comparison on an int index, = and <> on a bool or string
// index. It depends on no constant value, so a compiled program decides its
// bitmap paths once and binds the bitmaps per literal.
func (ix *Index) Answers(op CmpOp, kind types.Kind) bool {
	switch ix.Kind {
	case types.KindInt:
		return kind == types.KindInt
	case types.KindBool, types.KindString:
		return kind == ix.Kind && (op == CmpEq || op == CmpNe)
	}
	return false
}

// LookupAll answers the conjunction of preds, all on this index's column,
// with one bitmap. On an int index every range and equality predicate
// narrows one interval of the sorted keys and a <> predicate drops one key,
// so `v >= q AND v < q+25` ORs the bitmaps of at most 25 keys once, instead
// of once per predicate plus an AND. A single-key answer is the index's own
// bitmap; like every Lookup result it must not be modified.
func (ix *Index) LookupAll(preds []Pred) (*Bitmap, bool) {
	if len(preds) == 1 {
		return ix.Lookup(preds[0].Op, preds[0])
	}
	if ix.Kind != types.KindInt {
		var out *Bitmap
		owned := false
		for _, p := range preds {
			bm, ok := ix.Lookup(p.Op, p)
			if !ok {
				return nil, false
			}
			switch {
			case out == nil:
				out = bm
			case !owned:
				out, owned = out.Clone(), true
				fallthrough
			default:
				out.And(bm)
			}
		}
		return out, out != nil
	}
	lo, hi := 0, len(ix.keys)
	var drop []int // positions of keys a <> predicate excludes
	for _, p := range preds {
		if p.Kind != types.KindInt {
			return nil, false
		}
		pos := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= p.I })
		exact := pos < len(ix.keys) && ix.keys[pos] == p.I
		switch p.Op {
		case CmpEq:
			if !exact {
				lo, hi = 0, 0
			} else {
				lo, hi = max(lo, pos), min(hi, pos+1)
			}
		case CmpNe:
			if exact {
				drop = append(drop, pos)
			}
		case CmpLt:
			hi = min(hi, pos)
		case CmpLe:
			if exact {
				pos++
			}
			hi = min(hi, pos)
		case CmpGt:
			if exact {
				pos++
			}
			lo = max(lo, pos)
		case CmpGe:
			lo = max(lo, pos)
		default:
			return nil, false
		}
	}
	switch {
	case lo >= hi:
		return NewBitmap(ix.rows), true
	case lo == 0 && hi == len(ix.keys):
		// No range bound: every non-null row minus the dropped keys.
		out := ix.nonNull.Clone()
		for _, d := range drop {
			out.AndNot(&ix.bitmaps[d])
		}
		return out, true
	case hi-lo == 1 && !slices.Contains(drop, lo):
		return &ix.bitmaps[lo], true
	}
	out := NewBitmap(ix.rows)
	for i := lo; i < hi; i++ {
		if !slices.Contains(drop, i) {
			out.Or(&ix.bitmaps[i])
		}
	}
	return out, true
}

// Dict returns the string dictionary of a string-column index (nil for
// non-string indexes). The execution layer uses it to evaluate string
// predicates on dictionary codes instead of row values.
func (ix *Index) Dict() *Dict { return ix.dict }

// MatchStrings evaluates pred once per distinct dictionary string and ORs
// the matching codes' bitmaps: a string predicate over N rows costs
// Dict.Len() predicate calls plus word-wise ORs. The result never contains
// a NULL row. ok is false for non-string indexes.
func (ix *Index) MatchStrings(pred func(string) bool) (*Bitmap, bool) {
	if ix.Kind != types.KindString || ix.dict == nil {
		return nil, false
	}
	out := NewBitmap(ix.rows)
	// String-index keys are exactly the dictionary codes 0..Len-1 (every
	// code occurs in the column), so bitmaps[code] is the code's bitmap.
	for code, s := range ix.dict.strs {
		if pred(s) {
			out.Or(&ix.bitmaps[code])
		}
	}
	return out, true
}

func (ix *Index) lookupKey(op CmpOp, k int64) (*Bitmap, bool) {
	pos := sort.Search(len(ix.keys), func(i int) bool { return ix.keys[i] >= k })
	exact := pos < len(ix.keys) && ix.keys[pos] == k
	switch op {
	case CmpEq:
		if !exact {
			return NewBitmap(ix.rows), true
		}
		return &ix.bitmaps[pos], true
	case CmpNe:
		out := ix.nonNull.Clone()
		if exact {
			out.AndNot(&ix.bitmaps[pos])
		}
		return out, true
	case CmpLt:
		return ix.orRange(0, pos), true
	case CmpLe:
		if exact {
			pos++
		}
		return ix.orRange(0, pos), true
	case CmpGt:
		if exact {
			pos++
		}
		return ix.orRange(pos, len(ix.keys)), true
	case CmpGe:
		return ix.orRange(pos, len(ix.keys)), true
	}
	return nil, false
}

func (ix *Index) orRange(lo, hi int) *Bitmap {
	out := NewBitmap(ix.rows)
	for i := lo; i < hi; i++ {
		out.Or(&ix.bitmaps[i])
	}
	return out
}

// indexCand tracks one column the compiler has seen pushed-down predicates
// for: the latest selectivity estimate and how many scans have actually
// run against it (the observed half of the adaptive decision).
type indexCand struct {
	dataset, key string
	scans        int64
	estSel       float64
}

// NotePredicate records, at plan-compile time, that a pushed-down
// comparison targets a cached column, together with the optimizer's
// selectivity estimate. Under IndexOn the column's index is built
// immediately (if the block exists); under IndexAuto it becomes a
// candidate that CreditScan promotes once hot.
func (m *Manager) NotePredicate(dataset, key string, estSel float64) {
	if !m.Enabled() || m.Indexes == IndexOff {
		return
	}
	if math.IsNaN(estSel) {
		estSel = 1
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := blockKey(dataset, key)
	c := m.cands[k]
	if c == nil {
		c = &indexCand{dataset: dataset, key: key, estSel: estSel}
		m.cands[k] = c
	} else {
		c.estSel = estSel
	}
	if m.Indexes == IndexOn || (c.scans >= hotScanThreshold && c.estSel <= maxIndexSelectivity) {
		m.ensureIndexLocked(k)
	}
}

// CreditScan records, at run time, one scan of a cached column that a
// pushed-down predicate targets. Crossing the hot threshold (under
// IndexAuto, with a selective-enough estimate) builds the bitmap index and
// bumps the cache epoch so cached plans recompile against it.
func (m *Manager) CreditScan(dataset, key string) {
	if !m.Enabled() || m.Indexes == IndexOff {
		return
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := blockKey(dataset, key)
	c := m.cands[k]
	if c == nil {
		return
	}
	c.scans++
	if m.Indexes == IndexOn || (c.scans >= hotScanThreshold && c.estSel <= maxIndexSelectivity) {
		m.ensureIndexLocked(k)
	}
}

// ensureIndexLocked builds and publishes the bitmap index for a block if
// it exists, is complete, has none yet, has not been refused one, and its
// memory can be reserved. The key pass runs first, so a refusal allocates
// no bitmap; a refusal the block's contents decide is remembered on the
// block, so a replacement block starts clean. The caller holds m.mu.
func (m *Manager) ensureIndexLocked(k string) {
	b := m.blocks[k]
	if b == nil || !b.Complete || b.Index() != nil || b.idxRefused != refuseNone {
		return
	}
	start := time.Now()
	defer func() { m.idxBuildNanos.Add(time.Since(start).Nanoseconds()) }()
	p, r := planIndex(b)
	if r == refuseNone && m.Indexes == IndexAuto && p.bytes > b.Bytes() {
		r = RefuseSize
	}
	if r != refuseNone {
		b.idxRefused = r
		m.idxRefusals[r-1].Add(1)
		return
	}
	if !m.reserve(p.bytes, b) {
		m.idxRefusals[RefuseBudget-1].Add(1)
		return
	}
	b.idx.Store(p.build())
	m.idxBuilds.Add(1)
	m.epoch.Add(1)
}

// CountZoneSkips credits n windows skipped via zone maps.
func (m *Manager) CountZoneSkips(n int64) {
	if m != nil && n > 0 {
		m.zoneSkips.Add(n)
	}
}

// CountIndexHit credits one batch served from a bitmap index.
func (m *Manager) CountIndexHit() {
	if m != nil {
		m.idxHits.Add(1)
	}
}
