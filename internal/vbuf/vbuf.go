// Package vbuf implements the "virtual memory buffers" of the paper (§5.1):
// a small register file of typed slots that the compiled query code reads
// and writes. Scan code (generated by input plug-ins) places the fields a
// query needs into slots; operator and expression closures reference slots
// directly, so values flow through the pipeline without boxing, exactly like
// the stack-frame locals that LLVM promotes to CPU registers in Proteus.
package vbuf

import "proteus/internal/types"

// Class partitions slots by their physical representation.
type Class uint8

// Slot classes.
const (
	ClassInt Class = iota
	ClassFloat
	ClassBool
	ClassString
	ClassValue // boxed fallback for nested values (records, collections)
)

// Slot identifies one typed register. Null is the index of the slot's
// null-flag; outer joins and outer unnests set it.
type Slot struct {
	Class Class
	Idx   int
	Null  int
}

// Alloc hands out slot indices during plan compilation.
type Alloc struct {
	nInt, nFloat, nBool, nString, nValue, nNull int
}

// Int allocates an int64 slot.
func (a *Alloc) Int() Slot {
	s := Slot{Class: ClassInt, Idx: a.nInt, Null: a.nNull}
	a.nInt++
	a.nNull++
	return s
}

// Float allocates a float64 slot.
func (a *Alloc) Float() Slot {
	s := Slot{Class: ClassFloat, Idx: a.nFloat, Null: a.nNull}
	a.nFloat++
	a.nNull++
	return s
}

// Bool allocates a bool slot.
func (a *Alloc) Bool() Slot {
	s := Slot{Class: ClassBool, Idx: a.nBool, Null: a.nNull}
	a.nBool++
	a.nNull++
	return s
}

// String allocates a string slot.
func (a *Alloc) String() Slot {
	s := Slot{Class: ClassString, Idx: a.nString, Null: a.nNull}
	a.nString++
	a.nNull++
	return s
}

// Value allocates a boxed value slot.
func (a *Alloc) Value() Slot {
	s := Slot{Class: ClassValue, Idx: a.nValue, Null: a.nNull}
	a.nValue++
	a.nNull++
	return s
}

// ForType allocates a slot whose class matches the given type.
func (a *Alloc) ForType(t types.Type) Slot {
	switch t.Kind() {
	case types.KindInt:
		return a.Int()
	case types.KindFloat:
		return a.Float()
	case types.KindBool:
		return a.Bool()
	case types.KindString:
		return a.String()
	default:
		return a.Value()
	}
}

// Regs is the register file a compiled query executes against. One Regs is
// created per query execution from the final Alloc counts.
type Regs struct {
	I    []int64
	F    []float64
	B    []bool
	S    []string
	V    []types.Value
	Null []bool
}

// NewRegs creates a register file sized for the allocator's slot counts.
func NewRegs(a *Alloc) *Regs {
	return &Regs{
		I:    make([]int64, a.nInt),
		F:    make([]float64, a.nFloat),
		B:    make([]bool, a.nBool),
		S:    make([]string, a.nString),
		V:    make([]types.Value, a.nValue),
		Null: make([]bool, a.nNull),
	}
}

// Get boxes the slot's current content into a types.Value (slow path, used
// only when materializing nested output or boxed caches).
func (r *Regs) Get(s Slot) types.Value {
	if r.Null[s.Null] {
		return types.NullValue()
	}
	switch s.Class {
	case ClassInt:
		return types.IntValue(r.I[s.Idx])
	case ClassFloat:
		return types.FloatValue(r.F[s.Idx])
	case ClassBool:
		return types.BoolValue(r.B[s.Idx])
	case ClassString:
		return types.StringValue(r.S[s.Idx])
	default:
		return r.V[s.Idx]
	}
}

// Set unboxes a types.Value into the slot (slow path counterpart of Get).
func (r *Regs) Set(s Slot, v types.Value) {
	if v.IsNull() {
		r.Null[s.Null] = true
		return
	}
	r.Null[s.Null] = false
	switch s.Class {
	case ClassInt:
		r.I[s.Idx] = v.AsInt()
	case ClassFloat:
		r.F[s.Idx] = v.AsFloat()
	case ClassBool:
		r.B[s.Idx] = v.Bool()
	case ClassString:
		r.S[s.Idx] = v.S
	default:
		r.V[s.Idx] = v
	}
}

// BatchSize is the number of rows a vectorized batch carries. It matches
// plugin.CancelStride so one cancellation poll per batch preserves the
// tuple path's poll granularity, and it is small enough that a batch's
// working set (a handful of columns) stays L1/L2-resident.
const BatchSize = 1024

// Batch is the vectorized counterpart of Regs: instead of one value per
// slot it carries a column of up to BatchSize values per slot, plus a
// per-slot null column and a selection vector listing the rows that are
// still alive after filtering. Kernel closures loop over columns instead
// of being invoked once per tuple — the block-at-a-time half of the hybrid
// engine (Kashuba & Mühleisen).
type Batch struct {
	N    int     // rows loaded in this batch (selection indexes < N)
	Base int64   // ordinal of row 0 within the scan (OID base)
	Sel  []int32 // indices of surviving rows, in row order

	// Columns, indexed [slot.Idx][row]. A scan may alias these directly at
	// cached columnar storage (zero copy) or fill them by parsing.
	I [][]int64
	F [][]float64
	B [][]bool
	S [][]string

	// Null columns, indexed [slot.Null][row]. A nil column means every row
	// of that slot is valid — the common case, kept nil so kernels can skip
	// null merging entirely.
	Null [][]bool

	ident  []int32 // 0..BatchSize-1; never mutated after construction
	selBuf []int32 // scratch the first filter compacts into
}

// NewBatch creates a batch sized for the allocator's slot counts. Column
// backing arrays are allocated lazily by producers (Alias/Col), so slots
// that belong to other scans in the same program cost nothing.
func NewBatch(a *Alloc) *Batch {
	b := &Batch{
		I:      make([][]int64, a.nInt),
		F:      make([][]float64, a.nFloat),
		B:      make([][]bool, a.nBool),
		S:      make([][]string, a.nString),
		Null:   make([][]bool, a.nNull),
		ident:  make([]int32, BatchSize),
		selBuf: make([]int32, BatchSize),
	}
	for i := range b.ident {
		b.ident[i] = int32(i)
	}
	return b
}

// ResetSel points the selection vector at the identity prefix for n rows.
// Scan producers call it once per batch after filling columns. The identity
// array is shared and never compacted in place: the first filter kernel
// writes survivors into SelScratch instead.
func (b *Batch) ResetSel(n int) {
	b.N = n
	b.Sel = b.ident[:n]
}

// SelScratch returns the writable selection buffer. Filter kernels compact
// into it; once Sel aliases it, further filters may compact Sel in place
// (the write index never passes the read index).
func (b *Batch) SelScratch() []int32 { return b.selBuf }

// FullSel reports whether every loaded row is still selected. Selection
// vectors are strictly increasing subsets of 0..N-1, so a full-length
// selection is necessarily the identity — kernels that can produce their
// selection wholesale (e.g. a bitmap-index gather) use this to take the
// direct path instead of filtering the previous selection.
func (b *Batch) FullSel() bool { return len(b.Sel) == b.N }

// SetOIDs fills slot s with the row ordinals lo..hi-1, all valid: the OID
// column of a scan batch. It writes eight lanes per iteration; with one
// store per iteration the loop ran 1.7× slower or faster depending only on
// where the linker placed it.
func (b *Batch) SetOIDs(s Slot, lo, hi int64) {
	col := b.Ints(s.Idx)[:hi-lo]
	j := 0
	for ; j+8 <= len(col); j += 8 {
		c := col[j : j+8 : j+8]
		v := lo + int64(j)
		c[0], c[1], c[2], c[3], c[4], c[5], c[6], c[7] = v, v+1, v+2, v+3, v+4, v+5, v+6, v+7
	}
	for ; j < len(col); j++ {
		col[j] = lo + int64(j)
	}
	b.Null[s.Null] = nil
}

// Ints returns the int column for a slot, allocating backing on first use.
func (b *Batch) Ints(idx int) []int64 {
	if b.I[idx] == nil || cap(b.I[idx]) < BatchSize {
		b.I[idx] = make([]int64, BatchSize)
	}
	return b.I[idx][:BatchSize]
}

// Floats returns the float column for a slot, allocating on first use.
func (b *Batch) Floats(idx int) []float64 {
	if b.F[idx] == nil || cap(b.F[idx]) < BatchSize {
		b.F[idx] = make([]float64, BatchSize)
	}
	return b.F[idx][:BatchSize]
}

// Bools returns the bool column for a slot, allocating on first use.
func (b *Batch) Bools(idx int) []bool {
	if b.B[idx] == nil || cap(b.B[idx]) < BatchSize {
		b.B[idx] = make([]bool, BatchSize)
	}
	return b.B[idx][:BatchSize]
}

// Strs returns the string column for a slot, allocating on first use.
func (b *Batch) Strs(idx int) []string {
	if b.S[idx] == nil || cap(b.S[idx]) < BatchSize {
		b.S[idx] = make([]string, BatchSize)
	}
	return b.S[idx][:BatchSize]
}

// Nulls returns the null column for a null index, allocating on first use.
// Producers that have no nulls should instead SetNullCol(idx, nil).
func (b *Batch) Nulls(idx int) []bool {
	if b.Null[idx] == nil || cap(b.Null[idx]) < BatchSize {
		b.Null[idx] = make([]bool, BatchSize)
	}
	return b.Null[idx][:BatchSize]
}

// SetNull marks the slot null.
func (r *Regs) SetNull(s Slot) { r.Null[s.Null] = true }

// ClearNull marks the slot non-null (call after writing the typed array).
func (r *Regs) ClearNull(s Slot) { r.Null[s.Null] = false }

// IsNull reports whether the slot currently holds null.
func (r *Regs) IsNull(s Slot) bool { return r.Null[s.Null] }
