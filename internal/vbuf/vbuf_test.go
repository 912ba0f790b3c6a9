package vbuf

import (
	"testing"

	"proteus/internal/types"
)

func TestAllocAssignsDistinctSlots(t *testing.T) {
	var a Alloc
	s1 := a.Int()
	s2 := a.Int()
	s3 := a.Float()
	if s1.Idx == s2.Idx {
		t.Error("two int slots share an index")
	}
	if s1.Null == s2.Null || s2.Null == s3.Null {
		t.Error("null indexes must be unique across all slots")
	}
	if s3.Class != ClassFloat {
		t.Error("wrong class")
	}
}

func TestForType(t *testing.T) {
	var a Alloc
	cases := map[types.Type]Class{
		types.Int:                    ClassInt,
		types.Float:                  ClassFloat,
		types.Bool:                   ClassBool,
		types.String:                 ClassString,
		types.NewListType(types.Int): ClassValue,
		types.NewRecordType():        ClassValue,
	}
	for typ, class := range cases {
		if s := a.ForType(typ); s.Class != class {
			t.Errorf("ForType(%s) class = %d, want %d", typ, s.Class, class)
		}
	}
}

func TestRegsGetSetRoundtrip(t *testing.T) {
	var a Alloc
	slots := []Slot{a.Int(), a.Float(), a.Bool(), a.String(), a.Value()}
	vals := []types.Value{
		types.IntValue(-9),
		types.FloatValue(2.5),
		types.BoolValue(true),
		types.StringValue("hi"),
		types.ListValue(types.IntValue(1)),
	}
	r := NewRegs(&a)
	for i, s := range slots {
		r.Set(s, vals[i])
		got := r.Get(s)
		if types.Compare(got, vals[i]) != 0 {
			t.Errorf("slot %d roundtrip: %s != %s", i, got, vals[i])
		}
		if r.IsNull(s) {
			t.Errorf("slot %d should not be null", i)
		}
	}
	// Null handling.
	r.Set(slots[0], types.NullValue())
	if !r.IsNull(slots[0]) || !r.Get(slots[0]).IsNull() {
		t.Error("null set/get broken")
	}
	r.ClearNull(slots[0])
	if r.IsNull(slots[0]) {
		t.Error("ClearNull broken")
	}
	r.SetNull(slots[1])
	if !r.Get(slots[1]).IsNull() {
		t.Error("SetNull broken")
	}
}

func TestRegsSizedToAlloc(t *testing.T) {
	var a Alloc
	a.Int()
	a.Int()
	a.String()
	r := NewRegs(&a)
	if len(r.I) != 2 || len(r.S) != 1 || len(r.F) != 0 || len(r.Null) != 3 {
		t.Errorf("regs sizes: I=%d S=%d F=%d Null=%d", len(r.I), len(r.S), len(r.F), len(r.Null))
	}
}

func TestBatchLazyColumns(t *testing.T) {
	var a Alloc
	i0, f0, s0 := a.Int(), a.Float(), a.String()
	b := NewBatch(&a)
	if b.I[i0.Idx] != nil || b.F[f0.Idx] != nil || b.S[s0.Idx] != nil {
		t.Fatal("columns allocated eagerly")
	}
	ints := b.Ints(i0.Idx)
	if len(ints) != BatchSize {
		t.Fatalf("int column len = %d, want %d", len(ints), BatchSize)
	}
	// Second call returns the same backing array.
	ints[3] = 42
	if again := b.Ints(i0.Idx); again[3] != 42 {
		t.Error("Ints reallocated on second call")
	}
	if b.F[f0.Idx] != nil {
		t.Error("untouched float column was allocated")
	}
	if nulls := b.Nulls(i0.Null); len(nulls) != BatchSize {
		t.Errorf("null column len = %d", len(nulls))
	}
}

func TestBatchSelectionDiscipline(t *testing.T) {
	var a Alloc
	s := a.Int()
	b := NewBatch(&a)
	col := b.Ints(s.Idx)
	for i := 0; i < 10; i++ {
		col[i] = int64(i)
	}
	b.ResetSel(10)
	if b.N != 10 || len(b.Sel) != 10 || b.Sel[0] != 0 || b.Sel[9] != 9 {
		t.Fatalf("identity selection wrong: N=%d Sel=%v", b.N, b.Sel)
	}

	// First filter (keep evens) writes survivors into the scratch buffer,
	// leaving the shared identity array untouched.
	out := b.SelScratch()
	n := 0
	for _, j := range b.Sel {
		if col[j]%2 == 0 {
			out[n] = j
			n++
		}
	}
	b.Sel = out[:n]
	if want := []int32{0, 2, 4, 6, 8}; len(b.Sel) != len(want) {
		t.Fatalf("Sel = %v, want %v", b.Sel, want)
	}

	// Second filter compacts Sel in place (write index never passes read).
	m := 0
	for _, j := range b.Sel {
		if col[j] >= 4 {
			b.Sel[m] = j
			m++
		}
	}
	b.Sel = b.Sel[:m]
	if len(b.Sel) != 3 || b.Sel[0] != 4 || b.Sel[2] != 8 {
		t.Fatalf("in-place compaction: Sel = %v", b.Sel)
	}

	// ResetSel restores the pristine identity prefix for the next batch.
	b.ResetSel(6)
	for i, j := range b.Sel {
		if int32(i) != j {
			t.Fatalf("identity corrupted at %d: %v", i, b.Sel)
		}
	}
}

func TestSetOIDs(t *testing.T) {
	var a Alloc
	s := a.Int()
	b := NewBatch(&a)
	for _, n := range []int64{0, 1, 7, 8, 9, 1023, BatchSize} {
		b.Null[s.Null] = make([]bool, BatchSize)
		b.SetOIDs(s, 5000, 5000+n)
		col := b.Ints(s.Idx)
		for j := int64(0); j < n; j++ {
			if col[j] != 5000+j {
				t.Fatalf("n=%d: col[%d] = %d, want %d", n, j, col[j], 5000+j)
			}
		}
		if b.Null[s.Null] != nil {
			t.Fatalf("n=%d: OIDs left a null column", n)
		}
	}
}
