package cache

import (
	"fmt"
	"sync"
	"testing"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// TestManagerConcurrentAccess hammers every Manager entry point from many
// goroutines; run under -race it proves the enabled flag, the counters, and
// Block.Bytes carry no data races.
func TestManagerConcurrentAccess(t *testing.T) {
	m := NewManager(storage.NewManager(0), true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 200; i++ {
				key := fmt.Sprintf("col%d", i%10)
				switch i % 6 {
				case 0:
					m.Register(intBlock("ds", key, 16, 14))
				case 1:
					if b, ok := m.Lookup("ds", key); ok {
						_ = b.Bytes()
					}
				case 2:
					m.Has("ds", key)
				case 3:
					m.SetEnabled(i%2 == 0)
					m.SetEnabled(true)
				case 4:
					_ = m.Snapshot()
					_ = m.BytesForDataset("ds")
				case 5:
					m.ShouldCache(14, types.KindInt)
				}
			}
		}(w)
	}
	wg.Wait()
	if s := m.Snapshot(); s.Hits+s.Misses == 0 {
		t.Errorf("expected lookups to be counted, snapshot = %+v", s)
	}
}

// TestConcurrentIndexAttempts drives index promotion, refusal and
// replacement from many goroutines over a small arena: refused columns are
// attempted once per block, buildable ones get one index, and under -race
// the per-block memo and the reserve path show no data race.
func TestConcurrentIndexAttempts(t *testing.T) {
	m := NewManager(storage.NewManager(64<<10), true)
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 300; i++ {
				switch i % 5 {
				case 0:
					if w == 0 && i%60 == 0 {
						m.Register(intBlock("d", "distinct", 64, 1)) // replaces the refused block
					}
					m.NotePredicate("d", "distinct", 0.1)
				case 1:
					m.CreditScan("d", "distinct")
				case 2:
					if w == 1 && i%60 == 2 {
						m.Register(repeatedIntBlock("rep", 512, 8))
					}
					m.NotePredicate("d", "rep", 0.1)
				case 3:
					m.CreditScan("d", "rep")
				case 4:
					_ = m.Snapshot()
				}
			}
		}(w)
	}
	wg.Wait()
	s := m.Snapshot()
	if s.Refused(RefuseSize) == 0 || s.Refused(RefuseSize) > 5 {
		t.Errorf("size refusals = %d, want one per registered block (at most 5)", s.Refused(RefuseSize))
	}
	if s.IndexBuilds == 0 || s.IndexBuilds > 5 {
		t.Errorf("index builds = %d, want one per registered block (at most 5)", s.IndexBuilds)
	}
}

func TestConcatBlocks(t *testing.T) {
	a := &Block{Dataset: "ds", Key: "x", Kind: types.KindInt, FormatBias: 4,
		Ints: []int64{1, 2, 3}, Rows: 3}
	b := &Block{Dataset: "ds", Key: "x", Kind: types.KindInt, FormatBias: 4,
		Ints: []int64{4, 5}, Nulls: []bool{false, true}, Rows: 2}
	out := ConcatBlocks([]*Block{a, b})
	if out.Rows != 5 || len(out.Ints) != 5 {
		t.Fatalf("rows = %d ints = %d, want 5/5", out.Rows, len(out.Ints))
	}
	// One fragment had nulls, so the merged column must carry a full-length
	// null vector with the null-free fragment widened to all-false.
	want := []bool{false, false, false, false, true}
	if len(out.Nulls) != len(want) {
		t.Fatalf("nulls = %v, want %v", out.Nulls, want)
	}
	for i := range want {
		if out.Nulls[i] != want[i] {
			t.Fatalf("nulls = %v, want %v", out.Nulls, want)
		}
	}
	if out.Complete {
		t.Error("ConcatBlocks must leave Complete to the caller")
	}

	c := &Block{Dataset: "ds", Key: "y", Kind: types.KindInt, Ints: []int64{7}, Rows: 1}
	if out := ConcatBlocks([]*Block{c}); out.Nulls != nil {
		t.Errorf("null-free fragments must stay null-free, got %v", out.Nulls)
	}
	if ConcatBlocks(nil) != nil {
		t.Error("ConcatBlocks(nil) should be nil")
	}
}

// TestBlockBytesMemo verifies the memoization contract: a growing (incomplete)
// builder block recomputes its footprint on every call, while a Complete
// block — immutable by contract — memoizes it via an atomic, so sharing the
// block across workers stays race-free.
func TestBlockBytesMemo(t *testing.T) {
	b := intBlock("ds", "col", 8, 14)
	b.Complete = false
	n1 := b.Bytes()
	b.Ints = append(b.Ints, 99)
	b.Rows++
	n2 := b.Bytes()
	if n2 <= n1 {
		t.Errorf("Bytes after growth = %d, want > %d", n2, n1)
	}
	b.Complete = true
	if got := b.Bytes(); got != n2 {
		t.Errorf("Bytes after Complete = %d, want %d", got, n2)
	}
	var wg sync.WaitGroup
	for range 4 {
		wg.Add(1)
		go func() {
			defer wg.Done()
			if got := b.Bytes(); got != n2 {
				t.Errorf("concurrent Bytes = %d, want %d", got, n2)
			}
		}()
	}
	wg.Wait()
}
