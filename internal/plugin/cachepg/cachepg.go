// Package cachepg is the cache input plug-in (§6 "Implementation"): once
// the Caching Manager has materialized a cache block, the engine treats it
// as just another input dataset, and this plug-in supplies the compiled
// access code for it — plain typed-array reads, the cheapest access path of
// all (the cache is already binary and dense).
package cachepg

import (
	"fmt"

	"proteus/internal/cache"
	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Loader fills one slot from a cache block at a row ordinal.
type Loader func(regs *vbuf.Regs, row int64)

// CompileLoader returns the specialized per-row read for a block into a
// slot. The block's kind must match the slot's class.
func CompileLoader(b *cache.Block, slot vbuf.Slot) (Loader, error) {
	nulls := b.Nulls
	switch b.Kind {
	case types.KindInt:
		if slot.Class != vbuf.ClassInt {
			return nil, fmt.Errorf("cachepg: block %q holds ints but slot wants class %d", b.Key, slot.Class)
		}
		col := b.Ints
		if nulls == nil {
			return func(regs *vbuf.Regs, row int64) {
				regs.I[slot.Idx] = col[row]
				regs.Null[slot.Null] = false
			}, nil
		}
		return func(regs *vbuf.Regs, row int64) {
			regs.I[slot.Idx] = col[row]
			regs.Null[slot.Null] = nulls[row]
		}, nil
	case types.KindFloat:
		if slot.Class != vbuf.ClassFloat {
			return nil, fmt.Errorf("cachepg: block %q holds floats but slot wants class %d", b.Key, slot.Class)
		}
		col := b.Floats
		if nulls == nil {
			return func(regs *vbuf.Regs, row int64) {
				regs.F[slot.Idx] = col[row]
				regs.Null[slot.Null] = false
			}, nil
		}
		return func(regs *vbuf.Regs, row int64) {
			regs.F[slot.Idx] = col[row]
			regs.Null[slot.Null] = nulls[row]
		}, nil
	case types.KindBool:
		if slot.Class != vbuf.ClassBool {
			return nil, fmt.Errorf("cachepg: block %q holds bools but slot wants class %d", b.Key, slot.Class)
		}
		col := b.Bools
		if nulls == nil {
			return func(regs *vbuf.Regs, row int64) {
				regs.B[slot.Idx] = col[row]
				regs.Null[slot.Null] = false
			}, nil
		}
		return func(regs *vbuf.Regs, row int64) {
			regs.B[slot.Idx] = col[row]
			regs.Null[slot.Null] = nulls[row]
		}, nil
	case types.KindString:
		if slot.Class != vbuf.ClassString {
			return nil, fmt.Errorf("cachepg: block %q holds strings but slot wants class %d", b.Key, slot.Class)
		}
		col := b.Strs
		if nulls == nil {
			return func(regs *vbuf.Regs, row int64) {
				regs.S[slot.Idx] = col[row]
				regs.Null[slot.Null] = false
			}, nil
		}
		return func(regs *vbuf.Regs, row int64) {
			regs.S[slot.Idx] = col[row]
			regs.Null[slot.Null] = nulls[row]
		}, nil
	}
	return nil, fmt.Errorf("cachepg: unsupported block kind %s", b.Kind)
}

// CompileScan returns a scan driver over cache blocks when *every* field a
// scan needs is cached: the original dataset is not touched at all. A
// non-nil morsel restricts the driver to [Start, End); prof, when set,
// receives the block access counters once per invocation (every read is an
// "index hit" — the cache block is a positional index by construction).
// The driver polls cc between batches of plugin.CancelStride rows. A
// non-nil skip callback (built from the blocks' zone maps and the scan's
// pushed-down predicates) lets the driver drop whole stride windows whose
// value ranges cannot satisfy the query.
func CompileScan(rows int64, loaders []Loader, oid *vbuf.Slot, morsel *plugin.Morsel, prof *plugin.ScanProf, cc *plugin.Cancel, skip func(lo, hi int64) bool) plugin.RunFunc {
	lo, hi := int64(0), rows
	if morsel != nil {
		if lo = morsel.Start; lo < 0 {
			lo = 0
		}
		if hi = morsel.End; hi > rows {
			hi = rows
		}
	}
	run := plugin.RunFunc(func(regs *vbuf.Regs, consume func() error) error {
		for blk := lo; blk < hi; blk += plugin.CancelStride {
			if cc.Cancelled() {
				return cc.Err()
			}
			blkEnd := blk + plugin.CancelStride
			if blkEnd > hi {
				blkEnd = hi
			}
			if skip != nil && skip(blk, blkEnd) {
				continue
			}
			for row := blk; row < blkEnd; row++ {
				if oid != nil {
					regs.I[oid.Idx] = row
					regs.Null[oid.Null] = false
				}
				for _, ld := range loaders {
					ld(regs, row)
				}
				if err := consume(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	n := hi - lo
	if n < 0 {
		n = 0
	}
	fields := n * int64(len(loaders))
	return prof.WrapRun(run, fields*8, fields, fields)
}

// BatchLoader views one slot's column of a cache block into a batch for
// the row range [lo, hi) — a slice re-view, not a copy.
type BatchLoader func(b *vbuf.Batch, lo, hi int64)

// CompileBatchLoader returns the zero-copy batch read for a block into a
// slot: the batch column aliases the block's typed array directly. Blocks
// are immutable once Complete, so sharing the backing arrays is safe.
func CompileBatchLoader(blk *cache.Block, slot vbuf.Slot) (BatchLoader, error) {
	nulls := blk.Nulls
	nullIdx := slot.Null
	setNulls := func(b *vbuf.Batch, lo, hi int64) {
		if nulls == nil {
			b.Null[nullIdx] = nil
		} else {
			b.Null[nullIdx] = nulls[lo:hi]
		}
	}
	switch blk.Kind {
	case types.KindInt:
		if slot.Class != vbuf.ClassInt {
			return nil, fmt.Errorf("cachepg: block %q holds ints but slot wants class %d", blk.Key, slot.Class)
		}
		col := blk.Ints
		return func(b *vbuf.Batch, lo, hi int64) {
			b.I[slot.Idx] = col[lo:hi]
			setNulls(b, lo, hi)
		}, nil
	case types.KindFloat:
		if slot.Class != vbuf.ClassFloat {
			return nil, fmt.Errorf("cachepg: block %q holds floats but slot wants class %d", blk.Key, slot.Class)
		}
		col := blk.Floats
		return func(b *vbuf.Batch, lo, hi int64) {
			b.F[slot.Idx] = col[lo:hi]
			setNulls(b, lo, hi)
		}, nil
	case types.KindBool:
		if slot.Class != vbuf.ClassBool {
			return nil, fmt.Errorf("cachepg: block %q holds bools but slot wants class %d", blk.Key, slot.Class)
		}
		col := blk.Bools
		return func(b *vbuf.Batch, lo, hi int64) {
			b.B[slot.Idx] = col[lo:hi]
			setNulls(b, lo, hi)
		}, nil
	case types.KindString:
		if slot.Class != vbuf.ClassString {
			return nil, fmt.Errorf("cachepg: block %q holds strings but slot wants class %d", blk.Key, slot.Class)
		}
		col := blk.Strs
		return func(b *vbuf.Batch, lo, hi int64) {
			b.S[slot.Idx] = col[lo:hi]
			setNulls(b, lo, hi)
		}, nil
	}
	return nil, fmt.Errorf("cachepg: unsupported block kind %s", blk.Kind)
}

// CompileBatchScan returns the vectorized scan driver over cache blocks:
// each batch is a window of vbuf.BatchSize rows whose columns alias the
// blocks' typed arrays — the cheapest batch producer in the system. The
// driver polls cc once per batch (same granularity as the tuple driver's
// CancelStride, since vbuf.BatchSize == plugin.CancelStride). A non-nil
// skip callback drops whole batch windows the blocks' zone maps prove
// cannot satisfy the scan's pushed-down predicates — one batch is exactly
// one zone (vbuf.BatchSize == cache.ZoneSize).
func CompileBatchScan(rows int64, loaders []BatchLoader, oid *vbuf.Slot, morsel *plugin.Morsel, prof *plugin.ScanProf, cc *plugin.Cancel, skip func(lo, hi int64) bool) plugin.BatchRunFunc {
	lo, hi := int64(0), rows
	if morsel != nil {
		if lo = morsel.Start; lo < 0 {
			lo = 0
		}
		if hi = morsel.End; hi > rows {
			hi = rows
		}
	}
	run := plugin.BatchRunFunc(func(_ *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
		for blk := lo; blk < hi; blk += vbuf.BatchSize {
			if cc.Cancelled() {
				return cc.Err()
			}
			blkEnd := blk + vbuf.BatchSize
			if blkEnd > hi {
				blkEnd = hi
			}
			if skip != nil && skip(blk, blkEnd) {
				continue
			}
			for _, ld := range loaders {
				ld(b, blk, blkEnd)
			}
			b.Base = blk
			if oid != nil {
				b.SetOIDs(*oid, blk, blkEnd)
			}
			b.ResetSel(int(blkEnd - blk))
			if err := consume(); err != nil {
				return err
			}
		}
		return nil
	})
	if prof != nil {
		n := hi - lo
		if n < 0 {
			n = 0
		}
		fields := n * int64(len(loaders))
		inner := run
		run = func(regs *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
			prof.BytesRead += fields * 8
			prof.FieldsParsed += fields
			prof.IndexHits += fields
			return inner(regs, b, consume)
		}
	}
	return run
}

// Builder accumulates one column during a scan (the output plug-in side of
// §6: "an expression generator produces code which evaluates the expression
// to be cached and places the result in a consecutive memory block").
type Builder struct {
	Block   *cache.Block
	slot    vbuf.Slot
	hasNull bool
}

// NewBuilder prepares a builder that snapshots slot values per row.
func NewBuilder(dataset, key string, kind types.Kind, formatBias float64, slot vbuf.Slot, capacity int64) *Builder {
	return &Builder{
		Block: &cache.Block{
			Dataset:    dataset,
			Key:        key,
			Kind:       kind,
			FormatBias: formatBias,
		},
		slot: slot,
	}
}

// Reset discards any partially accumulated column so the builder can start
// over — called at scan-run start, because a compiled program may be run
// repeatedly and each run must produce a fresh block.
func (b *Builder) Reset() {
	old := b.Block
	b.Block = &cache.Block{
		Dataset:    old.Dataset,
		Key:        old.Key,
		Kind:       old.Kind,
		FormatBias: old.FormatBias,
	}
	b.hasNull = false
}

// Append records the slot's current value.
func (b *Builder) Append(regs *vbuf.Regs) {
	null := regs.Null[b.slot.Null]
	if null {
		b.hasNull = true
	}
	if b.Block.Nulls != nil || b.hasNull {
		if b.Block.Nulls == nil {
			b.Block.Nulls = make([]bool, b.Block.Rows)
		}
		b.Block.Nulls = append(b.Block.Nulls, null)
	}
	switch b.Block.Kind {
	case types.KindInt:
		b.Block.Ints = append(b.Block.Ints, regs.I[b.slot.Idx])
	case types.KindFloat:
		b.Block.Floats = append(b.Block.Floats, regs.F[b.slot.Idx])
	case types.KindBool:
		b.Block.Bools = append(b.Block.Bools, regs.B[b.slot.Idx])
	case types.KindString:
		b.Block.Strs = append(b.Block.Strs, regs.S[b.slot.Idx])
	}
	b.Block.Rows++
}

// AppendBatch records every loaded row of a batch (pre-filter: cache
// population must see all rows, exactly like the tuple path, where the
// builder wraps consume before the filters run).
func (b *Builder) AppendBatch(batch *vbuf.Batch) {
	n := batch.N
	if n == 0 {
		return
	}
	var nulls []bool
	if b.slot.Null < len(batch.Null) {
		nulls = batch.Null[b.slot.Null]
	}
	if nulls != nil && !b.hasNull {
		for j := 0; j < n; j++ {
			if nulls[j] {
				b.hasNull = true
				break
			}
		}
	}
	if b.Block.Nulls != nil || b.hasNull {
		if b.Block.Nulls == nil {
			b.Block.Nulls = make([]bool, b.Block.Rows)
		}
		if nulls != nil {
			b.Block.Nulls = append(b.Block.Nulls, nulls[:n]...)
		} else {
			b.Block.Nulls = append(b.Block.Nulls, make([]bool, n)...)
		}
	}
	switch b.Block.Kind {
	case types.KindInt:
		b.Block.Ints = append(b.Block.Ints, batch.I[b.slot.Idx][:n]...)
	case types.KindFloat:
		b.Block.Floats = append(b.Block.Floats, batch.F[b.slot.Idx][:n]...)
	case types.KindBool:
		b.Block.Bools = append(b.Block.Bools, batch.B[b.slot.Idx][:n]...)
	case types.KindString:
		b.Block.Strs = append(b.Block.Strs, batch.S[b.slot.Idx][:n]...)
	}
	b.Block.Rows += int64(n)
}

// Finish marks the block complete (the scan reached EOF) and returns it.
func (b *Builder) Finish() *cache.Block {
	b.Block.Complete = true
	return b.Block
}
