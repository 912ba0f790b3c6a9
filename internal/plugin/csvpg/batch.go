package csvpg

import (
	"bytes"
	"fmt"
	"sort"

	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// batchExtract is one compiled per-row extraction of the vectorized scan:
// bind refreshes the output column views at batch start, parse writes row j.
type batchExtract struct {
	col   int
	bind  func(b *vbuf.Batch)
	parse func(j int, raw []byte)
}

// batchParserFor returns a type-specialized parser writing into a batch
// column instead of a register — the column-writing twin of parserFor.
func batchParserFor(slot vbuf.Slot, t types.Type) (bind func(b *vbuf.Batch), parse func(j int, raw []byte), err error) {
	switch t.Kind() {
	case types.KindInt:
		if slot.Class != vbuf.ClassInt {
			return nil, nil, fmt.Errorf("slot class mismatch for int column")
		}
		var out []int64
		bind = func(b *vbuf.Batch) { out = b.Ints(slot.Idx); b.Null[slot.Null] = nil }
		parse = func(j int, raw []byte) { out[j] = ParseInt(raw) }
	case types.KindFloat:
		if slot.Class != vbuf.ClassFloat {
			return nil, nil, fmt.Errorf("slot class mismatch for float column")
		}
		var out []float64
		bind = func(b *vbuf.Batch) { out = b.Floats(slot.Idx); b.Null[slot.Null] = nil }
		parse = func(j int, raw []byte) { out[j] = ParseFloat(raw) }
	case types.KindBool:
		if slot.Class != vbuf.ClassBool {
			return nil, nil, fmt.Errorf("slot class mismatch for bool column")
		}
		var out []bool
		bind = func(b *vbuf.Batch) { out = b.Bools(slot.Idx); b.Null[slot.Null] = nil }
		parse = func(j int, raw []byte) {
			out[j] = len(raw) > 0 && (raw[0] == 't' || raw[0] == 'T' || raw[0] == '1')
		}
	case types.KindString:
		if slot.Class != vbuf.ClassString {
			return nil, nil, fmt.Errorf("slot class mismatch for string column")
		}
		var out []string
		bind = func(b *vbuf.Batch) { out = b.Strs(slot.Idx); b.Null[slot.Null] = nil }
		parse = func(j int, raw []byte) { out[j] = string(raw) }
	default:
		return nil, nil, fmt.Errorf("unsupported CSV column type %s", t)
	}
	return bind, parse, nil
}

// CompileBatchScan implements plugin.BatchScanner over the fixed-width and
// structural-index fast paths: the same field navigation as CompileScan,
// but parses land in batch columns and consume fires once per batch.
// Quote-bearing files and whole-record requests return ErrUnsupported (the
// executor falls back to BatchFromTuples over the tuple scan, which keeps
// the quote-aware navigation).
func (p *Plugin) CompileBatchScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.BatchRunFunc, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	if st.hasQuotes {
		return nil, plugin.ErrUnsupported
	}
	extracts := make([]batchExtract, 0, len(spec.Fields))
	for _, req := range spec.Fields {
		if len(req.Path) != 1 {
			return nil, plugin.ErrUnsupported
		}
		col := st.schema.Index(req.Path[0])
		if col < 0 {
			return nil, fmt.Errorf("csvpg: dataset %q has no column %q", ds.Name, req.Path[0])
		}
		bind, parse, err := batchParserFor(req.Slot, req.Type)
		if err != nil {
			return nil, fmt.Errorf("csvpg: column %q: %w", req.Path[0], err)
		}
		extracts = append(extracts, batchExtract{col: col, bind: bind, parse: parse})
	}
	sort.Slice(extracts, func(i, j int) bool { return extracts[i].col < extracts[j].col })

	data := st.data
	delim := st.delim
	oid := spec.OIDSlot
	cc := spec.Cancel
	fe := fieldEnd
	if st.hasCR {
		fe = fieldEndCR
	}
	lo, hi := int64(0), st.rows
	if spec.Morsel != nil {
		lo, hi = spec.Morsel.Start, spec.Morsel.End
		if lo < 0 {
			lo = 0
		}
		if hi > st.rows {
			hi = st.rows
		}
	}
	nRows := hi - lo
	if nRows < 0 {
		nRows = 0
	}
	fieldsPerRow := int64(len(extracts))

	// finishBatch stamps the batch's row range and OID column, then fires
	// consume — shared tail of both loop variants.
	finishBatch := func(b *vbuf.Batch, blk, blkEnd int64, consume func() error) error {
		b.Base = blk
		if oid != nil {
			b.SetOIDs(*oid, blk, blkEnd)
		}
		b.ResetSel(int(blkEnd - blk))
		return consume()
	}

	var run plugin.BatchRunFunc
	var bytesDelta, jumpsDelta int64
	if st.fixed {
		offs := st.fieldOff
		rowLen := st.rowLen
		base0 := int32(0)
		if len(st.rowStarts) > 0 {
			base0 = st.rowStarts[0]
		}
		bytesDelta = nRows * int64(rowLen)
		run = func(_ *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
			for blk := lo; blk < hi; blk += vbuf.BatchSize {
				if cc.Cancelled() {
					return cc.Err()
				}
				blkEnd := blk + vbuf.BatchSize
				if blkEnd > hi {
					blkEnd = hi
				}
				for i := range extracts {
					extracts[i].bind(b)
				}
				for row := blk; row < blkEnd; row++ {
					base := base0 + int32(row)*rowLen
					j := int(row - blk)
					for i := range extracts {
						e := &extracts[i]
						start := base + offs[e.col]
						end := fe(data, int(start), delim)
						e.parse(j, data[start:end])
					}
				}
				if err := finishBatch(b, blk, blkEnd, consume); err != nil {
					return err
				}
			}
			return nil
		}
	} else {
		stride := st.stride
		nSampled := st.nSampled
		rowStarts := st.rowStarts
		fieldPos := st.fieldPos
		var jumpsPerRow int64
		{
			curField := 0
			for i := range extracts {
				e := &extracts[i]
				if k := e.col / stride; k > 0 && k*stride > curField {
					if k > nSampled {
						k = nSampled
					}
					curField = k * stride
					jumpsPerRow++
				}
				if e.col > curField {
					curField = e.col
				}
			}
		}
		jumpsDelta = nRows * jumpsPerRow
		if nRows > 0 && len(rowStarts) > 0 {
			end := int64(len(data))
			if hi < st.rows {
				end = int64(rowStarts[hi])
			}
			bytesDelta = end - int64(rowStarts[lo])
		}
		name := ds.Name
		run = func(_ *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
			for blk := lo; blk < hi; blk += vbuf.BatchSize {
				if cc.Cancelled() {
					return cc.Err()
				}
				blkEnd := blk + vbuf.BatchSize
				if blkEnd > hi {
					blkEnd = hi
				}
				for i := range extracts {
					extracts[i].bind(b)
				}
				for row := blk; row < blkEnd; row++ {
					j := int(row - blk)
					curField := 0
					curPos := int(rowStarts[row])
					for i := range extracts {
						e := &extracts[i]
						if k := e.col / stride; k > 0 && k*stride > curField {
							if k > nSampled {
								k = nSampled
							}
							curField = k * stride
							curPos = int(fieldPos[row*int64(nSampled)+int64(k-1)])
						}
						for curField < e.col {
							nd := bytes.IndexByte(data[curPos:], delim)
							if nd < 0 {
								return fmt.Errorf("csvpg: %s row %d: missing column %d", name, row, e.col)
							}
							curPos += nd + 1
							curField++
						}
						end := fe(data, curPos, delim)
						e.parse(j, data[curPos:end])
					}
				}
				if err := finishBatch(b, blk, blkEnd, consume); err != nil {
					return err
				}
			}
			return nil
		}
	}
	if prof := spec.Prof; prof != nil {
		inner := run
		fieldsDelta := nRows * fieldsPerRow
		run = func(regs *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
			prof.BytesRead += bytesDelta
			prof.FieldsParsed += fieldsDelta
			prof.IndexHits += jumpsDelta
			return inner(regs, b, consume)
		}
	}
	return run, nil
}
