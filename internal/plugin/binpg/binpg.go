package binpg

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"

	"proteus/internal/cache"
	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

func floatBits(f float64) uint64 { return math.Float64bits(f) }
func bitsFloat(b uint64) float64 { return math.Float64frombits(b) }

// Plugin implements plugin.Input for the binary row and columnar formats.
type Plugin struct{}

// New returns the binary plug-in.
func New() *Plugin { return &Plugin{} }

// Format implements plugin.Input.
func (p *Plugin) Format() string { return "bin" }

// FieldCost implements plugin.Input: binary access is the cost baseline.
func (p *Plugin) FieldCost() float64 { return 1.0 }

type state struct {
	data     []byte
	schema   *types.RecordType
	rows     int64
	columnar bool

	// Columnar layout.
	colOff []int // per-column data offset
	colLen []int

	// Row layout.
	rowBase  int // offset of row 0
	rowWidth int
	heapOff  int

	// zones holds the lazily built zone maps of columnar int/float columns,
	// keyed by column index (see ZoneMaps).
	zmu   sync.Mutex
	zones map[int]*cache.ZoneMaps
}

func (p *Plugin) state(ds *plugin.Dataset) (*state, error) {
	st, ok := ds.State.(*state)
	if !ok {
		return nil, fmt.Errorf("binpg: dataset %q is not open", ds.Name)
	}
	return st, nil
}

// Open implements plugin.Input: parses the header, locates column blobs or
// row geometry, and samples statistics. The file is untrusted: every offset,
// length and count it declares is checked against the image before any cell
// is read, so a damaged or hostile file fails here with an error and every
// later read is in bounds.
func (p *Plugin) Open(env *plugin.Env, ds *plugin.Dataset) error {
	data, err := env.Mem.File(ds.Path)
	if err != nil {
		return err
	}
	st, err := parse(data)
	if err != nil {
		return fmt.Errorf("binpg: %s: %w", ds.Name, err)
	}
	ds.State = st
	if ds.Schema == nil {
		ds.Schema = st.schema
	}

	// Cold-access statistics sampling.
	tbl := env.Stats.Table(ds.Name)
	tbl.Rows = st.rows
	if env.SampleEvery > 0 {
		for col, f := range st.schema.Fields {
			if !types.Numeric(f.Type) {
				continue
			}
			c := tbl.Col(f.Name)
			for row := int64(0); row < st.rows; row += int64(env.SampleEvery) {
				switch f.Type.Kind() {
				case types.KindInt:
					c.Observe(float64(st.readInt(col, row)))
				case types.KindFloat:
					c.Observe(st.readFloat(col, row))
				}
			}
		}
	}
	return nil
}

// parse validates a file image and returns its open state.
func parse(data []byte) (*state, error) {
	if len(data) < 16 {
		return nil, fmt.Errorf("truncated file")
	}
	st := &state{data: data}
	switch {
	case string(data[:4]) == string(magicColumnar[:]):
		st.columnar = true
	case string(data[:4]) == string(magicRow[:]):
		st.columnar = false
	default:
		return nil, fmt.Errorf("bad magic %q", data[:4])
	}
	nCols := uint64(binary.LittleEndian.Uint32(data[4:]))
	rows := binary.LittleEndian.Uint64(data[8:])
	// Every column needs at least three header bytes, and every row at
	// least one byte per column, so neither count can exceed the image.
	if nCols == 0 || nCols > uint64(len(data)-16)/3 {
		return nil, fmt.Errorf("bad column count %d", nCols)
	}
	if rows > uint64(len(data)) {
		return nil, fmt.Errorf("row count %d exceeds the %d-byte file", rows, len(data))
	}
	st.rows = int64(rows)
	pos := 16
	fields := make([]types.Field, nCols)
	for i := range fields {
		if pos+3 > len(data) {
			return nil, fmt.Errorf("truncated header")
		}
		t, err := byteKind(data[pos])
		if err != nil {
			return nil, err
		}
		nameLen := int(binary.LittleEndian.Uint16(data[pos+1:]))
		pos += 3
		if nameLen > len(data)-pos {
			return nil, fmt.Errorf("truncated column name")
		}
		fields[i] = types.Field{Name: string(data[pos : pos+nameLen]), Type: t}
		pos += nameLen
	}
	st.schema = &types.RecordType{Fields: fields}
	seen := make(map[string]bool, len(fields))
	for _, f := range fields {
		if seen[f.Name] {
			return nil, fmt.Errorf("duplicate column name %q", f.Name)
		}
		seen[f.Name] = true
	}
	if st.columnar {
		return st, st.parseColumns(pos)
	}
	return st, st.parseRows(pos)
}

// parseColumns reads and checks the columnar offset table: each blob lies
// inside the image and holds exactly rows cells of its kind; a string
// column's offsets ascend and end inside its byte area.
func (st *state) parseColumns(pos int) error {
	data, n := st.data, len(st.schema.Fields)
	if uint64(n)*16 > uint64(len(data)-pos) {
		return fmt.Errorf("truncated column offset table")
	}
	st.colOff = make([]int, n)
	st.colLen = make([]int, n)
	rows := uint64(st.rows)
	for i, f := range st.schema.Fields {
		off := binary.LittleEndian.Uint64(data[pos+i*16:])
		size := binary.LittleEndian.Uint64(data[pos+i*16+8:])
		if off > uint64(len(data)) || size > uint64(len(data))-off {
			return fmt.Errorf("column %q: blob [%d, +%d) outside the %d-byte file", f.Name, off, size, len(data))
		}
		st.colOff[i], st.colLen[i] = int(off), int(size)
		switch f.Type.Kind() {
		case types.KindInt, types.KindFloat, types.KindBool:
			width := uint64(cellSize)
			if f.Type.Kind() == types.KindBool {
				width = 1
			}
			if size != rows*width {
				return fmt.Errorf("column %q: %d bytes for %d rows", f.Name, size, rows)
			}
		case types.KindString:
			if size < (rows+1)*4 {
				return fmt.Errorf("column %q: %d bytes cannot hold %d string offsets", f.Name, size, rows+1)
			}
			blob := data[off : off+size]
			heap := size - (rows+1)*4
			prev := uint64(0)
			for r := uint64(0); r <= rows; r++ {
				o := uint64(binary.LittleEndian.Uint32(blob[r*4:]))
				if o < prev || o > heap {
					return fmt.Errorf("column %q: string offset %d of row %d out of order or past %d", f.Name, o, r, heap)
				}
				prev = o
			}
		}
	}
	return nil
}

// parseRows checks the row layout: the rows fit the image, and every string
// cell's (offset, length) lies inside the heap that follows them.
func (st *state) parseRows(pos int) error {
	data, n := st.data, len(st.schema.Fields)
	st.rowBase = pos
	st.rowWidth = n * cellSize
	if uint64(st.rows) > uint64(len(data)-pos)/uint64(st.rowWidth) {
		return fmt.Errorf("%d rows of %d bytes overrun the file", st.rows, st.rowWidth)
	}
	st.heapOff = pos + int(st.rows)*st.rowWidth
	heap := uint64(len(data) - st.heapOff)
	for col, f := range st.schema.Fields {
		if f.Type.Kind() != types.KindString {
			continue
		}
		for row := int64(0); row < st.rows; row++ {
			cell := binary.LittleEndian.Uint64(data[st.rowBase+int(row)*st.rowWidth+col*cellSize:])
			if off, size := cell>>32, uint64(uint32(cell)); off > heap || size > heap-off {
				return fmt.Errorf("column %q row %d: string [%d, +%d) outside the %d-byte heap", f.Name, row, off, size, heap)
			}
		}
	}
	return nil
}

// cell returns the offset of a fixed-width cell (columnar width bytes, or a
// row-layout slot).
func (st *state) cell(col int, row int64, width int) int {
	if st.columnar {
		return st.colOff[col] + int(row)*width
	}
	return st.rowBase + int(row)*st.rowWidth + col*cellSize
}

func (st *state) readInt(col int, row int64) int64 {
	return int64(binary.LittleEndian.Uint64(st.data[st.cell(col, row, cellSize):]))
}

func (st *state) readFloat(col int, row int64) float64 {
	return bitsFloat(binary.LittleEndian.Uint64(st.data[st.cell(col, row, cellSize):]))
}

func (st *state) readBool(col int, row int64) bool {
	return st.data[st.cell(col, row, 1)] != 0
}

func (st *state) readString(col int, row int64) string {
	if st.columnar {
		base := st.colOff[col]
		off := int(binary.LittleEndian.Uint32(st.data[base+int(row)*4:]))
		end := int(binary.LittleEndian.Uint32(st.data[base+int(row+1)*4:]))
		bytesBase := base + (int(st.rows)+1)*4
		return string(st.data[bytesBase+off : bytesBase+end])
	}
	cell := binary.LittleEndian.Uint64(st.data[st.cell(col, row, cellSize):])
	off := int(cell >> 32)
	n := int(uint32(cell))
	return string(st.data[st.heapOff+off : st.heapOff+off+n])
}

// Schema implements plugin.Input.
func (p *Plugin) Schema(ds *plugin.Dataset) *types.RecordType {
	if st, ok := ds.State.(*state); ok {
		return st.schema
	}
	return ds.Schema
}

// Cardinality implements plugin.Input.
func (p *Plugin) Cardinality(ds *plugin.Dataset) int64 {
	if st, ok := ds.State.(*state); ok {
		return st.rows
	}
	return 0
}

// CompileScan implements plugin.Input: the generated loop reads each needed
// field at a computed memory position, with a per-field closure specialized
// to the column's type and layout. Windows spec.Skip rules out are never
// read.
func (p *Plugin) CompileScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.RunFunc, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	type loader func(regs *vbuf.Regs, row int64)
	loaders := make([]loader, 0, len(spec.Fields))
	names := st.schema.Names()
	for _, req := range spec.Fields {
		if len(req.Path) == 0 {
			// Whole-record boxing.
			if req.Slot.Class != vbuf.ClassValue {
				return nil, fmt.Errorf("binpg: whole-record request needs a value slot")
			}
			slot := req.Slot
			loaders = append(loaders, func(regs *vbuf.Regs, row int64) {
				regs.V[slot.Idx] = st.decodeRow(row, names)
				regs.Null[slot.Null] = false
			})
			continue
		}
		col, err := st.column(ds, req)
		if err != nil {
			return nil, err
		}
		slot := req.Slot
		switch st.schema.Fields[col].Type.Kind() {
		case types.KindInt:
			loaders = append(loaders, func(regs *vbuf.Regs, row int64) {
				regs.I[slot.Idx] = st.readInt(col, row)
				regs.Null[slot.Null] = false
			})
		case types.KindFloat:
			loaders = append(loaders, func(regs *vbuf.Regs, row int64) {
				regs.F[slot.Idx] = st.readFloat(col, row)
				regs.Null[slot.Null] = false
			})
		case types.KindBool:
			loaders = append(loaders, func(regs *vbuf.Regs, row int64) {
				regs.B[slot.Idx] = st.readBool(col, row)
				regs.Null[slot.Null] = false
			})
		default:
			loaders = append(loaders, func(regs *vbuf.Regs, row int64) {
				regs.S[slot.Idx] = st.readString(col, row)
				regs.Null[slot.Null] = false
			})
		}
	}
	lo, hi := morselBounds(spec.Morsel, st.rows)
	oid := spec.OIDSlot
	cc, skip, prof := spec.Cancel, spec.Skip, spec.Prof
	// The cancellation poll and the zone test are amortized at stride
	// granularity: the inner loop carries no per-row check at all.
	return func(regs *vbuf.Regs, consume func() error) error {
		for blk := lo; blk < hi; blk += plugin.CancelStride {
			if cc.Cancelled() {
				return cc.Err()
			}
			blkEnd := min(blk+plugin.CancelStride, hi)
			if skip != nil && skip(blk, blkEnd) {
				continue
			}
			if prof != nil {
				// Fixed-width cells: bytes are cells × cell size.
				fields := (blkEnd - blk) * int64(len(loaders))
				prof.FieldsParsed += fields
				prof.BytesRead += fields * cellSize
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
	}, nil
}

// column resolves a flat field request to its column index, checking the
// slot class against the column's kind.
func (st *state) column(ds *plugin.Dataset, req plugin.FieldReq) (int, error) {
	if len(req.Path) != 1 {
		return 0, fmt.Errorf("binpg: nested path %q in flat binary dataset %q",
			plugin.FieldPathString(req.Path), ds.Name)
	}
	col := st.schema.Index(req.Path[0])
	if col < 0 {
		return 0, fmt.Errorf("binpg: dataset %q has no column %q", ds.Name, req.Path[0])
	}
	want := vbuf.ClassString
	switch st.schema.Fields[col].Type.Kind() {
	case types.KindInt:
		want = vbuf.ClassInt
	case types.KindFloat:
		want = vbuf.ClassFloat
	case types.KindBool:
		want = vbuf.ClassBool
	}
	if req.Slot.Class != want {
		return 0, fmt.Errorf("binpg: slot class mismatch for %q", req.Path[0])
	}
	return col, nil
}

// CompileLaneLoaders implements plugin.LaneLoaders: one loader per field,
// decoding the column straight from the file image into the batch — a dense
// copy while the whole batch is selected, a gather of the selected lanes
// otherwise. Each call charges the cells it decoded to spec.Prof.
func (p *Plugin) CompileLaneLoaders(ds *plugin.Dataset, spec plugin.ScanSpec) ([]plugin.LaneLoader, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	out := make([]plugin.LaneLoader, 0, len(spec.Fields))
	for _, req := range spec.Fields {
		if len(req.Path) != 1 {
			return nil, plugin.ErrUnsupported
		}
		col, err := st.column(ds, req)
		if err != nil {
			return nil, err
		}
		ld := st.laneLoader(col, req.Slot)
		if prof := spec.Prof; prof != nil {
			inner := ld
			ld = func(b *vbuf.Batch) {
				inner(b)
				prof.FieldsParsed += int64(len(b.Sel))
				prof.BytesRead += int64(len(b.Sel)) * cellSize
			}
		}
		out = append(out, ld)
	}
	return out, nil
}

// laneLoader compiles the decode of one column into a batch slot. Columnar
// int and float columns, the hot case, decode straight off the column blob;
// the other kinds and the row layout go through the cell readers.
func (st *state) laneLoader(col int, slot vbuf.Slot) plugin.LaneLoader {
	kind := st.schema.Fields[col].Type.Kind()
	if st.columnar && (kind == types.KindInt || kind == types.KindFloat) {
		blob := st.data[st.colOff[col] : st.colOff[col]+st.colLen[col]]
		if kind == types.KindInt {
			return func(b *vbuf.Batch) {
				loadInts(b, b.Ints(slot.Idx), blob)
				b.Null[slot.Null] = nil
			}
		}
		return func(b *vbuf.Batch) {
			loadFloats(b, b.Floats(slot.Idx), blob)
			b.Null[slot.Null] = nil
		}
	}
	switch kind {
	case types.KindInt:
		return func(b *vbuf.Batch) {
			loadLanes(b, b.Ints(slot.Idx), func(row int64) int64 { return st.readInt(col, row) })
			b.Null[slot.Null] = nil
		}
	case types.KindFloat:
		return func(b *vbuf.Batch) {
			loadLanes(b, b.Floats(slot.Idx), func(row int64) float64 { return st.readFloat(col, row) })
			b.Null[slot.Null] = nil
		}
	case types.KindBool:
		return func(b *vbuf.Batch) {
			loadLanes(b, b.Bools(slot.Idx), func(row int64) bool { return st.readBool(col, row) })
			b.Null[slot.Null] = nil
		}
	default:
		return func(b *vbuf.Batch) {
			loadLanes(b, b.Strs(slot.Idx), func(row int64) string { return st.readString(col, row) })
			b.Null[slot.Null] = nil
		}
	}
}

// loadInts decodes little-endian 8-byte int cells of blob into the batch
// lanes (see plugin.LaneLoader). It and loadFloats are the hot loops of a
// binary scan, so the decode is spelled out rather than passed as a func.
func loadInts(b *vbuf.Batch, out []int64, blob []byte) {
	base := int(b.Base)
	if b.FullSel() {
		src := blob[base*cellSize : (base+b.N)*cellSize]
		for j := range out[:b.N] {
			out[j] = int64(binary.LittleEndian.Uint64(src[j*cellSize:]))
		}
		return
	}
	for _, j := range b.Sel {
		out[j] = int64(binary.LittleEndian.Uint64(blob[(base+int(j))*cellSize:]))
	}
}

// loadFloats is loadInts for float cells.
func loadFloats(b *vbuf.Batch, out []float64, blob []byte) {
	base := int(b.Base)
	if b.FullSel() {
		src := blob[base*cellSize : (base+b.N)*cellSize]
		for j := range out[:b.N] {
			out[j] = bitsFloat(binary.LittleEndian.Uint64(src[j*cellSize:]))
		}
		return
	}
	for _, j := range b.Sel {
		out[j] = bitsFloat(binary.LittleEndian.Uint64(blob[(base+int(j))*cellSize:]))
	}
}

// loadLanes reads rows b.Base+j into the batch lanes (see plugin.LaneLoader).
func loadLanes[T any](b *vbuf.Batch, out []T, read func(row int64) T) {
	if b.FullSel() {
		for j := range out[:b.N] {
			out[j] = read(b.Base + int64(j))
		}
		return
	}
	for _, j := range b.Sel {
		out[j] = read(b.Base + int64(j))
	}
}

// CompileBatchScan implements plugin.BatchScanner: the driver walks the
// scan range in vbuf.BatchSize windows, drops those spec.Skip rules out, and
// fills each needed column of the rest with its lane loader over the full
// window. Whole-record requests stay on the tuple path (ErrUnsupported).
func (p *Plugin) CompileBatchScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.BatchRunFunc, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	loaders, err := p.CompileLaneLoaders(ds, spec)
	if err != nil {
		return nil, err
	}
	lo, hi := morselBounds(spec.Morsel, st.rows)
	oid := spec.OIDSlot
	cc, skip := spec.Cancel, spec.Skip
	return func(_ *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
		for blk := lo; blk < hi; blk += vbuf.BatchSize {
			if cc.Cancelled() {
				return cc.Err()
			}
			blkEnd := min(blk+vbuf.BatchSize, hi)
			if skip != nil && skip(blk, blkEnd) {
				continue
			}
			b.Base = blk
			b.ResetSel(int(blkEnd - blk))
			for _, ld := range loaders {
				ld(b)
			}
			if oid != nil {
				out := b.Ints(oid.Idx)
				for j := range int(blkEnd - blk) {
					out[j] = blk + int64(j)
				}
				b.Null[oid.Null] = nil
			}
			if err := consume(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

// ZoneMaps implements plugin.ZoneMapper for columnar int and float columns:
// built from the column blob on the first request, then kept with the open
// dataset (the file image is immutable). Other columns and the row layout
// have none.
func (p *Plugin) ZoneMaps(ds *plugin.Dataset, column string) *cache.ZoneMaps {
	st, ok := ds.State.(*state)
	if !ok || !st.columnar {
		return nil
	}
	col := st.schema.Index(column)
	if col < 0 {
		return nil
	}
	kind := st.schema.Fields[col].Type.Kind()
	if kind != types.KindInt && kind != types.KindFloat {
		return nil
	}
	st.zmu.Lock()
	defer st.zmu.Unlock()
	if z, ok := st.zones[col]; ok {
		return z
	}
	// BuildZones reads a cache block; decode the column into a transient one.
	blk := &cache.Block{Kind: kind, Rows: st.rows}
	if kind == types.KindInt {
		blk.Ints = make([]int64, st.rows)
		for row := range blk.Ints {
			blk.Ints[row] = st.readInt(col, int64(row))
		}
	} else {
		blk.Floats = make([]float64, st.rows)
		for row := range blk.Floats {
			blk.Floats[row] = st.readFloat(col, int64(row))
		}
	}
	z := cache.BuildZones(blk)
	if st.zones == nil {
		st.zones = map[int]*cache.ZoneMaps{}
	}
	st.zones[col] = z
	return z
}

// morselBounds clamps an optional morsel to [0, rows).
func morselBounds(m *plugin.Morsel, rows int64) (int64, int64) {
	if m == nil {
		return 0, rows
	}
	lo, hi := m.Start, m.End
	if lo < 0 {
		lo = 0
	}
	if hi > rows {
		hi = rows
	}
	return lo, hi
}

// PartitionScan implements plugin.Partitioner: binary rows are fixed-cost,
// so morsels are equal record ranges.
func (p *Plugin) PartitionScan(ds *plugin.Dataset, parts int) ([]plugin.Morsel, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	return plugin.SplitRows(st.rows, parts), nil
}

// CompileUnnest implements plugin.Input: flat format, nothing to unnest.
func (p *Plugin) CompileUnnest(ds *plugin.Dataset, spec plugin.UnnestSpec) (plugin.UnnestFunc, error) {
	return nil, plugin.ErrUnsupported
}

// decodeRow boxes one row into a record value.
func (st *state) decodeRow(row int64, names []string) types.Value {
	vals := make([]types.Value, len(st.schema.Fields))
	for col, f := range st.schema.Fields {
		switch f.Type.Kind() {
		case types.KindInt:
			vals[col] = types.IntValue(st.readInt(col, row))
		case types.KindFloat:
			vals[col] = types.FloatValue(st.readFloat(col, row))
		case types.KindBool:
			vals[col] = types.BoolValue(st.readBool(col, row))
		default:
			vals[col] = types.StringValue(st.readString(col, row))
		}
	}
	return types.RecordValue(names, vals)
}

// ReadRows implements plugin.Input.
func (p *Plugin) ReadRows(ds *plugin.Dataset) ([]types.Value, error) {
	st, err := p.state(ds)
	if err != nil {
		return nil, err
	}
	names := st.schema.Names()
	out := make([]types.Value, 0, st.rows)
	for row := int64(0); row < st.rows; row++ {
		out = append(out, st.decodeRow(row, names))
	}
	return out, nil
}
