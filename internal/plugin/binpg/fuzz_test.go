package binpg

import (
	"encoding/binary"
	"testing"

	"proteus/internal/plugin"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// hostileFiles are damaged images of the test table, one per check Open
// makes; each must fail to open with an error.
func hostileFiles(t testing.TB) map[string][]byte {
	col, err := EncodeColumnar(testColumns())
	if err != nil {
		t.Fatal(err)
	}
	row, err := EncodeRows(testColumns())
	if err != nil {
		t.Fatal(err)
	}
	// Header of the test table: 16 fixed bytes, then per column 3 bytes
	// plus its name ("id", "score", "ok", "tag").
	offTable := 16 + 4*3 + len("id") + len("score") + len("ok") + len("tag")
	patch := func(img []byte, at int, v uint64, width int) []byte {
		out := append([]byte(nil), img...)
		if width == 4 {
			binary.LittleEndian.PutUint32(out[at:], uint32(v))
		} else {
			binary.LittleEndian.PutUint64(out[at:], v)
		}
		return out
	}
	tagBlob := int(binary.LittleEndian.Uint64(col[offTable+3*16:]))
	dup, err := EncodeColumnar([]Column{
		{Name: "x", Type: types.Int, Ints: []int64{1}},
		{Name: "x", Type: types.Float, Floats: []float64{2}},
	})
	if err != nil {
		t.Fatal(err)
	}
	return map[string][]byte{
		"duplicate column name":    dup,
		"offset table cut off":     col[:offTable+8],
		"row count lies":           patch(col, 8, 5, 8),
		"huge row count":           patch(col, 8, 1<<62, 8),
		"huge column count":        patch(col, 4, 1<<31, 4),
		"no columns":               patch(col, 4, 0, 4),
		"blob past end":            patch(col, offTable, uint64(len(col)), 8),
		"blob length overflows":    patch(col, offTable+8, ^uint64(0), 8),
		"int blob short":           patch(col, offTable+8, 31, 8),
		"string offsets descend":   patch(col, tagBlob+4, 3, 4),
		"string offset past bytes": patch(col, tagBlob+16, 1000, 4),
		"rows overrun file":        row[:len(row)-9],
		"heap cell out of range":   patch(row, offTable+3*8, 1<<40|3, 8),
		"heap cell length wraps":   patch(row, offTable+3*8, 0xFFFFFFFF, 8),
	}
}

func TestOpenRejectsHostileFiles(t *testing.T) {
	for name, data := range hostileFiles(t) {
		t.Run(name, func(t *testing.T) {
			mem := storage.NewManager(0)
			mem.PutFile("mem://h.bin", data)
			ds := &plugin.Dataset{Name: "h", Path: "mem://h.bin"}
			if err := New().Open(&plugin.Env{Mem: mem, Stats: stats.NewStore(), SampleEvery: 1}, ds); err == nil {
				t.Fatal("Open accepted the file")
			}
		})
	}
}

// FuzzOpen throws bytes at Open. It must return an error or a dataset whose
// every cell — through the tuple scan, the batch scan with dense and sparse
// lane loads, ReadRows and the zone maps — reads in bounds.
func FuzzOpen(f *testing.F) {
	for _, encode := range []func([]Column) ([]byte, error){EncodeColumnar, EncodeRows} {
		data, err := encode(testColumns())
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	for _, data := range hostileFiles(f) {
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		mem := storage.NewManager(0)
		mem.PutFile("mem://f.bin", data)
		p := New()
		ds := &plugin.Dataset{Name: "f", Path: "mem://f.bin"}
		if err := p.Open(&plugin.Env{Mem: mem, Stats: stats.NewStore(), SampleEvery: 1}, ds); err != nil {
			return
		}
		rows := p.Cardinality(ds)
		if rows > 1<<16 {
			return // valid but too large to walk per input
		}
		if got, err := p.ReadRows(ds); err != nil || int64(len(got)) != rows {
			t.Fatalf("ReadRows = %d rows, %v; want %d", len(got), err, rows)
		}
		var alloc vbuf.Alloc
		var fields []plugin.FieldReq
		for _, f := range p.Schema(ds).Fields {
			fields = append(fields, plugin.FieldReq{Path: []string{f.Name}, Slot: alloc.ForType(f.Type), Type: f.Type})
			p.ZoneMaps(ds, f.Name)
		}
		oid := alloc.Int()
		spec := plugin.ScanSpec{Fields: fields, OIDSlot: &oid}
		run, err := p.CompileScan(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		n := int64(0)
		if err := run(vbuf.NewRegs(&alloc), func() error { n++; return nil }); err != nil || n != rows {
			t.Fatalf("tuple scan = %d rows, %v; want %d", n, err, rows)
		}
		batch, err := p.CompileBatchScan(ds, plugin.ScanSpec{OIDSlot: &oid})
		if err != nil {
			t.Fatal(err)
		}
		loaders, err := p.CompileLaneLoaders(ds, spec)
		if err != nil {
			t.Fatal(err)
		}
		b := vbuf.NewBatch(&alloc)
		n = 0
		err = batch(nil, b, func() error {
			for _, ld := range loaders {
				ld(b) // dense
			}
			b.Sel = b.Sel[:0:0]
			b.Sel = append(b.Sel, int32(b.N-1))
			for _, ld := range loaders {
				ld(b) // sparse: the last lane only
			}
			n += int64(b.N)
			return nil
		})
		if err != nil || n != rows {
			t.Fatalf("batch scan = %d rows, %v; want %d", n, err, rows)
		}
	})
}

func TestZoneMapsBuiltOnceForNumericColumns(t *testing.T) {
	col, _ := EncodeColumnar(testColumns())
	p, ds, _ := openBin(t, col)
	z := p.ZoneMaps(ds, "id")
	if z == nil || z.Kind != types.KindInt || z.Rows != 4 {
		t.Fatalf("id zones = %+v", z)
	}
	if again := p.ZoneMaps(ds, "id"); again != z {
		t.Error("zone maps rebuilt on the second request")
	}
	if p.ZoneMaps(ds, "score") == nil {
		t.Error("float column has no zone maps")
	}
	for _, c := range []string{"ok", "tag", "missing"} {
		if p.ZoneMaps(ds, c) != nil {
			t.Errorf("column %q has zone maps", c)
		}
	}
	row, _ := EncodeRows(testColumns())
	p, ds, _ = openBin(t, row)
	if p.ZoneMaps(ds, "id") != nil {
		t.Error("row layout has zone maps")
	}
}

// TestBatchScanSkipsAndCounts checks the window skip and the exact access
// counters: skipped windows are never decoded, and sparse lane loads charge
// only the selected lanes.
func TestBatchScanSkipsAndCounts(t *testing.T) {
	const n = 3*vbuf.BatchSize + 10
	ids := make([]int64, n)
	tags := make([]string, n)
	for i := range ids {
		ids[i] = int64(i)
		tags[i] = string(rune('a' + i%26))
	}
	data, err := EncodeColumnar([]Column{
		{Name: "id", Type: types.Int, Ints: ids},
		{Name: "tag", Type: types.String, Strs: tags},
	})
	if err != nil {
		t.Fatal(err)
	}
	p, ds, _ := openBin(t, data)
	var alloc vbuf.Alloc
	idSlot, tagSlot, oid := alloc.Int(), alloc.String(), alloc.Int()
	var prof plugin.ScanProf
	spec := plugin.ScanSpec{
		Fields:  []plugin.FieldReq{{Path: []string{"id"}, Slot: idSlot, Type: types.Int}},
		OIDSlot: &oid, Prof: &prof,
		Skip: func(lo, hi int64) bool { return lo == vbuf.BatchSize }, // the second window
	}
	run, err := p.CompileBatchScan(ds, spec)
	if err != nil {
		t.Fatal(err)
	}
	late, err := p.CompileLaneLoaders(ds, plugin.ScanSpec{
		Fields: []plugin.FieldReq{{Path: []string{"tag"}, Slot: tagSlot, Type: types.String}}, Prof: &prof,
	})
	if err != nil {
		t.Fatal(err)
	}
	b := vbuf.NewBatch(&alloc)
	var seen []int64
	err = run(nil, b, func() error {
		// Keep every 100th lane, then load the payload for those alone.
		sel := b.SelScratch()[:0]
		for j := int32(0); int(j) < b.N; j += 100 {
			sel = append(sel, j)
		}
		b.Sel = sel
		late[0](b)
		for _, j := range b.Sel {
			row := b.Base + int64(j)
			if b.I[idSlot.Idx][j] != row || b.S[tagSlot.Idx][j] != tags[row] || b.I[oid.Idx][j] != row {
				t.Fatalf("row %d: id %d tag %q", row, b.I[idSlot.Idx][j], b.S[tagSlot.Idx][j])
			}
			seen = append(seen, row)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, row := range seen {
		if row >= vbuf.BatchSize && row < 2*vbuf.BatchSize {
			t.Fatalf("row %d of the skipped window was scanned", row)
		}
	}
	// ids: three unskipped windows decoded densely; tags: the kept lanes.
	wantFields := int64(2*vbuf.BatchSize+10) + int64(len(seen))
	if prof.FieldsParsed != wantFields || prof.BytesRead != wantFields*cellSize {
		t.Errorf("counters = %+v, want %d fields", prof, wantFields)
	}
}
