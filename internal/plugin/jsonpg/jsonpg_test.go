package jsonpg

import (
	"fmt"
	"strings"
	"testing"

	"proteus/internal/plugin"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

func openJSON(t *testing.T, data string, opts plugin.Options) (*Plugin, *plugin.Dataset, *plugin.Env) {
	t.Helper()
	mem := storage.NewManager(0)
	mem.PutFile("mem://t.json", []byte(data))
	env := &plugin.Env{Mem: mem, Stats: stats.NewStore(), SampleEvery: 1}
	p := New()
	ds := &plugin.Dataset{Name: "t", Path: "mem://t.json", Format: "json", Opts: opts}
	if err := p.Open(env, ds); err != nil {
		t.Fatalf("open: %v", err)
	}
	return p, ds, env
}

func scanField(t *testing.T, p *Plugin, ds *plugin.Dataset, path string, ft types.Type) []types.Value {
	t.Helper()
	var alloc vbuf.Alloc
	slot := alloc.ForType(ft)
	oid := alloc.Int()
	run, err := p.CompileScan(ds, plugin.ScanSpec{
		Fields:  []plugin.FieldReq{{Path: strings.Split(path, "."), Slot: slot, Type: ft}},
		OIDSlot: &oid,
	})
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	regs := vbuf.NewRegs(&alloc)
	var out []types.Value
	if err := run(regs, func() error {
		out = append(out, regs.Get(slot))
		return nil
	}); err != nil {
		t.Fatalf("run: %v", err)
	}
	return out
}

const mixedOrder = `{"a": 1, "b": "x", "c": 1.5, "flag": true}
{"b": "y", "a": 2, "flag": false, "c": 2.5}
{"c": 3.5, "flag": true, "b": "z", "a": 3}
`

func TestScanWithArbitraryFieldOrder(t *testing.T) {
	p, ds, _ := openJSON(t, mixedOrder, plugin.Options{})
	st := ds.State.(*state)
	if st.deterministic {
		t.Fatal("mixed field order must not be deterministic")
	}
	vals := scanField(t, p, ds, "a", types.Int)
	if len(vals) != 3 || vals[0].AsInt() != 1 || vals[1].AsInt() != 2 || vals[2].AsInt() != 3 {
		t.Errorf("a = %v", vals)
	}
	svals := scanField(t, p, ds, "b", types.String)
	if svals[2].S != "z" {
		t.Errorf("b = %v", svals)
	}
	bvals := scanField(t, p, ds, "flag", types.Bool)
	if !bvals[0].Bool() || bvals[1].Bool() {
		t.Errorf("flag = %v", bvals)
	}
}

func TestDeterministicIndexCompression(t *testing.T) {
	fixed := `{"a": 1, "b": 2.5}
{"a": 2, "b": 3.5}
{"a": 3, "b": 4.5}
`
	p, ds, _ := openJSON(t, fixed, plugin.Options{})
	st := ds.State.(*state)
	if !st.deterministic {
		t.Fatal("fixed field order should compress the index")
	}
	if st.level0 != nil {
		t.Error("Level 0 should be dropped in deterministic mode")
	}
	if !p.Deterministic(ds) {
		t.Error("Deterministic() should report true")
	}
	vals := scanField(t, p, ds, "b", types.Float)
	if vals[1].F != 3.5 {
		t.Errorf("b = %v", vals)
	}

	// Same file with the ablation flag keeps the mode off.
	p2, ds2, _ := openJSON(t, fixed, plugin.Options{DisableDeterministic: true})
	if ds2.State.(*state).deterministic {
		t.Error("ablation flag ignored")
	}
	vals2 := scanField(t, p2, ds2, "b", types.Float)
	if vals2[1].F != 3.5 {
		t.Errorf("b (ablation) = %v", vals2)
	}
}

func TestSequentialLookupAblation(t *testing.T) {
	p, ds, _ := openJSON(t, mixedOrder, plugin.Options{DisableLevel0: true})
	st := ds.State.(*state)
	if st.level0 != nil || st.pairs == nil {
		t.Fatal("DisableLevel0 should use the pair list")
	}
	vals := scanField(t, p, ds, "c", types.Float)
	if vals[0].F != 1.5 || vals[2].F != 3.5 {
		t.Errorf("c = %v", vals)
	}
}

func TestNestedRecordPaths(t *testing.T) {
	data := `{"id": 1, "c": {"d": {"d1": 10}}}
{"id": 2, "c": {"d": {"d1": 20}}}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	vals := scanField(t, p, ds, "c.d.d1", types.Int)
	if len(vals) != 2 || vals[0].AsInt() != 10 || vals[1].AsInt() != 20 {
		t.Errorf("c.d.d1 = %v", vals)
	}
}

func TestMissingFieldsAreNull(t *testing.T) {
	data := `{"a": 1, "b": 9}
{"a": 2}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	vals := scanField(t, p, ds, "b", types.Int)
	if !vals[1].IsNull() {
		t.Errorf("missing field = %v, want null", vals[1])
	}
	ghost := scanField(t, p, ds, "zzz", types.Int)
	if !ghost[0].IsNull() {
		t.Error("unknown field should be null")
	}
}

func TestTopLevelArrayFile(t *testing.T) {
	data := `[ {"a": 1}, {"a": 2}, {"a": 3} ]`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	if p.Cardinality(ds) != 3 {
		t.Fatalf("objects = %d", p.Cardinality(ds))
	}
	vals := scanField(t, p, ds, "a", types.Int)
	if vals[2].AsInt() != 3 {
		t.Errorf("a = %v", vals)
	}
}

func TestStringEscapes(t *testing.T) {
	data := `{"s": "a\nb\t\"q\" A"}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	vals := scanField(t, p, ds, "s", types.String)
	if vals[0].S != "a\nb\t\"q\" A" {
		t.Errorf("s = %q", vals[0].S)
	}
}

func TestUnnestRecords(t *testing.T) {
	data := `{"id": 1, "kids": [{"n": "a", "v": 5}, {"n": "b", "v": 6}]}
{"id": 2, "kids": []}
{"id": 3, "kids": [{"n": "c", "v": 7}]}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	var alloc vbuf.Alloc
	oid := alloc.Int()
	nSlot := alloc.String()
	vSlot := alloc.Int()
	unnest, err := p.CompileUnnest(ds, plugin.UnnestSpec{
		OIDSlot: oid,
		Path:    []string{"kids"},
		ElemFields: []plugin.FieldReq{
			{Path: []string{"n"}, Slot: nSlot, Type: types.String},
			{Path: []string{"v"}, Slot: vSlot, Type: types.Int},
		},
	})
	if err != nil {
		t.Fatalf("compile unnest: %v", err)
	}
	regs := vbuf.NewRegs(&alloc)
	var got []string
	for obj := int64(0); obj < 3; obj++ {
		regs.I[oid.Idx] = obj
		if err := unnest(regs, func() error {
			got = append(got, fmt.Sprintf("%s=%d", regs.S[nSlot.Idx], regs.I[vSlot.Idx]))
			return nil
		}); err != nil {
			t.Fatalf("unnest obj %d: %v", obj, err)
		}
	}
	want := []string{"a=5", "b=6", "c=7"}
	if strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("unnest = %v, want %v", got, want)
	}
}

func TestUnnestScalars(t *testing.T) {
	data := `{"id": 1, "xs": [10, 20, 30]}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	var alloc vbuf.Alloc
	oid := alloc.Int()
	elem := alloc.Int()
	unnest, err := p.CompileUnnest(ds, plugin.UnnestSpec{
		OIDSlot:  oid,
		Path:     []string{"xs"},
		ElemSlot: &elem,
		ElemType: types.Int,
	})
	if err != nil {
		t.Fatal(err)
	}
	regs := vbuf.NewRegs(&alloc)
	regs.I[oid.Idx] = 0
	var sum int64
	if err := unnest(regs, func() error {
		sum += regs.I[elem.Idx]
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if sum != 60 {
		t.Errorf("sum = %d", sum)
	}
}

func TestBoxedFieldExtraction(t *testing.T) {
	data := `{"id": 1, "rec": {"x": 1}, "arr": [1, 2]}
`
	p, ds, _ := openJSON(t, data, plugin.Options{})
	schema := p.Schema(ds)
	rt, _ := schema.Lookup("rec")
	vals := scanField(t, p, ds, "rec", rt)
	if vals[0].Kind != types.KindRecord {
		t.Fatalf("rec = %v", vals[0])
	}
	at, _ := schema.Lookup("arr")
	avals := scanField(t, p, ds, "arr", at)
	if avals[0].Len() != 2 {
		t.Errorf("arr = %v", avals[0])
	}
}

func TestValidationErrors(t *testing.T) {
	bad := []string{
		`{"a": }`,
		`{"a" 1}`,
		`{"a": 1`,
		`{1: 2}`,
		`[{"a": 1}`,
		`{"a": "unterminated}`,
		`not json`,
	}
	for _, data := range bad {
		mem := storage.NewManager(0)
		mem.PutFile("mem://bad.json", []byte(data))
		env := &plugin.Env{Mem: mem, Stats: stats.NewStore()}
		ds := &plugin.Dataset{Name: "bad", Path: "mem://bad.json", Format: "json"}
		if err := New().Open(env, ds); err == nil {
			t.Errorf("Open(%q) should fail", data)
		}
	}
}

func TestReadRowsAndIndexBytes(t *testing.T) {
	p, ds, _ := openJSON(t, mixedOrder, plugin.Options{})
	rows, err := p.ReadRows(ds)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 3 {
		t.Fatalf("rows = %d", len(rows))
	}
	if v, _ := rows[1].Field("a"); v.AsInt() != 2 {
		t.Errorf("row 1 = %s", rows[1])
	}
	if p.IndexBytes(ds) <= 0 {
		t.Error("index bytes should be positive")
	}
}

func TestStatsSampling(t *testing.T) {
	_, _, env := openJSON(t, mixedOrder, plugin.Options{})
	tbl, _ := env.Stats.Lookup("t")
	if tbl.Rows != 3 {
		t.Errorf("rows = %d", tbl.Rows)
	}
	c := tbl.Cols["a"]
	if c == nil || c.Min != 1 || c.Max != 3 {
		t.Errorf("a stats = %+v", c)
	}
}

func TestSchemaInference(t *testing.T) {
	p, ds, _ := openJSON(t, `{"i": 1, "f": 1.5, "s": "x", "b": true, "arr": [{"k": 1}]}
`, plugin.Options{})
	schema := p.Schema(ds)
	checks := map[string]types.Kind{
		"i": types.KindInt, "f": types.KindFloat, "s": types.KindString,
		"b": types.KindBool, "arr": types.KindList,
	}
	for name, kind := range checks {
		ft, ok := schema.Lookup(name)
		if !ok || ft.Kind() != kind {
			t.Errorf("field %s = %v", name, ft)
		}
	}
}

// TestSchemaInferenceWidens: the schema of an undeclared dataset comes from
// its leading objects, not the first alone — a number column that starts
// integral and turns fractional is Float (and scans as floats from the first
// row on), a field that starts null takes its first real type, nested
// records and list elements widen the same way, and past the sample window
// nothing changes the schema any more.
func TestSchemaInferenceWidens(t *testing.T) {
	var data strings.Builder
	data.WriteString(`{"x": 1, "n": null, "i": 7, "rec": {"a": null, "b": 1}, "arr": [1, 2.5], "late": 1, "s": null}` + "\n")
	data.WriteString(`{"x": 2.5, "n": "text", "i": 8, "rec": {"a": 3, "b": 0.5}, "arr": [], "late": 2, "s": null}` + "\n")
	for i := 2; i < schemaSampleObjects; i++ {
		data.WriteString(`{"x": 3, "n": null, "i": 9, "rec": {"a": 4, "b": 2}, "arr": [4], "late": 3, "s": null}` + "\n")
	}
	data.WriteString(`{"x": 4, "n": "t", "i": 1.5, "rec": {"a": 5, "b": 3}, "arr": [5], "late": 0.5, "s": "too late"}` + "\n")
	p, ds, _ := openJSON(t, data.String(), plugin.Options{})
	schema := p.Schema(ds)
	want := "record(x: float, n: string, i: int, rec: record(a: int, b: float), arr: list(float), late: int, s: null)"
	if schema.String() != want {
		t.Fatalf("inferred schema\n  %s\nwant\n  %s", schema, want)
	}
	xs := scanField(t, p, ds, "x", types.Float)
	if len(xs) != schemaSampleObjects+1 || xs[0].Kind != types.KindFloat || xs[0].F != 1 || xs[1].F != 2.5 {
		t.Errorf("x scans as %v %v … (%d rows)", xs[0], xs[1], len(xs))
	}
	// An explicit schema is still taken as given.
	mem := storage.NewManager(0)
	mem.PutFile("mem://t.json", []byte(`{"x": 1}`+"\n"+`{"x": 2.5}`+"\n"))
	declared := &plugin.Dataset{Name: "t", Path: "mem://t.json", Format: "json",
		Schema: types.NewRecordType(types.Field{Name: "x", Type: types.Int})}
	if err := New().Open(&plugin.Env{Mem: mem, Stats: stats.NewStore()}, declared); err != nil {
		t.Fatal(err)
	}
	if got := New().Schema(declared).String(); got != "record(x: int)" {
		t.Errorf("declared schema became %s", got)
	}
}
