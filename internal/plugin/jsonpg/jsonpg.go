package jsonpg

import (
	"fmt"

	"proteus/internal/fastparse"
	"proteus/internal/plugin"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Plugin implements plugin.Input for JSON datasets (a sequence of objects,
// newline-delimited or inside one top-level array).
type Plugin struct{}

// New returns the JSON plug-in.
func New() *Plugin { return &Plugin{} }

// Format implements plugin.Input.
func (p *Plugin) Format() string { return "json" }

// FieldCost implements plugin.Input: JSON is the most expensive format to
// access (navigation + conversion), which also biases cache retention in
// its favor (§6).
func (p *Plugin) FieldCost() float64 { return 14.0 }

func (p *Plugin) openState(ds *plugin.Dataset) (*state, error) {
	st, ok := ds.State.(*state)
	if !ok {
		return nil, fmt.Errorf("jsonpg: dataset %q is not open", ds.Name)
	}
	return st, nil
}

// Open implements plugin.Input: validates the file, builds the structural
// index (Level 1 + Level 0, or the deterministic compressed form), infers
// the schema, and samples statistics — all in the single cold pass whose
// cost is masked by I/O in the paper's setting.
func (p *Plugin) Open(env *plugin.Env, ds *plugin.Dataset) error {
	data, err := env.Mem.File(ds.Path)
	if err != nil {
		return err
	}
	st, err := p.buildIndex(env, ds, data)
	if err != nil {
		return err
	}
	if ds.Schema != nil {
		st.schema = ds.Schema
	} else if st.schema, err = inferSchema(data, st); err != nil {
		return fmt.Errorf("jsonpg: %s: %w", ds.Name, err)
	}
	ds.State = st
	if ds.Schema == nil {
		ds.Schema = st.schema
	}
	return nil
}

// schemaSampleObjects is how many leading objects schema inference reads.
const schemaSampleObjects = 64

// inferSchema types a dataset registered without a schema from its first
// schemaSampleObjects objects. The first object fixes the field list; later
// ones only widen field types — a field first seen as null takes the type
// of its first real value, and an integer-looking number column turns float
// when a fractional value follows ({"x":1} then {"x":2.5}).
func inferSchema(data []byte, st *state) (*types.RecordType, error) {
	schema := &types.RecordType{}
	for i := int64(0); i < st.nObjs && i < schemaSampleObjects; i++ {
		v, _, err := parseValue(data, int(st.objStart[i]))
		if err != nil {
			return nil, fmt.Errorf("inferring schema: %w", err)
		}
		rt, ok := sampleType(v).(*types.RecordType)
		if !ok {
			return nil, fmt.Errorf("top-level values are not objects")
		}
		if i > 0 {
			rt = widen(schema, rt).(*types.RecordType)
		}
		schema = rt
	}
	return schema, nil
}

// sampleType is types.TypeOf, except that a list's element type is widened
// over all of its elements instead of read off the first.
func sampleType(v types.Value) types.Type {
	switch v.Kind {
	case types.KindRecord:
		fields := make([]types.Field, len(v.Rec.Names))
		for i, n := range v.Rec.Names {
			fields[i] = types.Field{Name: n, Type: sampleType(v.Rec.Values[i])}
		}
		return &types.RecordType{Fields: fields}
	case types.KindList:
		var elem types.Type = types.Null
		for _, e := range v.Elems {
			elem = widen(elem, sampleType(e))
		}
		return types.NewListType(elem)
	}
	return types.TypeOf(v)
}

// widen merges a later sample's type b into the type a seen so far: null
// yields to anything, int to float, records and lists recurse (over a's
// fields). Types that do not reconcile keep the earlier one.
func widen(a, b types.Type) types.Type {
	switch {
	case a.Kind() == types.KindNull:
		return b
	case types.Numeric(a) && types.Numeric(b):
		return types.Promote(a, b)
	case a.Kind() != b.Kind():
		return a
	}
	switch at := a.(type) {
	case *types.RecordType:
		fields := make([]types.Field, len(at.Fields))
		for i, f := range at.Fields {
			if bt, ok := b.(*types.RecordType).Lookup(f.Name); ok {
				f.Type = widen(f.Type, bt)
			}
			fields[i] = f
		}
		return &types.RecordType{Fields: fields}
	case *types.ListType:
		return types.NewListType(widen(at.Elem, b.(*types.ListType).Elem))
	}
	return a
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
		return st.nObjs
	}
	return 0
}

// IndexBytes reports the structural index footprint for a dataset.
func (p *Plugin) IndexBytes(ds *plugin.Dataset) int64 {
	if st, ok := ds.State.(*state); ok {
		return st.IndexBytes()
	}
	return 0
}

// Deterministic reports whether the dataset's index was compressed to the
// deterministic form (Level 0 dropped).
func (p *Plugin) Deterministic(ds *plugin.Dataset) bool {
	if st, ok := ds.State.(*state); ok {
		return st.deterministic
	}
	return false
}

// PartitionScan implements plugin.Partitioner: morsels are byte-balanced
// object ranges cut at object boundaries via the structural index
// (objStart), so skewed document sizes still spread evenly over workers.
func (p *Plugin) PartitionScan(ds *plugin.Dataset, parts int) ([]plugin.Morsel, error) {
	st, err := p.openState(ds)
	if err != nil {
		return nil, err
	}
	return plugin.SplitByStarts(st.objStart, int64(len(st.data)), parts), nil
}

// lookupFn resolves (object, fieldID) to the Level-1 entry ordinal, or -1.
type lookupFn func(obj int64, fid int32) int32

// compileLookup specializes field lookup to the dataset's index shape:
// deterministic (shared table), Level-0 matrix (associative), or the
// sequential-scan ablation.
func (st *state) compileLookup() lookupFn {
	switch {
	case st.deterministic:
		det := st.detOrd
		return func(obj int64, fid int32) int32 { return det[fid] }
	case st.noLevel0:
		pairs, pairOff := st.pairs, st.pairOff
		return func(obj int64, fid int32) int32 {
			lo, hi := pairOff[obj], pairOff[obj+1]
			for i := lo; i < hi; i += 2 {
				if pairs[i] == fid {
					return pairs[i+1]
				}
			}
			return -1
		}
	default:
		nf := int64(len(st.paths))
		l0 := st.level0
		return func(obj int64, fid int32) int32 { return l0[obj*nf+int64(fid)] }
	}
}

// CompileBatchScan implements plugin.BatchScanner. JSON extraction is
// inherently record-at-a-time (each object is navigated individually), so
// the batch driver transposes the tuple scan's registers into columns via
// the generic adapter; the downstream kernels still run vectorized.
// Whole-object boxing cannot be columnized.
func (p *Plugin) CompileBatchScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.BatchRunFunc, error) {
	for _, req := range spec.Fields {
		if req.Slot.Class == vbuf.ClassValue {
			return nil, plugin.ErrUnsupported
		}
	}
	run, err := p.CompileScan(ds, spec)
	if err != nil {
		return nil, err
	}
	return plugin.BatchFromTuples(run, spec), nil
}

// CompileScan implements plugin.Input: per requested field the generated
// code resolves the Level-1 entry via the specialized lookup and converts
// the raw bytes with a parser chosen at compile time from the field's type.
func (p *Plugin) CompileScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.RunFunc, error) {
	st, err := p.openState(ds)
	if err != nil {
		return nil, err
	}
	lookup := st.compileLookup()
	data := st.data

	type extract func(regs *vbuf.Regs, obj int64)
	extracts := make([]extract, 0, len(spec.Fields))
	for _, req := range spec.Fields {
		path := plugin.FieldPathString(req.Path)
		slot := req.Slot
		if len(req.Path) == 0 {
			// Whole-object boxing: decode the full document.
			if slot.Class != vbuf.ClassValue {
				return nil, fmt.Errorf("jsonpg: whole-record request needs a value slot")
			}
			objStart := st.objStart
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				v, _, err := parseValue(data, int(objStart[obj]))
				if err != nil {
					regs.Null[slot.Null] = true
					return
				}
				regs.V[slot.Idx] = v
				regs.Null[slot.Null] = false
			})
			continue
		}
		fidInt, known := st.fieldIDs[path]
		fid := int32(fidInt)
		if !known {
			// Field absent from the whole dataset: always null.
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				regs.Null[slot.Null] = true
			})
			continue
		}
		entries := st.entries
		entryOff := st.entryOff
		switch slot.Class {
		case vbuf.ClassInt:
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				ord := lookup(obj, fid)
				if ord < 0 {
					regs.Null[slot.Null] = true
					return
				}
				e := entries[entryOff[obj]+uint32(ord)]
				if e.typ != tokNumber {
					regs.Null[slot.Null] = true
					return
				}
				regs.I[slot.Idx] = fastparse.Int(data[e.start:e.end])
				regs.Null[slot.Null] = false
			})
		case vbuf.ClassFloat:
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				ord := lookup(obj, fid)
				if ord < 0 {
					regs.Null[slot.Null] = true
					return
				}
				e := entries[entryOff[obj]+uint32(ord)]
				if e.typ != tokNumber {
					regs.Null[slot.Null] = true
					return
				}
				regs.F[slot.Idx] = fastparse.Float(data[e.start:e.end])
				regs.Null[slot.Null] = false
			})
		case vbuf.ClassBool:
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				ord := lookup(obj, fid)
				if ord < 0 {
					regs.Null[slot.Null] = true
					return
				}
				e := entries[entryOff[obj]+uint32(ord)]
				switch e.typ {
				case tokTrue:
					regs.B[slot.Idx] = true
					regs.Null[slot.Null] = false
				case tokFalse:
					regs.B[slot.Idx] = false
					regs.Null[slot.Null] = false
				default:
					regs.Null[slot.Null] = true
				}
			})
		case vbuf.ClassString:
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				ord := lookup(obj, fid)
				if ord < 0 {
					regs.Null[slot.Null] = true
					return
				}
				e := entries[entryOff[obj]+uint32(ord)]
				if e.typ != tokString {
					regs.Null[slot.Null] = true
					return
				}
				regs.S[slot.Idx] = unescape(data[e.start:e.end])
				regs.Null[slot.Null] = false
			})
		default: // boxed: nested records or whole arrays
			extracts = append(extracts, func(regs *vbuf.Regs, obj int64) {
				ord := lookup(obj, fid)
				if ord < 0 {
					regs.Null[slot.Null] = true
					return
				}
				e := entries[entryOff[obj]+uint32(ord)]
				v, err := valueOfEntry(data, e)
				if err != nil || v.IsNull() {
					regs.Null[slot.Null] = true
					return
				}
				regs.V[slot.Idx] = v
				regs.Null[slot.Null] = false
			})
		}
	}

	lo, hi := int64(0), st.nObjs
	if spec.Morsel != nil {
		lo, hi = spec.Morsel.Start, spec.Morsel.End
		if lo < 0 {
			lo = 0
		}
		if hi > st.nObjs {
			hi = st.nObjs
		}
	}
	oid := spec.OIDSlot
	cc := spec.Cancel
	// The cancellation poll is amortized at stride granularity: the inner
	// loop carries no per-object check at all.
	run := plugin.RunFunc(func(regs *vbuf.Regs, consume func() error) error {
		for base := lo; base < hi; base += plugin.CancelStride {
			if cc.Cancelled() {
				return cc.Err()
			}
			end := base + plugin.CancelStride
			if end > hi {
				end = hi
			}
			for obj := base; obj < end; obj++ {
				if oid != nil {
					regs.I[oid.Idx] = obj
					regs.Null[oid.Null] = false
				}
				for _, ex := range extracts {
					ex(regs, obj)
				}
				if err := consume(); err != nil {
					return err
				}
			}
		}
		return nil
	})
	// Profiling deltas, computed once at compile time (see ScanSpec.Prof):
	// bytes are the structural-index byte span of the object range; every
	// extract of a known field resolves through the Level-1/Level-0 index.
	nObjs := hi - lo
	if nObjs < 0 {
		nObjs = 0
	}
	var byteSpan int64
	if nObjs > 0 {
		end := int64(len(data))
		if hi < st.nObjs {
			end = int64(st.objStart[hi])
		}
		byteSpan = end - int64(st.objStart[lo])
	}
	indexedFields := int64(0)
	for _, req := range spec.Fields {
		if len(req.Path) == 0 {
			continue
		}
		if _, known := st.fieldIDs[plugin.FieldPathString(req.Path)]; known {
			indexedFields++
		}
	}
	return spec.Prof.WrapRun(run, byteSpan, nObjs*int64(len(extracts)), nObjs*indexedFields), nil
}
