// Fragment execution and the partial-state wire protocol: the exec-layer
// half of distributed scatter/gather (internal/cluster).
//
// A fragment is one morsel of a plan's driving scan executed to its
// pipeline breaker on a remote worker: scan → filter → partial aggregate.
// It is the worker unit of parallel.go — the same compileUnit call, the same
// batch kernels where the pipeline is batch-capable and the same tuple
// closures where it is not — except that the "worker" is another process.
// Which of the two a fragment compiles to is a static function of the plan,
// the catalog and Env.Vectorize; the coordinator never needs to know,
// because the wire vocabulary is the five mode-independent shapes below: a
// vectorized state and its tuple twin hold the same monoid partials (the
// partial() values parallel merging already exchanges), group_int names the
// single-int-key grouping both styles order by key at materialization, and
// rows are rows. The coordinator decodes each frame into the (tuple-typed)
// state it compiled and folds it in morsel order through the merge methods
// parallel.go uses — so the distributed result is byte-identical to the
// single-node one (float SUM/AVG reassociation aside, as for in-process
// parallelism).
//
// On the wire a partial is one binary frame (types.AppendValue for values):
//
//	"PRTF" version shape fingerprint names
//	rows shapes:   row field names (none = free-form rows), units, rows
//	agg shape:     units (= 1), the aggregate set (one per name)
//	group shapes:  keys per group, units, groups (the other names are aggregates)
//	end marker, units again
//
// Column and field names travel once, rows and groups carry values only,
// floats are raw IEEE-754 bits. A frame that ends before its end marker, or
// whose marker disagrees with its header, is a failed attempt, never data;
// so is one of another version — peers must run the same build, as they
// must already share catalogs and plan fingerprints.
package exec

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math"
	"reflect"
	"slices"

	"proteus/internal/algebra"
	"proteus/internal/cache"
	"proteus/internal/plugin"
	"proteus/internal/types"
)

// DrivingScan returns the plan's leftmost leaf scan — the pipeline's source
// operator, whose morsel ranges partition the work — or nil when the plan
// has no scan to drive it.
func DrivingScan(n algebra.Node) *algebra.Scan { return drivingScan(n) }

// Partial shapes: which root state a fragment frame carries. On the wire a
// shape is its index in wireShapes.
const (
	ShapeBare     = "bare"      // bare plan: plain rows
	ShapeCollect  = "collect"   // Reduce with a bag/list yield: plain rows
	ShapeAgg      = "agg"       // Reduce: one accumulator set
	ShapeGroup    = "group"     // Nest, general keys
	ShapeGroupInt = "group_int" // Nest, single int key (result ordered by key)
)

var wireShapes = [...]string{1: ShapeBare, ShapeCollect, ShapeAgg, ShapeGroup, ShapeGroupInt}

// An accumulator's partial state travels as the monoid's own partial value
// (accumulator.partial — the same value whichever execution style folded
// it), tagged on the wire by one of these kinds.
const (
	aggCount byte = iota + 1 // int64: rows counted
	aggInt                   // scalarPart[int64]: int sum/min/max
	aggFloat                 // scalarPart[float64]: float sum/min/max
	aggStr                   // scalarPart[string]: string min/max
	aggAvg                   // avgPart: sum and count
	aggElems                 // []types.Value: bag/list elements
)

// WireGroup is one group of a grouped frame: its key values (NumKeys of
// them; the single-int shape carries one, null for the NULL-key group) and
// one accumulator partial per remaining output column.
type WireGroup struct {
	Keys []types.Value
	Aggs []any
}

// Partial is one fragment's partial state, as run on the worker or as
// decoded on the coordinator.
type Partial struct {
	Shape       string
	Names       []string // output columns
	Fingerprint string
	// Rows (bare, collect). When every row is a record over the same field
	// names, the frame ships those once and the rows' values only.
	Rows []types.Value
	// Aggs is the one accumulator set of an agg frame, one partial per name.
	Aggs []any
	// Groups (group, group_int): the first NumKeys names are the keys, the
	// rest aggregates.
	Groups  []WireGroup
	NumKeys int

	wireBytes int
}

// numAggs is how many accumulators one set of an agg or grouped frame holds.
func (p *Partial) numAggs() int { return len(p.Names) - p.NumKeys }

// Units is the number of units the frame carries: rows, groups, or the one
// aggregate set.
func (p *Partial) Units() int {
	if p.Shape == ShapeAgg {
		return 1
	}
	return len(p.Rows) + len(p.Groups)
}

// WireBytes is the size of the frame this partial was decoded from (0 for
// one that never crossed the wire).
func (p *Partial) WireBytes() int { return p.wireBytes }

// state → Partial -----------------------------------------------------------

func partsOf[S any](states []S, part func(S) any) []any {
	out := make([]any, len(states))
	for i, st := range states {
		out[i] = part(st)
	}
	return out
}

func accPart(a *accumulator) any { return a.partial() }

// intKeysPartial fills in the group_int frame both single-int-key states
// serialize to: the NULL-key group first (when nullAggs is non-nil), then
// the keys in first-encounter order, aggs(i) being the accumulator
// partials of keys[i].
func intKeysPartial(p *Partial, nullAggs []any, keys []int64, aggs func(i int) []any) *Partial {
	p.Shape, p.NumKeys = ShapeGroupInt, 1
	p.Groups = make([]WireGroup, 0, len(keys)+1)
	if nullAggs != nil {
		p.Groups = append(p.Groups, WireGroup{Keys: []types.Value{types.NullValue()}, Aggs: nullAggs})
	}
	for i, k := range keys {
		p.Groups = append(p.Groups, WireGroup{Keys: []types.Value{types.IntValue(k)}, Aggs: aggs(i)})
	}
	return p
}

// sharedFieldNames returns the field names every row carries when all rows
// are records over one name list, nil otherwise (including for no rows).
func sharedFieldNames(rows []types.Value) []string {
	var names []string
	for i, row := range rows {
		if row.Kind != types.KindRecord || row.Rec == nil || len(row.Rec.Names) == 0 ||
			len(row.Rec.Values) != len(row.Rec.Names) {
			return nil
		}
		if i == 0 {
			names = row.Rec.Names
			continue
		}
		if len(row.Rec.Names) != len(names) {
			return nil
		}
		if &row.Rec.Names[0] == &names[0] {
			continue // the common case: one compiled constructor, one slice
		}
		for j, n := range row.Rec.Names {
			if n != names[j] {
				return nil
			}
		}
	}
	return names
}

// encodePartial turns a fragment run's final root state into its Partial.
// topK, when non-nil, is the ORDER BY … LIMIT k to apply to a rows-shaped
// state first (see CompileFragment); mem is charged for its sort buffer.
func encodePartial(st partialState, fp string, topK *SortSpec, mem *memGauge) (*Partial, error) {
	rowsPartial := func(shape string, names []string, rows []types.Value) (*Partial, error) {
		if topK != nil {
			// The sort buffer holds every row of the morsel, as the engine's
			// does for a local run; charge it the same way.
			if mem != nil {
				if err := mem.charge(64 * int64(len(rows))); err != nil {
					return nil, err
				}
			}
			res, err := OrderAndLimit(&Result{Rows: rows}, topK.By, topK.Desc, topK.Limit)
			if err != nil {
				return nil, err
			}
			rows = res.Rows
		}
		return &Partial{Shape: shape, Names: names, Fingerprint: fp, Rows: rows}, nil
	}
	switch s := st.(type) {
	case *barePartial:
		return rowsPartial(ShapeBare, s.names, s.rows)
	case *vecCollectPartial:
		res, err := s.result()
		if err != nil {
			return nil, err
		}
		return rowsPartial(ShapeCollect, res.Cols, res.Box().Rows)
	case *reducePartial:
		if s.collect {
			return rowsPartial(ShapeCollect, s.names, s.rows)
		}
		return &Partial{Shape: ShapeAgg, Names: s.names, Fingerprint: fp, Aggs: partsOf(s.accs, accPart)}, nil
	case *vecReducePartial:
		return &Partial{Shape: ShapeAgg, Names: s.names, Fingerprint: fp, Aggs: partsOf(s.aggs, func(a aggColumn) any { return a.part(0) })}, nil
	case *vecNestPartial:
		p := &Partial{Names: s.outNames, Fingerprint: fp}
		groupAggs := func(g int32) []any { return partsOf(s.aggs, func(a aggColumn) any { return a.part(g) }) }
		var nullAggs []any
		gids, keys := make([]int32, 0, len(s.keys)), make([]int64, 0, len(s.keys))
		for g, k := range s.keys {
			if g := int32(g); g == s.nullGid {
				nullAggs = groupAggs(g)
			} else {
				gids, keys = append(gids, g), append(keys, k)
			}
		}
		return intKeysPartial(p, nullAggs, keys, func(i int) []any { return groupAggs(gids[i]) }), nil
	case *nestPartial:
		p := &Partial{Names: s.outNames, Fingerprint: fp}
		if s.singleInt {
			var nullAggs []any
			if s.intNull != nil {
				nullAggs = partsOf(s.intNull, accPart)
			}
			return intKeysPartial(p, nullAggs, s.intOrder, func(i int) []any {
				return partsOf(s.intGroups[s.intOrder[i]], accPart)
			}), nil
		}
		p.Shape, p.NumKeys = ShapeGroup, s.numKeys
		p.Groups = make([]WireGroup, len(s.order))
		for i, g := range s.order {
			p.Groups[i] = WireGroup{Keys: g.keyVals, Aggs: partsOf(g.accs, accPart)}
		}
		return p, nil
	}
	return nil, fmt.Errorf("exec: fragment state %T is not serializable", st)
}

// frame codec ---------------------------------------------------------------

const (
	frameMagic   = "PRTF"
	frameVersion = 1
	frameEnd     = 0xFF

	// MaxFrameBytes bounds one partial-state frame. The decoder reads no
	// further than this from a peer and allocates in proportion to what it
	// actually read, so the bound is also what a hostile peer can cost.
	MaxFrameBytes = 256 << 20
)

// errFrameTooLarge reports a frame longer than the cap.
var errFrameTooLarge = fmt.Errorf("exec: fragment frame exceeds %d bytes", MaxFrameBytes)

// EncodeStream writes the partial as one binary frame (see the package
// comment for the layout).
func (p *Partial) EncodeStream(w io.Writer) error {
	frame, err := p.appendFrame(make([]byte, 0, 64+32*len(p.Rows)+16*len(p.Groups)*len(p.Names)))
	if err != nil {
		return err
	}
	_, err = w.Write(frame)
	return err
}

func appendStrings(dst []byte, ss []string) []byte {
	dst = binary.AppendUvarint(dst, uint64(len(ss)))
	for _, s := range ss {
		dst = types.AppendString(dst, s)
	}
	return dst
}

func appendFloat(dst []byte, f float64) []byte {
	return binary.LittleEndian.AppendUint64(dst, math.Float64bits(f))
}

func flag(b bool) byte {
	if b {
		return 1
	}
	return 0
}

func appendAggs(dst []byte, parts []any) ([]byte, error) {
	for _, part := range parts {
		switch p := part.(type) {
		case int64:
			dst = binary.AppendVarint(append(dst, aggCount), p)
		case scalarPart[int64]:
			dst = binary.AppendVarint(append(dst, aggInt, flag(p.seen)), p.v)
		case scalarPart[float64]:
			dst = appendFloat(append(dst, aggFloat, flag(p.seen)), p.v)
		case scalarPart[string]:
			dst = types.AppendString(append(dst, aggStr, flag(p.seen)), p.v)
		case avgPart:
			dst = binary.AppendVarint(appendFloat(append(dst, aggAvg), p.sum), p.n)
		case []types.Value:
			dst = binary.AppendUvarint(append(dst, aggElems), uint64(len(p)))
			for _, e := range p {
				dst = types.AppendValue(dst, e)
			}
		default:
			return nil, fmt.Errorf("exec: aggregate state %T is not wire-encodable", part)
		}
	}
	return dst, nil
}

func (p *Partial) appendFrame(dst []byte) (_ []byte, err error) {
	shape := slices.Index(wireShapes[:], p.Shape)
	if shape <= 0 {
		return nil, fmt.Errorf("exec: partial has unknown shape %q", p.Shape)
	}
	dst = append(dst, frameMagic...)
	dst = append(dst, frameVersion, byte(shape))
	dst = types.AppendString(dst, p.Fingerprint)
	dst = appendStrings(dst, p.Names)
	units := uint64(p.Units())
	switch p.Shape {
	case ShapeBare, ShapeCollect:
		fields := sharedFieldNames(p.Rows)
		dst = appendStrings(dst, fields)
		dst = binary.AppendUvarint(dst, units)
		for _, row := range p.Rows {
			if fields == nil {
				dst = types.AppendValue(dst, row)
				continue
			}
			for _, v := range row.Rec.Values {
				dst = types.AppendValue(dst, v)
			}
		}
	case ShapeAgg:
		if len(p.Aggs) != len(p.Names) {
			return nil, fmt.Errorf("exec: partial has %d aggregates for %d columns", len(p.Aggs), len(p.Names))
		}
		dst = binary.AppendUvarint(dst, units)
		if dst, err = appendAggs(dst, p.Aggs); err != nil {
			return nil, err
		}
	default:
		dst = binary.AppendUvarint(dst, uint64(p.NumKeys))
		dst = binary.AppendUvarint(dst, units)
		for _, g := range p.Groups {
			if len(g.Keys) != p.NumKeys || len(g.Aggs) != p.numAggs() {
				return nil, fmt.Errorf("exec: partial group is %d keys × %d aggregates, frame says %d × %d",
					len(g.Keys), len(g.Aggs), p.NumKeys, p.numAggs())
			}
			for _, k := range g.Keys {
				dst = types.AppendValue(dst, k)
			}
			if dst, err = appendAggs(dst, g.Aggs); err != nil {
				return nil, err
			}
		}
	}
	dst = append(dst, frameEnd)
	return binary.AppendUvarint(dst, units), nil
}

// DecodePartialStream reads one frame from r (to EOF, at most MaxFrameBytes)
// and decodes it. Truncated frames, unit-count mismatches, unknown versions
// and malformed or trailing bytes all fail loudly — the coordinator treats
// every such failure as a failed attempt, never as data.
func DecodePartialStream(r io.Reader) (*Partial, error) {
	return decodePartialStream(r, MaxFrameBytes)
}

func decodePartialStream(r io.Reader, maxBytes int) (*Partial, error) {
	frame, err := io.ReadAll(io.LimitReader(r, int64(maxBytes)+1))
	if err != nil {
		return nil, fmt.Errorf("exec: reading fragment frame: %w", err)
	}
	if len(frame) > maxBytes {
		return nil, errFrameTooLarge
	}
	fr := frameReader{b: frame}
	p := fr.partial()
	if fr.err != nil {
		return nil, fmt.Errorf("exec: malformed fragment frame: %w", fr.err)
	}
	p.wireBytes = len(frame)
	return p, nil
}

// frameReader consumes a frame front to back. The first failure sticks and
// empties the buffer, so every later read fails fast and loops need only
// test err once per unit.
type frameReader struct {
	b   []byte
	err error
}

func (r *frameReader) fail(err error) {
	if r.err == nil {
		r.err = err
	}
	r.b = nil
}

func (r *frameReader) byte() byte {
	if len(r.b) == 0 {
		r.fail(types.ErrTruncated)
		return 0
	}
	c := r.b[0]
	r.b = r.b[1:]
	return c
}

func (r *frameReader) bool() bool {
	c := r.byte()
	if c > 1 {
		r.fail(fmt.Errorf("flag byte is %d", c))
	}
	return c == 1
}

// count reads the number of items that follow, each at least minBytes long.
func (r *frameReader) count(minBytes int) int {
	n, rest, err := types.DecodeCount(r.b, minBytes)
	if err != nil {
		r.fail(err)
		return 0
	}
	r.b = rest
	return n
}

func (r *frameReader) varint() int64 {
	v, n := binary.Varint(r.b)
	if n <= 0 {
		r.fail(types.ErrTruncated)
		return 0
	}
	r.b = r.b[n:]
	return v
}

func (r *frameReader) float() float64 {
	if len(r.b) < 8 {
		r.fail(types.ErrTruncated)
		return 0
	}
	f := math.Float64frombits(binary.LittleEndian.Uint64(r.b))
	r.b = r.b[8:]
	return f
}

func (r *frameReader) str() string {
	s, rest, err := types.DecodeString(r.b)
	if err != nil {
		r.fail(err)
		return ""
	}
	r.b = rest
	return s
}

func (r *frameReader) strs() []string {
	out := make([]string, r.count(1))
	for i := range out {
		out[i] = r.str()
	}
	return out
}

func (r *frameReader) values(dst []types.Value) {
	for i := range dst {
		v, rest, err := types.DecodeValue(r.b)
		if err != nil {
			r.fail(err)
			return
		}
		dst[i], r.b = v, rest
	}
}

func (r *frameReader) aggs(dst []any) {
	for i := range dst {
		switch kind := r.byte(); kind {
		case aggCount:
			dst[i] = r.varint()
		case aggInt:
			dst[i] = scalarPart[int64]{seen: r.bool(), v: r.varint()}
		case aggFloat:
			dst[i] = scalarPart[float64]{seen: r.bool(), v: r.float()}
		case aggStr:
			dst[i] = scalarPart[string]{seen: r.bool(), v: r.str()}
		case aggAvg:
			dst[i] = avgPart{sum: r.float(), n: r.varint()}
		case aggElems:
			elems := make([]types.Value, r.count(1))
			r.values(elems)
			dst[i] = elems
		default:
			r.fail(fmt.Errorf("unknown aggregate kind %d", kind))
		}
		if r.err != nil {
			return
		}
	}
}

// minAggBytes is the shortest encoded aggregate: a kind byte and a varint.
const minAggBytes = 2

func (r *frameReader) partial() *Partial {
	if len(r.b) < len(frameMagic) || string(r.b[:len(frameMagic)]) != frameMagic {
		r.fail(errors.New("not a partial-state frame"))
		return nil
	}
	r.b = r.b[len(frameMagic):]
	if v := r.byte(); v != frameVersion && r.err == nil {
		r.fail(fmt.Errorf("frame has wire version %d, this node speaks %d", v, frameVersion))
	}
	shape := int(r.byte())
	if r.err == nil && (shape == 0 || shape >= len(wireShapes)) {
		r.fail(fmt.Errorf("unknown shape %d", shape))
	}
	if r.err != nil {
		return nil
	}
	p := &Partial{Shape: wireShapes[shape], Fingerprint: r.str(), Names: r.strs()}
	var units int
	switch p.Shape {
	case ShapeBare, ShapeCollect:
		fields := r.strs()
		width := len(fields)
		if width == 0 {
			units = r.count(1)
			p.Rows = make([]types.Value, units)
			r.values(p.Rows)
			break
		}
		units = r.count(width) // a row is at least one byte per field
		p.Rows = make([]types.Value, units)
		vals := make([]types.Value, units*width)
		recs := make([]types.Record, units)
		r.values(vals)
		for i := range p.Rows {
			recs[i] = types.Record{Names: fields, Values: vals[i*width : (i+1)*width : (i+1)*width]}
			p.Rows[i] = types.Value{Kind: types.KindRecord, Rec: &recs[i]}
		}
	case ShapeAgg:
		if units = r.count(1 + minAggBytes*len(p.Names)); units != 1 && r.err == nil {
			r.fail(fmt.Errorf("aggregate frame carries %d aggregate sets", units))
		}
		p.Aggs = make([]any, units*len(p.Names))
		r.aggs(p.Aggs)
	default:
		// A key or name count is bounded by the bytes read so far (every name
		// took at least one), so the widths below cannot overflow.
		p.NumKeys = r.count(1)
		if r.err == nil && (p.NumKeys == 0 || p.NumKeys > len(p.Names)) {
			r.fail(fmt.Errorf("grouped frame has %d keys among %d columns", p.NumKeys, len(p.Names)))
		}
		if r.err != nil {
			return nil
		}
		nk, na := p.NumKeys, p.numAggs()
		units = r.count(nk + minAggBytes*na)
		p.Groups = make([]WireGroup, units)
		keys := make([]types.Value, units*nk)
		aggs := make([]any, units*na)
		for i := range p.Groups {
			g := &p.Groups[i]
			g.Keys = keys[i*nk : (i+1)*nk : (i+1)*nk]
			g.Aggs = aggs[i*na : (i+1)*na : (i+1)*na]
			r.values(g.Keys)
			r.aggs(g.Aggs)
			if r.err != nil {
				return nil
			}
		}
	}
	if end := r.byte(); end != frameEnd && r.err == nil {
		r.fail(fmt.Errorf("end marker is %#x", end))
	}
	trailer, n := binary.Uvarint(r.b)
	switch {
	case r.err != nil:
	case n <= 0:
		r.fail(types.ErrTruncated)
	case trailer != uint64(units):
		r.fail(fmt.Errorf("end marker expects %d units, frame declared %d", trailer, units))
	case len(r.b) > n:
		r.fail(fmt.Errorf("%d bytes after the end marker", len(r.b)-n))
	}
	return p
}

// fragment compilation ------------------------------------------------------

// FragmentProgram is one compiled fragment: a single morsel-restricted
// pipeline clone whose run ends at the pipeline breaker and serializes the
// thread-local partial state instead of materializing rows.
type FragmentProgram struct {
	unit      *workerUnit
	topK      *SortSpec // ORDER BY … LIMIT k pushed into a rows-shaped fragment; nil otherwise
	cancel    *plugin.Cancel
	mem       *memGauge
	sh        *sharedRun
	caches    *cache.Manager
	totalRows int64

	// Fingerprint is the compiled plan's structural fingerprint; the
	// coordinator cross-checks it so a worker whose catalog or statistics
	// diverged never contributes a mismatched partial.
	Fingerprint string
	// Start and End are the fragment's record-ordinal morsel range.
	Start, End int64
}

// CompileFragment compiles one morsel of plan's driving scan, [start, end)
// in record ordinals, into a fragment program: the same worker unit, under
// the same Env.Vectorize, a local morsel clone would be.
//
// Env.Sort is honoured only as a top-k pushdown: when it carries a LIMIT k
// and the root state is rows (bare/collect), the fragment orders its rows
// by the spec and ships the first k. A row past position k within one
// morsel can never be among the global first k, and the coordinator still
// concatenates in morsel order and applies its own stable sort, so the
// index tiebreak — and with it the result — is unchanged. ORDER BY without
// LIMIT is not pushed down (every row ships anyway; sorting twice buys
// nothing), and neither is one above an aggregate (its keys are computed
// from merged groups, which no single fragment has).
func CompileFragment(plan algebra.Node, env *Env, start, end int64) (*FragmentProgram, error) {
	drive := drivingScan(plan)
	if drive == nil {
		return nil, fmt.Errorf("exec: plan has no driving scan to fragment")
	}
	ds, in, err := env.Catalog.Dataset(drive.Dataset)
	if err != nil {
		return nil, err
	}
	rows := in.Cardinality(ds)
	if start < 0 || end < start || end > rows {
		return nil, fmt.Errorf("exec: fragment range [%d,%d) outside dataset %s (%d rows)",
			start, end, drive.Dataset, rows)
	}
	envCopy := *env
	if envCopy.Sort != nil && envCopy.Sort.Limit <= 0 {
		envCopy.Sort = nil
	}
	envCopy.Profile = nil
	morsel := plugin.Morsel{Start: start, End: end}
	sh := newSharedRun(1)
	c := &Compiler{
		env: &envCopy, driveScan: drive, morsel: &morsel, shared: sh,
		cancel: &plugin.Cancel{}, mem: newMemGauge(env.MemBudget),
	}
	u, err := c.compileUnit(plan)
	if err != nil {
		return nil, err
	}
	return &FragmentProgram{
		unit: u, topK: envCopy.Sort, cancel: c.cancel, mem: c.mem,
		sh: sh, caches: envCopy.Caches, totalRows: rows,
		Fingerprint: plan.Fingerprint(), Start: start, End: end,
	}, nil
}

// RunContext executes the fragment under ctx — the same cancellation,
// memory-budget, and panic-barrier contract as Program.RunUnboxed — and
// returns its serialized partial state. A fragment whose morsel happens to
// cover the whole dataset still registers complete cache blocks; partial
// morsels never do (finishCaches requires the fragments to tile the
// dataset, and a single partial fragment cannot).
func (f *FragmentProgram) RunContext(ctx context.Context) (p *Partial, err error) {
	if ctx.Err() != nil {
		return nil, context.Cause(ctx)
	}
	if f.mem != nil {
		f.mem.reset()
	}
	gen := f.cancel.Arm()
	if ctx.Done() != nil {
		stop := context.AfterFunc(ctx, func() {
			f.cancel.SignalAt(gen, context.Cause(ctx))
		})
		defer stop()
	}
	defer func() {
		if rec := recover(); rec != nil {
			p, err = nil, newPanicError(f.Fingerprint, rec)
		}
	}()
	f.sh.reset()
	if err := f.unit.exec(); err != nil {
		return nil, err
	}
	if f.caches != nil {
		f.sh.finishCaches(f.caches, f.totalRows)
	}
	topK := f.topK
	if f.unit.sorted {
		topK = nil // the columnar collect already ordered and cut its rows
	}
	return encodePartial(f.unit.state, f.Fingerprint, topK, f.mem)
}

// merge state ---------------------------------------------------------------

// MergeState is the coordinator-side gather half: the stable merge API over
// the partial states parallel.go merges in-process. Compile one per
// distributed query, feed it every fragment's Partial in morsel order, then
// materialize. MergeState is not safe for concurrent Merge calls.
type MergeState struct {
	st partialState
	// want is the frame an empty fragment of this plan sends: the shape,
	// columns, fingerprint and widths every real frame must repeat.
	want *Partial
	// aggTypes are the partial types of the plan's accumulators, checked
	// before a (type-asserting) absorb runs.
	aggTypes []reflect.Type
}

// CompileMergeState compiles plan just far enough to own a mergeable root
// state. It always compiles the tuple-typed state (Vectorize forced off):
// frames are mode-independent, so one decoder serves whatever style the
// workers ran, and merging is a vanishing share of a distributed query. The
// compiled scan closures are discarded; only the state and its accumulator
// constructors are kept.
func CompileMergeState(plan algebra.Node, env *Env) (*MergeState, error) {
	envCopy := *env
	envCopy.Vectorize = VecOff
	envCopy.Sort = nil
	envCopy.Profile = nil
	envCopy.Metrics = nil
	c := &Compiler{env: &envCopy, cancel: &plugin.Cancel{}, mem: newMemGauge(envCopy.MemBudget)}
	u, err := c.compileUnit(plan)
	if err != nil {
		return nil, err
	}
	u.state.reset()
	want, err := encodePartial(u.state, plan.Fingerprint(), nil, nil)
	if err != nil {
		return nil, err
	}
	protos := want.Aggs
	if nest, ok := u.state.(*nestPartial); ok {
		protos = partsOf(nest.freshAccs(), accPart)
	}
	if _, err := appendAggs(nil, protos); err != nil {
		return nil, err
	}
	m := &MergeState{st: u.state, want: want}
	for _, part := range protos {
		m.aggTypes = append(m.aggTypes, reflect.TypeOf(part))
	}
	return m, nil
}

// Fingerprint returns the plan fingerprint fragments must echo.
func (m *MergeState) Fingerprint() string { return m.want.Fingerprint }

// validate cross-checks one frame against the compiled plan before any of
// it is decoded into accumulators.
func (m *MergeState) validate(p *Partial) error {
	w := m.want
	if p.Fingerprint != "" && p.Fingerprint != w.Fingerprint {
		return fmt.Errorf("exec: fragment plan fingerprint %s does not match coordinator plan %s", p.Fingerprint, w.Fingerprint)
	}
	if p.Shape != w.Shape {
		return fmt.Errorf("exec: fragment shape %q does not match plan shape %q", p.Shape, w.Shape)
	}
	if !slices.Equal(p.Names, w.Names) {
		return fmt.Errorf("exec: fragment columns %v do not match plan columns %v", p.Names, w.Names)
	}
	if p.NumKeys != w.NumKeys {
		return fmt.Errorf("exec: fragment groups by %d keys, plan by %d", p.NumKeys, w.NumKeys)
	}
	return nil
}

// Merge decodes one fragment frame and folds it into the state through the
// same partialState.merge the in-process parallel path uses. Frames MUST
// arrive in morsel order for bag/collect shapes and group first-encounter
// order (the caller gathers concurrently but merges sequentially).
func (m *MergeState) Merge(p *Partial) error {
	if err := m.validate(p); err != nil {
		return err
	}
	other, err := m.decode(p)
	if err != nil {
		return err
	}
	return m.st.merge(other)
}

// absorb folds one wire accumulator set into freshly constructed accs.
func (m *MergeState) absorb(accs []*accumulator, parts []any) ([]*accumulator, error) {
	if len(parts) != len(accs) {
		return nil, fmt.Errorf("exec: fragment carries %d aggregates, plan has %d", len(parts), len(accs))
	}
	for i, part := range parts {
		if reflect.TypeOf(part) != m.aggTypes[i] {
			return nil, fmt.Errorf("exec: fragment aggregate %d is a %T, plan has %s", i, part, m.aggTypes[i])
		}
		accs[i].absorb(part)
	}
	return accs, nil
}

// decode materializes a frame as a partialState of the same concrete type
// as the compiled root state.
func (m *MergeState) decode(p *Partial) (partialState, error) {
	switch st := m.st.(type) {
	case *barePartial:
		return &barePartial{names: st.names, rows: p.Rows}, nil
	case *reducePartial:
		if st.collect {
			return &reducePartial{collect: true, names: st.names, out: st.out, rows: p.Rows}, nil
		}
		accs := make([]*accumulator, len(st.accs))
		for i, a := range st.accs {
			accs[i] = a.fresh()
		}
		accs, err := m.absorb(accs, p.Aggs)
		return &reducePartial{names: st.names, accs: accs}, err
	case *nestPartial:
		return m.decodeNest(st, p)
	}
	return nil, fmt.Errorf("exec: merge state %T cannot decode fragments", m.st)
}

func (m *MergeState) decodeNest(st *nestPartial, p *Partial) (partialState, error) {
	other := &nestPartial{
		outNames:  st.outNames,
		numKeys:   st.numKeys,
		freshAccs: st.freshAccs,
		singleInt: st.singleInt,
	}
	other.reset()
	for _, wg := range p.Groups {
		if len(wg.Keys) != st.numKeys {
			return nil, fmt.Errorf("exec: fragment group carries %d keys, plan groups by %d", len(wg.Keys), st.numKeys)
		}
		accs, err := m.absorb(st.freshAccs(), wg.Aggs)
		if err != nil {
			return nil, err
		}
		if !st.singleInt {
			// The group hash is recomputed exactly as the fold path computes it,
			// so merge's hash-bucketed key lookup finds cross-fragment matches.
			g := &group{hash: hashKeys(wg.Keys), keyVals: wg.Keys, accs: accs}
			for _, cand := range other.groups[g.hash] {
				if sameKeys(cand.keyVals, g.keyVals) {
					return nil, fmt.Errorf("exec: fragment carries duplicate group")
				}
			}
			other.groups[g.hash] = append(other.groups[g.hash], g)
			other.order = append(other.order, g)
			continue
		}
		switch k := wg.Keys[0]; k.Kind {
		case types.KindNull:
			if other.intNull != nil {
				return nil, fmt.Errorf("exec: fragment carries duplicate NULL group")
			}
			other.intNull = accs
		case types.KindInt:
			if _, dup := other.intGroups[k.I]; dup {
				return nil, fmt.Errorf("exec: fragment carries duplicate group key %d", k.I)
			}
			other.intGroups[k.I] = accs
			other.intOrder = append(other.intOrder, k.I)
		default:
			return nil, fmt.Errorf("exec: single-int fragment group key has kind %s", k.Kind)
		}
	}
	return other, nil
}

// Result materializes the merged rows — identical to what the single-node
// program would have produced over the union of the fragments' morsels.
func (m *MergeState) Result() (*Result, error) { return m.st.result() }
