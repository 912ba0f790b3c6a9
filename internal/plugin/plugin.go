// Package plugin defines the input plug-in API of the paper (Table 2).
// Input plug-ins encapsulate data *format* heterogeneity: each one knows how
// to open a dataset of its format, build the format's structural index,
// gather statistics on cold access, and — most importantly — emit the
// specialized data-access code for a scan or an unnest at query compile
// time.
//
// Correspondence with the paper's plug-in API (Table 2):
//
//	generate()                    → CompileScan (the scan loop + field
//	                                extraction specialized to the query's
//	                                field list and the dataset's schema)
//	readValue() / readPath()      → the per-field extraction closures that
//	                                CompileScan installs for each FieldReq
//	unnestInit/HasNext/GetNext()  → CompileUnnest (one closure that drives
//	                                the element loop of a nested collection)
//	hashValue() / flushValue()    → handled by the expression compiler in
//	                                internal/exec, which reads the typed
//	                                virtual buffers the plug-in filled
//
// Every plug-in also produces an object identifier (OID) per record — the
// row counter for flat data, the object ordinal for JSON — which later
// stages use to re-invoke the plug-in lazily (e.g. to unnest a collection
// of the current record without materializing it).
package plugin

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"

	"proteus/internal/cache"
	"proteus/internal/stats"
	"proteus/internal/storage"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// Cancel is the cooperative cancellation token shared by every pipeline
// clone of one compiled program. Scan drivers poll Cancelled at an
// amortized stride (see CancelStride) and abort with Err when it fires.
//
// The token outlives a single run: a Program may be executed repeatedly,
// and each run Arms a new generation. SignalAt ignores signals addressed
// to an earlier generation, so a stale context.AfterFunc from a previous
// run can never cancel a later one. All methods are nil-safe so compiled
// closures can poll unconditionally.
type Cancel struct {
	fired atomic.Bool

	mu  sync.Mutex
	gen uint64
	err error
}

// CancelStride is the row-granularity at which scan drivers poll the
// token: rows whose ordinal is a multiple of the stride pay one atomic
// load; all others pay a single mask-and-compare.
const CancelStride = 1024

// Arm starts a new run generation, clearing any previous signal, and
// returns the generation to hand to SignalAt.
func (c *Cancel) Arm() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.gen++
	c.err = nil
	c.fired.Store(false)
	return c.gen
}

// SignalAt fires the token if gen is still the current generation and no
// earlier signal won. Later signals for the same generation are ignored.
func (c *Cancel) SignalAt(gen uint64, err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if gen != c.gen || c.fired.Load() {
		return
	}
	c.err = err
	c.fired.Store(true)
}

// Signal fires the token for the current generation. Workers use it to
// abort their siblings when one pipeline clone fails.
func (c *Cancel) Signal(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.fired.Load() {
		return
	}
	c.err = err
	c.fired.Store(true)
}

// Cancelled reports whether the token has fired. Nil-safe and cheap (one
// atomic load), so drivers poll it directly.
func (c *Cancel) Cancelled() bool { return c != nil && c.fired.Load() }

// Err returns the signalled error, or nil if the token has not fired.
func (c *Cancel) Err() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Env carries the engine services a plug-in may use.
type Env struct {
	Mem   *storage.Manager
	Stats *stats.Store
	// SampleEvery is the statistics sampling stride during cold access:
	// every SampleEvery-th record contributes to min/max statistics. The
	// paper lets plug-in developers calibrate this (§5.2); 0 disables
	// sampling.
	SampleEvery int
}

// Options carries per-dataset, format-specific settings.
type Options struct {
	// CSV options.
	Delimiter   byte // field delimiter, ',' by default
	Header      bool // first line holds column names
	IndexStride int  // structural index keeps every Nth field position (default 8)

	// Binary options.
	Columnar bool // column-major layout (MonetDB-like) vs row-major

	// JSON options.
	DisableLevel0        bool // ablation: force sequential Level-1 lookup
	DisableDeterministic bool // ablation: never drop Level 0 for fixed-schema data
}

// Dataset is a registered input: a name, a file (real or in-memory), a
// format, and a schema. State is owned by the plug-in after Open.
type Dataset struct {
	Name   string
	Path   string
	Format string
	Schema *types.RecordType
	Opts   Options

	// State holds the plug-in's open state: file image, structural index,
	// parsed headers. Nil until Open succeeds.
	State any
}

// FieldReq asks the plug-in to place one (possibly nested, dotted) field of
// each record into a virtual-buffer slot.
type FieldReq struct {
	Path []string
	Slot vbuf.Slot
	Type types.Type
}

// Morsel is one unit of scan parallelism: a contiguous range of record
// ordinals [Start, End). Plug-ins compute morsel boundaries from their
// structural indexes (byte-balanced and snapped to record boundaries for
// the raw formats), so a morsel is always a whole number of records.
type Morsel struct {
	Start, End int64
}

// Rows returns the number of records the morsel covers.
func (m Morsel) Rows() int64 { return m.End - m.Start }

// ScanSpec describes what a scan must extract.
type ScanSpec struct {
	Fields []FieldReq
	// OIDSlot, when non-nil, receives each record's OID (an int64).
	OIDSlot *vbuf.Slot
	// Morsel, when non-nil, restricts the scan driver to the record range
	// [Morsel.Start, Morsel.End). OIDs remain absolute ordinals, so cache
	// loads and lazy unnests keyed by OID work unchanged under parallelism.
	Morsel *Morsel
	// Prof, when non-nil, receives the plug-in's access counters. The
	// driver owns it exclusively (one per pipeline clone), so plug-ins add
	// to it without synchronization — at most once per stride window or
	// batch, never per record.
	Prof *ScanProf
	// Cancel, when non-nil, is the query's cooperative cancellation token.
	// Drivers poll it between batches of CancelStride records and return
	// its Err when it fires. A nil token never fires.
	Cancel *Cancel
	// Skip, when non-nil, reports that no record in [lo, hi) can satisfy
	// the query's pushed-down predicates (a zone-map test). Drivers that
	// honour it drop such CancelStride windows without decoding them; the
	// caller sets it only when nothing below the filters needs every row.
	Skip func(lo, hi int64) bool
}

// ScanProf accumulates a scan plug-in's access counters across the driver
// invocations of one worker. Bytes are the source-format span covered;
// fields are individual extract/parse operations; index hits are lookups
// served by the format's structural index (CSV positional jumps, JSON
// Level-0/Level-1 resolutions).
type ScanProf struct {
	BytesRead    int64
	FieldsParsed int64
	IndexHits    int64
}

// Add folds another profile into this one (snapshot aggregation).
func (p *ScanProf) Add(o ScanProf) {
	p.BytesRead += o.BytesRead
	p.FieldsParsed += o.FieldsParsed
	p.IndexHits += o.IndexHits
}

// WrapRun wraps a scan driver so each invocation adds the precomputed
// per-run deltas — the shared per-morsel accounting path of the plug-ins.
func (p *ScanProf) WrapRun(run RunFunc, bytes, fields, indexHits int64) RunFunc {
	if p == nil {
		return run
	}
	return func(regs *vbuf.Regs, consume func() error) error {
		p.BytesRead += bytes
		p.FieldsParsed += fields
		p.IndexHits += indexHits
		return run(regs, consume)
	}
}

// RunFunc drives a compiled scan: it loops over the dataset, fills the
// requested slots for each record, and calls consume once per record.
type RunFunc func(regs *vbuf.Regs, consume func() error) error

// BatchRunFunc drives a vectorized scan: it fills the requested slots'
// *columns* of b for up to vbuf.BatchSize records at a time, resets the
// selection vector, and calls consume once per batch. regs is passed along
// for producers that internally reuse tuple extraction (BatchFromTuples);
// columnar producers ignore it. Drivers poll the cancellation token once
// per batch — the same granularity as the tuple path's CancelStride.
type BatchRunFunc func(regs *vbuf.Regs, b *vbuf.Batch, consume func() error) error

// BatchScanner is the optional vectorized-scan capability of an input
// plug-in: CompileBatchScan returns a driver that produces column batches
// instead of tuples. Plug-ins may return ErrUnsupported for field lists
// they cannot vectorize (nested paths, whole-record boxing); the executor
// then falls back to BatchFromTuples over the tuple scan, or to the tuple
// path entirely.
type BatchScanner interface {
	CompileBatchScan(ds *Dataset, spec ScanSpec) (BatchRunFunc, error)
}

// LaneLoader fills one slot's column of b for the records b.Base+j: every
// lane [0, b.N) while the whole batch is still selected, only the lanes of
// b.Sel otherwise. It is the late half of predicate-first materialization:
// the executor runs it after the filters that do not read the column, so a
// selective filter leaves most of the column undecoded.
type LaneLoader func(b *vbuf.Batch)

// LaneLoaders is the optional late-materialization capability of a batch
// scanner: CompileLaneLoaders returns one loader per spec.Fields entry (in
// order), charging what they decode to spec.Prof. Formats whose records must
// be parsed whole to reach a field return ErrUnsupported.
type LaneLoaders interface {
	CompileLaneLoaders(ds *Dataset, spec ScanSpec) ([]LaneLoader, error)
}

// ZoneMapper is the optional zone-map capability of an input plug-in:
// per-ZoneSize-record min/max of a column, for skipping windows a pushed
// predicate cannot match (ScanSpec.Skip). It returns nil when the column
// has none.
type ZoneMapper interface {
	ZoneMaps(ds *Dataset, column string) *cache.ZoneMaps
}

// BatchFromTuples lifts a tuple scan driver into a batch driver: it runs
// the tuple scan and transposes each record's scalar slots (and OID) into
// batch columns, flushing a batch every vbuf.BatchSize records and at EOF.
// This is the generic producer for formats whose extraction is inherently
// record-at-a-time (JSON); the downstream kernels still win by running
// vectorized. Every spec.Fields slot must be scalar (no ClassValue).
func BatchFromTuples(run RunFunc, spec ScanSpec) BatchRunFunc {
	fields := append([]FieldReq(nil), spec.Fields...)
	oid := spec.OIDSlot
	return func(regs *vbuf.Regs, b *vbuf.Batch, consume func() error) error {
		// Materialize every column (and null column) once up front so the
		// per-record copy loop below touches pre-sized arrays only.
		type colCopy func(j int)
		copies := make([]colCopy, 0, len(fields)+1)
		for _, f := range fields {
			slot := f.Slot
			nulls := b.Nulls(slot.Null)
			switch slot.Class {
			case vbuf.ClassInt:
				col := b.Ints(slot.Idx)
				copies = append(copies, func(j int) {
					col[j] = regs.I[slot.Idx]
					nulls[j] = regs.Null[slot.Null]
				})
			case vbuf.ClassFloat:
				col := b.Floats(slot.Idx)
				copies = append(copies, func(j int) {
					col[j] = regs.F[slot.Idx]
					nulls[j] = regs.Null[slot.Null]
				})
			case vbuf.ClassBool:
				col := b.Bools(slot.Idx)
				copies = append(copies, func(j int) {
					col[j] = regs.B[slot.Idx]
					nulls[j] = regs.Null[slot.Null]
				})
			case vbuf.ClassString:
				col := b.Strs(slot.Idx)
				copies = append(copies, func(j int) {
					col[j] = regs.S[slot.Idx]
					nulls[j] = regs.Null[slot.Null]
				})
			default:
				copies = append(copies, func(j int) { nulls[j] = true })
			}
		}
		if oid != nil {
			col := b.Ints(oid.Idx)
			b.Null[oid.Null] = nil
			copies = append(copies, func(j int) { col[j] = regs.I[oid.Idx] })
		}
		n := 0
		flush := func() error {
			if n == 0 {
				return nil
			}
			b.ResetSel(n)
			if oid != nil {
				b.Base = b.I[oid.Idx][0]
			}
			n = 0
			return consume()
		}
		err := run(regs, func() error {
			for _, cp := range copies {
				cp(n)
			}
			n++
			if n == vbuf.BatchSize {
				return flush()
			}
			return nil
		})
		if err != nil {
			return err
		}
		return flush()
	}
}

// UnnestSpec describes iteration over a nested collection field of the
// *current* record (identified by the OID previously placed in OIDSlot).
type UnnestSpec struct {
	OIDSlot vbuf.Slot
	Path    []string
	// For collections of records, ElemFields lists the element fields to
	// extract per element. For scalar elements, ElemSlot receives the value.
	ElemFields []FieldReq
	ElemSlot   *vbuf.Slot
	ElemType   types.Type
}

// UnnestFunc iterates the collection of the current record, filling element
// slots and calling consume once per element.
type UnnestFunc func(regs *vbuf.Regs, consume func() error) error

// ErrUnsupported is returned by plug-ins for operations their format cannot
// provide (e.g. lazy unnest on flat CSV data); callers fall back to the
// generic boxed-value path.
var ErrUnsupported = errors.New("plugin: operation not supported by this format")

// Input is the interface every input plug-in implements. Adding support for
// a new data format to the engine means implementing Input and registering
// it (§5.2 "Adding More Inputs").
type Input interface {
	// Format returns the format tag this plug-in serves ("csv", "json", ...).
	Format() string

	// Open loads the dataset: reads/pins the file image via env.Mem, builds
	// the format's structural index, infers the schema if none was declared,
	// and records statistics into env.Stats (cold-access gathering, §5.2).
	Open(env *Env, ds *Dataset) error

	// Schema returns the dataset's record schema (available after Open).
	Schema(ds *Dataset) *types.RecordType

	// Cardinality returns the number of records (available after Open).
	Cardinality(ds *Dataset) int64

	// FieldCost returns the relative per-field access cost of this format,
	// used by the cost formulas the plug-in provides to the optimizer.
	FieldCost() float64

	// CompileScan returns the specialized scan code for this dataset and
	// field list — the plug-in's generate() step.
	CompileScan(ds *Dataset, spec ScanSpec) (RunFunc, error)

	// CompileUnnest returns specialized element-iteration code for a nested
	// collection, or ErrUnsupported for flat formats.
	CompileUnnest(ds *Dataset, spec UnnestSpec) (UnnestFunc, error)

	// ReadRows decodes the entire dataset into boxed record values. This is
	// the deliberately general-purpose path the baseline engines use to
	// ingest data, and what Proteus itself uses only for nested values that
	// must be materialized.
	ReadRows(ds *Dataset) ([]types.Value, error)
}

// Partitioner is the optional morsel-splitting capability of an input
// plug-in. PartitionScan splits a dataset into at most parts non-empty,
// contiguous, ordinal-ordered morsels that tile [0, Cardinality). Formats
// with variable-length records (CSV, JSON) balance morsels by byte size
// using their structural indexes rather than by record count. Plug-ins
// that do not implement Partitioner are scanned serially.
type Partitioner interface {
	PartitionScan(ds *Dataset, parts int) ([]Morsel, error)
}

// SplitRows partitions [0, rows) into at most parts near-equal morsels —
// the fallback splitter for fixed-width formats.
func SplitRows(rows int64, parts int) []Morsel {
	if rows <= 0 || parts <= 1 {
		if rows <= 0 {
			return nil
		}
		return []Morsel{{Start: 0, End: rows}}
	}
	if int64(parts) > rows {
		parts = int(rows)
	}
	out := make([]Morsel, 0, parts)
	start := int64(0)
	for i := 0; i < parts; i++ {
		end := rows * int64(i+1) / int64(parts)
		if end > start {
			out = append(out, Morsel{Start: start, End: end})
			start = end
		}
	}
	return out
}

// SplitByStarts splits the records whose byte offsets are starts (one per
// record, ascending) into at most parts morsels whose byte spans are
// near-equal: each cut is the first record starting at or after the i-th
// byte target. This is how the raw-format plug-ins turn their structural
// indexes into byte-balanced morsels despite variable-width records.
func SplitByStarts[T int32 | uint32](starts []T, totalBytes int64, parts int) []Morsel {
	rows := int64(len(starts))
	if parts <= 1 || rows <= 1 {
		return SplitRows(rows, parts)
	}
	if int64(parts) > rows {
		parts = int(rows)
	}
	out := make([]Morsel, 0, parts)
	start := int64(0)
	for i := 1; i < parts; i++ {
		target := T(totalBytes * int64(i) / int64(parts))
		cut := int64(sort.Search(len(starts), func(j int) bool { return starts[j] >= target }))
		if cut <= start {
			continue
		}
		if cut >= rows {
			break
		}
		out = append(out, Morsel{Start: start, End: cut})
		start = cut
	}
	if start < rows {
		out = append(out, Morsel{Start: start, End: rows})
	}
	return out
}

// Registry maps format tags to plug-ins.
type Registry struct {
	inputs map[string]Input
}

// NewRegistry returns an empty plug-in registry.
func NewRegistry() *Registry { return &Registry{inputs: map[string]Input{}} }

// Register adds a plug-in under its format tag.
func (r *Registry) Register(in Input) { r.inputs[in.Format()] = in }

// For returns the plug-in for a format tag.
func (r *Registry) For(format string) (Input, error) {
	in, ok := r.inputs[format]
	if !ok {
		return nil, fmt.Errorf("plugin: no input plug-in registered for format %q", format)
	}
	return in, nil
}

// Formats lists the registered format tags.
func (r *Registry) Formats() []string {
	out := make([]string, 0, len(r.inputs))
	for f := range r.inputs {
		out = append(out, f)
	}
	return out
}

// FieldPathString renders a dotted field path.
func FieldPathString(path []string) string {
	out := ""
	for i, p := range path {
		if i > 0 {
			out += "."
		}
		out += p
	}
	return out
}
