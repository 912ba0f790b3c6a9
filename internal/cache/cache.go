// Package cache implements the adaptive caching layer of the paper (§6).
// As a side-effect of query execution, output plug-ins materialize
// evaluated expressions — most importantly raw CSV/JSON field values
// converted to binary — into columnar cache blocks. Later queries are
// rewritten (at code-generation time) to read the compact binary blocks
// instead of re-navigating and re-converting the verbose sources. The
// Caching Manager matches caches by canonical expression key, applies the
// paper's first-come-first-served population policy, reuses materialized
// hash-join sides, and evicts with a data-format-biased LRU that favors
// keeping data from costlier formats (JSON ≻ CSV ≻ Binary).
package cache

import (
	"sort"
	"sync"
	"sync/atomic"

	"proteus/internal/storage"
	"proteus/internal/types"
)

// Block is one materialized cache: the evaluated results of an expression
// over every record of a dataset, stored as a compact binary column.
type Block struct {
	Dataset string
	Key     string // canonical expression key, e.g. field path "children.age"
	Kind    types.Kind

	Ints   []int64
	Floats []float64
	Bools  []bool
	Strs   []string
	Nulls  []bool // nil when the column has no nulls

	Rows     int64
	Complete bool // the producing scan ran to completion

	// FormatBias is the per-field access cost of the source format; the
	// eviction policy keeps high-bias blocks longer.
	FormatBias float64

	// Zones holds the per-1024-row min/max/null-count zone maps, built by
	// Manager.Register before the block becomes visible (so readers never
	// race a mutation).
	Zones *ZoneMaps

	// idx is the optional bitmap index, published after the block itself
	// (adaptive: only once the index-selection policy marks the column hot).
	idx atomic.Pointer[Index]
	// idxRefused remembers why this block's index was refused (kind, keys
	// or size), so hot predicates stop re-attempting it. Guarded by
	// Manager.mu.
	idxRefused Refusal

	lastUsed int64

	// bytesMemo caches Bytes() for Complete blocks, which are immutable, so
	// eviction passes stop re-walking every cached string (O(total cached
	// bytes) per pass before). Stored as size+1 so zero means "unset" even
	// for empty blocks; the atomic makes concurrent first computations safe
	// (they all store the same value).
	bytesMemo atomic.Int64
}

// Bytes reports the block's memory footprint. The result is memoized once
// the block is Complete (immutable from that point); incomplete builder
// blocks are still walked every call.
func (b *Block) Bytes() int64 {
	if memo := b.bytesMemo.Load(); memo != 0 {
		return memo - 1
	}
	n := int64(len(b.Ints))*8 + int64(len(b.Floats))*8 + int64(len(b.Bools)) + int64(len(b.Nulls))
	for _, s := range b.Strs {
		n += int64(len(s)) + 16
	}
	n += b.Zones.bytes()
	if b.Complete {
		b.bytesMemo.Store(n + 1)
	}
	return n
}

// Index returns the block's bitmap index, or nil if none has been built.
func (b *Block) Index() *Index { return b.idx.Load() }

// ConcatBlocks merges per-morsel partial blocks — listed in row order, all
// for the same (dataset, key, kind) — into one block covering their union.
// Parallel scans populate the cache this way: every worker builds the
// fragment for its morsel, and the coordinator concatenates and registers
// the full column exactly once when the scan finishes (§6 under
// parallelism: blocks are only ever registered complete).
//
// Every fragment must agree on (Dataset, Key, Kind) and be internally
// consistent (typed column length == Rows, Nulls nil or the same length);
// otherwise the merge would silently misalign columns, so ConcatBlocks
// returns nil instead. The result is Complete only if every fragment is.
func ConcatBlocks(parts []*Block) *Block {
	if len(parts) == 0 {
		return nil
	}
	first := parts[0]
	out := &Block{
		Dataset:    first.Dataset,
		Key:        first.Key,
		Kind:       first.Kind,
		FormatBias: first.FormatBias,
		Complete:   true,
	}
	hasNulls := false
	for _, p := range parts {
		if p == nil || p.Dataset != first.Dataset || p.Key != first.Key || p.Kind != first.Kind {
			return nil
		}
		if !fragmentConsistent(p) {
			return nil
		}
		if p.Nulls != nil {
			hasNulls = true
		}
	}
	for _, p := range parts {
		out.Ints = append(out.Ints, p.Ints...)
		out.Floats = append(out.Floats, p.Floats...)
		out.Bools = append(out.Bools, p.Bools...)
		out.Strs = append(out.Strs, p.Strs...)
		if hasNulls {
			if p.Nulls != nil {
				out.Nulls = append(out.Nulls, p.Nulls...)
			} else {
				out.Nulls = append(out.Nulls, make([]bool, p.Rows)...)
			}
		}
		out.Rows += p.Rows
		if !p.Complete {
			out.Complete = false
		}
	}
	return out
}

// fragmentConsistent checks that a fragment's column lengths agree with its
// Rows count: exactly the typed column for its Kind is populated (length ==
// Rows) and Nulls, when present, covers every row.
func fragmentConsistent(p *Block) bool {
	lens := [4]int{len(p.Ints), len(p.Floats), len(p.Bools), len(p.Strs)}
	var want int
	switch p.Kind {
	case types.KindInt:
		want = 0
	case types.KindFloat:
		want = 1
	case types.KindBool:
		want = 2
	case types.KindString:
		want = 3
	default:
		return false
	}
	for i, n := range lens {
		if i == want {
			if int64(n) != p.Rows {
				return false
			}
		} else if n != 0 {
			return false
		}
	}
	return p.Nulls == nil || int64(len(p.Nulls)) == p.Rows
}

// JoinSide is an opaque materialized hash-join build side registered for
// partial plan matching ("the newly arrived query A⋈C can re-use the
// hashtable built for A if it uses the same join key"). The executor owns
// the concrete type.
type JoinSide struct {
	Fingerprint string
	Payload     any
	Bytes       int64
	lastUsed    int64
}

// Manager is the Caching Manager: it stores blocks and join sides, serves
// cache-matching probes during plan compilation, and enforces the arena
// budget with biased-LRU eviction.
type Manager struct {
	mu      sync.Mutex
	mem     *storage.Manager
	enabled atomic.Bool
	clock   int64

	blocks map[string]*Block // key: dataset + "\x00" + expr key
	joins  map[string]*JoinSide

	// Policy knobs (§6 "Cache Policies").
	CacheStrings bool      // default false: verbose strings pollute the cache
	Indexes      IndexMode // bitmap-index policy: adaptive, forced on, or off

	// cands tracks columns that pushed-down predicates target, keyed like
	// blocks; the index-selection policy promotes hot ones to bitmap
	// indexes. Guarded by mu.
	cands map[string]*indexCand

	// Counters for observability and tests; atomics so hot compile paths
	// and concurrent snapshot readers never race.
	hits, misses, evictions atomic.Int64

	// Index observability: windows skipped via zone maps, batches served by
	// a bitmap index, indexes built, index builds refused (by reason, in
	// IndexRefusalReasons order), and wall time spent in build attempts,
	// refused ones included.
	zoneSkips, idxHits, idxBuilds atomic.Int64
	idxRefusals                   [len(IndexRefusalReasons)]atomic.Int64
	idxBuildNanos                 atomic.Int64

	// epoch advances whenever the set of usable blocks changes (register,
	// drop, eviction, enable toggle). Compiled-plan caches key on it so a
	// plan compiled before a block existed is not served after the block
	// would have rewritten the scan.
	epoch atomic.Uint64
	// buildNanos accumulates wall time spent materializing and registering
	// cache blocks (builder Finish/Concat/Register), credited once per scan
	// run by the executor.
	buildNanos atomic.Int64
}

// NewManager returns a Manager backed by the memory manager's arena.
func NewManager(mem *storage.Manager, enabled bool) *Manager {
	m := &Manager{
		mem:    mem,
		blocks: map[string]*Block{},
		joins:  map[string]*JoinSide{},
		cands:  map[string]*indexCand{},
	}
	m.enabled.Store(enabled)
	return m
}

// Enabled reports whether adaptive caching is on.
func (m *Manager) Enabled() bool { return m != nil && m.enabled.Load() }

// SetEnabled toggles adaptive caching (experiments flip it per run).
func (m *Manager) SetEnabled(on bool) {
	m.enabled.Store(on)
	m.epoch.Add(1)
}

// Epoch returns the current cache-content generation. A nil manager (cache
// disabled at construction) is permanently at epoch 0.
func (m *Manager) Epoch() uint64 {
	if m == nil {
		return 0
	}
	return m.epoch.Load()
}

func blockKey(dataset, key string) string { return dataset + "\x00" + key }

// Lookup returns the complete cache block for (dataset, expression key), if
// any, updating its recency.
func (m *Manager) Lookup(dataset, key string) (*Block, bool) {
	if !m.Enabled() {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blocks[blockKey(dataset, key)]
	if !ok || !b.Complete {
		m.misses.Add(1)
		return nil, false
	}
	m.clock++
	b.lastUsed = m.clock
	m.hits.Add(1)
	return b, true
}

// Has reports whether a complete block exists without touching recency.
func (m *Manager) Has(dataset, key string) bool {
	if !m.Enabled() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	b, ok := m.blocks[blockKey(dataset, key)]
	return ok && b.Complete
}

// ShouldCache applies the population policy: cache primitive values from
// verbose formats (bias > 1); skip strings unless CacheStrings is set.
func (m *Manager) ShouldCache(formatBias float64, kind types.Kind) bool {
	if !m.Enabled() || formatBias <= 1.0 {
		return false
	}
	switch kind {
	case types.KindInt, types.KindFloat, types.KindBool:
		return true
	case types.KindString:
		return m.CacheStrings
	default:
		return false
	}
}

// Register installs a completed block, evicting lower-value blocks if the
// arena budget requires it. Returns false if the block could not fit even
// after eviction.
func (m *Manager) Register(b *Block) bool {
	if !m.Enabled() || !b.Complete {
		return false
	}
	if b.Zones == nil {
		b.Zones = BuildZones(b) // before Bytes() so zone memory is accounted
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	k := blockKey(b.Dataset, b.Key)
	if old, ok := m.blocks[k]; ok {
		m.releaseLocked(old)
		delete(m.blocks, k)
	}
	if !m.reserve(b.Bytes()) {
		return false
	}
	m.clock++
	b.lastUsed = m.clock
	m.blocks[k] = b
	m.epoch.Add(1)
	return true
}

// reserve makes room for size bytes, evicting in biased-LRU order:
// cheaper-to-rebuild (low FormatBias) and older blocks go first. The
// comparison is lexicographic on (FormatBias, lastUsed) — a single float
// score of the form bias*1e9+lastUsed loses lastUsed precision once the
// clock grows past float64's 53-bit mantissa and lets a large clock bleed
// across bias classes. The caller holds m.mu.
func (m *Manager) reserve(size int64) bool {
	if m.mem.ArenaReserve(size) {
		return true
	}
	type cand struct {
		key      string
		bias     float64
		lastUsed int64
	}
	var cands []cand
	for k, b := range m.blocks {
		cands = append(cands, cand{k, b.FormatBias, b.lastUsed})
	}
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].bias != cands[j].bias {
			return cands[i].bias < cands[j].bias
		}
		return cands[i].lastUsed < cands[j].lastUsed
	})
	for _, c := range cands {
		b := m.blocks[c.key]
		m.releaseLocked(b)
		delete(m.blocks, c.key)
		m.evictions.Add(1)
		m.epoch.Add(1)
		if m.mem.ArenaReserve(size) {
			return true
		}
	}
	return m.mem.ArenaReserve(size)
}

// releaseLocked returns a block's arena bytes, including any bitmap index
// accounted when the index was built. The caller holds m.mu.
func (m *Manager) releaseLocked(b *Block) {
	m.mem.ArenaRelease(b.Bytes())
	if ix := b.Index(); ix != nil {
		m.mem.ArenaRelease(ix.Bytes())
	}
}

// Drop invalidates every cache derived from a dataset (the paper's
// drop-and-rebuild answer to updates).
func (m *Manager) Drop(dataset string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for k, b := range m.blocks {
		if b.Dataset == dataset {
			m.releaseLocked(b)
			delete(m.blocks, k)
		}
	}
	for k, c := range m.cands {
		if c.dataset == dataset {
			delete(m.cands, k)
		}
	}
	for k, j := range m.joins {
		_ = j
		delete(m.joins, k)
	}
	m.epoch.Add(1)
}

// LookupJoinSide returns a previously materialized hash-join build side
// whose subtree+key fingerprint matches.
func (m *Manager) LookupJoinSide(fingerprint string) (*JoinSide, bool) {
	if !m.Enabled() {
		return nil, false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	j, ok := m.joins[fingerprint]
	if !ok {
		return nil, false
	}
	m.clock++
	j.lastUsed = m.clock
	return j, true
}

// RegisterJoinSide stores a materialized build side for reuse.
func (m *Manager) RegisterJoinSide(j *JoinSide) bool {
	if !m.Enabled() {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if !m.reserve(j.Bytes) {
		return false
	}
	m.clock++
	j.lastUsed = m.clock
	m.joins[j.Fingerprint] = j
	return true
}

// AddBuildNanos credits wall time spent materializing cache blocks.
func (m *Manager) AddBuildNanos(n int64) {
	if m != nil && n > 0 {
		m.buildNanos.Add(n)
	}
}

// Stats summarizes the cache state for EXPLAIN-style output and tests.
type Stats struct {
	Blocks     int
	JoinSides  int
	Bytes      int64
	Hits       int64
	Misses     int64
	Evictions  int64
	BuildNanos int64

	// Columnar-index state (v2): built bitmap indexes and their footprint,
	// zone-map window skips, batches served from an index, builds, refused
	// builds by reason (IndexRefusalReasons order), and build wall time.
	Indexes         int
	IndexBytes      int64
	ZoneSkips       int64
	IndexHits       int64
	IndexBuilds     int64
	IndexRefusals   [len(IndexRefusalReasons)]int64
	IndexBuildNanos int64
}

// Refused returns how many index builds were refused for reason r.
func (s Stats) Refused(r Refusal) int64 { return s.IndexRefusals[r-1] }

// Snapshot returns current cache statistics.
func (m *Manager) Snapshot() Stats {
	m.mu.Lock()
	defer m.mu.Unlock()
	s := Stats{
		Blocks: len(m.blocks), JoinSides: len(m.joins),
		Hits: m.hits.Load(), Misses: m.misses.Load(), Evictions: m.evictions.Load(),
		BuildNanos:      m.buildNanos.Load(),
		ZoneSkips:       m.zoneSkips.Load(),
		IndexHits:       m.idxHits.Load(),
		IndexBuilds:     m.idxBuilds.Load(),
		IndexBuildNanos: m.idxBuildNanos.Load(),
	}
	for i := range s.IndexRefusals {
		s.IndexRefusals[i] = m.idxRefusals[i].Load()
	}
	for _, b := range m.blocks {
		s.Bytes += b.Bytes()
		if ix := b.Index(); ix != nil {
			s.Indexes++
			s.IndexBytes += ix.Bytes()
		}
	}
	return s
}

// BytesForDataset reports cached bytes attributed to one dataset (used by
// the Table 3 style reporting of cache size vs. file size).
func (m *Manager) BytesForDataset(dataset string) int64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	var n int64
	for _, b := range m.blocks {
		if b.Dataset == dataset {
			n += b.Bytes()
		}
	}
	return n
}
