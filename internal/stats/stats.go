// Package stats is the metadata store of the engine (§5.2 "Enabling
// Cost-based Optimizations"): per-dataset cardinalities and per-attribute
// min/max values, collected by input plug-ins during cold scans and result
// materialization, plus the textbook selectivity and cost formulas the
// optimizer instantiates with them. When no statistics exist, the store
// falls back to the paper's hard-coded defaults (e.g. 10% selectivity).
package stats

import (
	"sync"
)

// DefaultSelectivity is the paper's baseline predicate selectivity assumed
// in the absence of statistics.
const DefaultSelectivity = 0.1

// Column holds statistics for one (possibly nested, dotted) attribute.
type Column struct {
	Min, Max  float64
	HasRange  bool
	NullCount int64
	// DistinctEst is a coarse distinct-count estimate maintained by sampling.
	DistinctEst int64
}

// Table holds statistics for one dataset. Reads and writes may race
// between cold scans, blocking-operator profiling, and the idle statistics
// daemon, so all access goes through the table's lock.
type Table struct {
	mu   sync.Mutex
	Rows int64
	Cols map[string]*Column
}

// NewTable returns an empty statistics table.
func NewTable() *Table { return &Table{Cols: map[string]*Column{}} }

// Col returns the named column's stats, creating it if needed. Callers that
// mutate the returned column concurrently should prefer Observe.
func (t *Table) Col(name string) *Column {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.Cols[name]
	if !ok {
		c = &Column{}
		t.Cols[name] = c
	}
	return c
}

// Observe folds one numeric observation into the named column's range,
// under the table lock.
func (t *Table) Observe(name string, v float64) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.Cols[name]
	if !ok {
		c = &Column{}
		t.Cols[name] = c
	}
	c.Observe(v)
}

// Range returns the column's observed min/max under the table lock.
func (t *Table) Range(name string) (min, max float64, ok bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, exists := t.Cols[name]
	if !exists || !c.HasRange {
		return 0, 0, false
	}
	return c.Min, c.Max, true
}

// Observe folds one numeric observation into the column's range. It is not
// synchronized; single-writer phases (the cold scan building a dataset's
// index) use it directly, everything else goes through Table.Observe. NaN
// has no place in an order and is ignored: a NaN bound would turn every
// selectivity estimate over the column into NaN.
func (c *Column) Observe(v float64) {
	if v != v {
		return
	}
	if !c.HasRange {
		c.Min, c.Max, c.HasRange = v, v, true
		return
	}
	if v < c.Min {
		c.Min = v
	}
	if v > c.Max {
		c.Max = v
	}
}

// SelLt estimates the selectivity of col < x assuming a uniform
// distribution over [Min, Max] — the textbook formula the paper's skeleton
// plug-ins use by default.
func (t *Table) SelLt(col string, x float64) float64 {
	min, max, ok := t.Range(col)
	if !ok || max == min {
		return DefaultSelectivity
	}
	return clamp01((x - min) / (max - min))
}

// SelGt estimates the selectivity of col > x.
func (t *Table) SelGt(col string, x float64) float64 {
	min, max, ok := t.Range(col)
	if !ok || max == min {
		return DefaultSelectivity
	}
	return clamp01((max - x) / (max - min))
}

// SelEq estimates the selectivity of col = x from the distinct estimate.
func (t *Table) SelEq(col string) float64 {
	t.mu.Lock()
	defer t.mu.Unlock()
	c, ok := t.Cols[col]
	if !ok || c.DistinctEst <= 0 {
		return DefaultSelectivity
	}
	return clamp01(1 / float64(c.DistinctEst))
}

func clamp01(x float64) float64 {
	if x < 0 {
		return 0
	}
	if x > 1 {
		return 1
	}
	return x
}

// Store is the process-wide metadata store, keyed by dataset name. It is
// safe for concurrent use: cold scans record statistics while the daemon or
// later queries read them.
type Store struct {
	mu     sync.RWMutex
	tables map[string]*Table
}

// NewStore returns an empty store.
func NewStore() *Store { return &Store{tables: map[string]*Table{}} }

// Table returns the stats table for a dataset, creating it if needed.
func (s *Store) Table(dataset string) *Table {
	s.mu.Lock()
	defer s.mu.Unlock()
	t, ok := s.tables[dataset]
	if !ok {
		t = NewTable()
		s.tables[dataset] = t
	}
	return t
}

// Lookup returns the stats table if one exists.
func (s *Store) Lookup(dataset string) (*Table, bool) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	t, ok := s.tables[dataset]
	return t, ok
}

// Cost formula weights. These model the relative per-tuple access cost of
// each data format: raw JSON navigation is far more expensive than CSV
// parsing, which is more expensive than binary reads (§6: the cache
// eviction bias JSON ≻ CSV ≻ Binary follows the same ordering).
const (
	CostBinaryField = 1.0
	CostCacheField  = 1.0
	CostCSVField    = 6.0
	CostJSONField   = 14.0
)

// ScanCost is the textbook linear cost formula: rows × fields × per-field
// format weight. Input plug-ins instantiate it with their format weight.
func ScanCost(rows int64, fields int, perField float64) float64 {
	if fields == 0 {
		fields = 1
	}
	return float64(rows) * float64(fields) * perField
}

// JoinCost estimates a radix hash join: build + probe linear passes.
func JoinCost(buildRows, probeRows int64) float64 {
	return 2.5*float64(buildRows) + 1.5*float64(probeRows)
}
