// Robustness primitives for compiled programs: the per-query memory
// accountant and the panic barrier. Cancellation lives in plugin.Cancel
// (the scan drivers are the only loop drivers, so they are the polling
// points); this file holds what the exec layer itself contributes.
package exec

import (
	"errors"
	"fmt"
	"runtime/debug"
	"sync/atomic"
)

// ErrMemBudget is returned (wrapped) when a query's pipeline-breaker state
// — hash-join build sides, aggregation tables, collected rows, ORDER BY
// buffers — exceeds Env.MemBudget. Callers detect it with errors.Is.
var ErrMemBudget = errors.New("query memory budget exceeded")

// memQuantum batches accountant updates: charge sites accumulate byte
// estimates in a closure-local counter and flush to the shared gauge only
// once this many bytes are pending, keeping the per-row cost of accounting
// to one add-and-compare.
const memQuantum = 32 << 10

// memGauge tracks one query's estimated pipeline-breaker memory against a
// budget. It is shared by all pipeline clones of a parallel program, hence
// the atomic counter. A nil gauge (no budget configured) costs nothing:
// charge sites compile the accounting branch out entirely.
type memGauge struct {
	budget int64
	used   atomic.Int64
}

func (g *memGauge) reset() { g.used.Store(0) }

// charge adds n estimated bytes and fails once the running total passes
// the budget. The estimate intentionally errs low-cost rather than exact:
// it models the dominant allocations (column vectors, group states, boxed
// rows), not every header byte.
func (g *memGauge) charge(n int64) error {
	if g.used.Add(n) > g.budget {
		return fmt.Errorf("%w (budget %d bytes)", ErrMemBudget, g.budget)
	}
	return nil
}

// PanicError is a panic from inside a compiled closure, caught at the
// query boundary (Program.RunUnboxed for the serial path, the worker
// barrier in CompileParallel for pipeline clones) and converted into an
// ordinary error. The shared engine, cache manager, and statistics store
// are untouched by the failed run, so subsequent queries proceed normally.
type PanicError struct {
	// Fingerprint is the structural fingerprint of the compiled plan,
	// identifying which specialized program blew up.
	Fingerprint string
	// Val is the value passed to panic().
	Val any
	// Stack is the goroutine stack captured at recovery.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("panic during query execution (plan %s): %v", e.Fingerprint, e.Val)
}

func newPanicError(fp string, val any) *PanicError {
	return &PanicError{Fingerprint: fp, Val: val, Stack: debug.Stack()}
}
