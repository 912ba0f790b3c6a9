// Engine-side cluster wiring: serving fragment requests when this engine is
// a worker. A coordinator engine scatters eligible queries in the
// pipeline's execute stage (engine.go). The coordinator itself — topology,
// partitioning, the scatter client — lives in internal/cluster; the wire
// codec and merge contract in internal/exec (fragment.go).
package engine

import (
	"context"
	"errors"
	"fmt"

	"proteus/internal/cluster"
	"proteus/internal/exec"
)

// ErrFragmentMismatch reports that this worker's locally optimized plan has
// a different fingerprint than the coordinator's — the catalogs or
// statistics of the two nodes have drifted. The query service maps it to
// 409 Conflict, which the coordinator treats as "fall back to local".
var ErrFragmentMismatch = errors.New("engine: fragment plan fingerprint mismatch")

// Cluster returns the engine's scatter/gather coordinator (nil when this
// engine is not a coordinator). The query service uses it to wire the
// topology endpoints.
func (e *Engine) Cluster() *cluster.Coordinator { return e.cluster }

// ExecuteFragment serves one scatter request as a cluster worker: re-plan
// the query text through the pipeline's front half, verify the plan
// fingerprint against the coordinator's (wantFP, when non-empty), execute
// only [start, end) of the driving scan, and return the serialized partial
// state. Fragments enter and leave like whole queries — drain rejection,
// admission gating, the configured timeout, memory budget, panic isolation,
// and outcome classification — and compile in the configured mode, so what
// a fragment compiles to is a function of plan and config alone.
func (e *Engine) ExecuteFragment(ctx context.Context, lang, query string, start, end int64, wantFP string) (*exec.Partial, error) {
	ctx, cancel, err := e.enter(ctx, query)
	if err != nil {
		return nil, err
	}
	defer e.leave(cancel)
	p, err := func() (*exec.Partial, error) {
		c, err := e.parse(lang, query, nil)
		if err != nil {
			return nil, err
		}
		plan, err := e.planFor(ctx, c, nil)
		if err != nil {
			return nil, err
		}
		if wantFP != "" && plan.Fingerprint() != wantFP {
			return nil, fmt.Errorf("%w: coordinator has %s, this worker planned %s",
				ErrFragmentMismatch, wantFP, plan.Fingerprint())
		}
		fprog, err := exec.CompileFragment(plan, e.execEnv(nil, sortSpecOf(c)), start, end)
		if err != nil {
			return nil, err
		}
		return fprog.RunContext(ctx)
	}()
	if err != nil {
		return nil, e.classify(query, err)
	}
	e.metrics.ClusterFragmentsServed.Add(1)
	return p, nil
}
