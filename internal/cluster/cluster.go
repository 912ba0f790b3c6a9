// Package cluster lifts morsel-driven parallelism across processes: a
// coordinator partitions a plan's driving scan into per-worker morsel
// ranges (the same plugin.Partitioner split exec.CompileParallel uses
// in-process), scatters fragment requests to N proteusd workers over
// HTTP, and gathers their serialized partial states through
// exec.MergeState — the exact merge functions the single-node parallel
// path uses, so distributed results are byte-identical to local ones.
//
// Plan compilation stays local on every node (the paper's thesis:
// engines are customized per data source, so shipping plans would ship
// the wrong engine). The coordinator sends only (lang, query text,
// morsel range, plan fingerprint); each worker re-parses and re-plans
// against its own catalog and refuses the fragment with 409 when its
// plan fingerprint diverges — the coordinator then falls back to local
// execution rather than risk merging partials of a different plan.
//
// Failure semantics per fragment: one retry on the next worker in
// topology order, an optional hedge (the retry launched speculatively
// when the primary is slower than Config.HedgeAfter), then a clean
// error. A fragment response is either one complete binary frame with a
// verified end marker (exec/fragment.go) or a failed attempt — truncated,
// malformed, oversized and wrong-version frames never contribute rows, so
// a distributed query returns either the full correct result or an error,
// never partial or duplicated data.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strings"
	"sync"
	"time"

	"proteus/internal/algebra"
	"proteus/internal/exec"
	"proteus/internal/obs"
	"proteus/internal/plugin"
)

// ErrPlanMismatch reports that a worker's locally compiled plan
// fingerprint differs from the coordinator's — its catalog or statistics
// have drifted. The coordinator treats this as "not clustered" and runs
// the query locally.
var ErrPlanMismatch = errors.New("cluster: worker plan fingerprint mismatch")

// Defaults for the scatter client.
const (
	DefaultFragmentTimeout = 30 * time.Second
	maxErrorBody           = 4 << 10
)

// Config configures a Coordinator.
type Config struct {
	// Workers is the initial topology: base URLs of worker engines
	// ("http://host:port"). More can join later via AddWorker.
	Workers []string
	// Client is the HTTP client used for fragment requests; nil uses a
	// dedicated client with sane connection pooling.
	Client *http.Client
	// FragmentTimeout bounds each fragment attempt (not the whole query —
	// the query context still applies). 0 means DefaultFragmentTimeout.
	FragmentTimeout time.Duration
	// HedgeAfter, when positive, launches the fragment's retry attempt
	// speculatively on the backup worker once the primary has been running
	// this long; the first complete response wins and the loser is
	// cancelled. 0 disables hedging.
	HedgeAfter time.Duration
}

// Coordinator scatters eligible plans across workers and gathers their
// partial states. Safe for concurrent use.
type Coordinator struct {
	client          *http.Client
	fragmentTimeout time.Duration
	hedgeAfter      time.Duration

	mu      sync.RWMutex
	workers []string
}

// New builds a Coordinator over the configured topology.
func New(cfg Config) *Coordinator {
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{
			MaxIdleConnsPerHost: 16,
		}}
	}
	timeout := cfg.FragmentTimeout
	if timeout <= 0 {
		timeout = DefaultFragmentTimeout
	}
	c := &Coordinator{
		client:          client,
		fragmentTimeout: timeout,
		hedgeAfter:      cfg.HedgeAfter,
	}
	for _, w := range cfg.Workers {
		c.AddWorker(w)
	}
	return c
}

// AddWorker joins a worker to the topology (idempotent). Reports whether
// the worker was newly added. Invalid URLs are rejected.
func (c *Coordinator) AddWorker(base string) bool {
	base = strings.TrimRight(strings.TrimSpace(base), "/")
	u, err := url.Parse(base)
	if err != nil || (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return false
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	for _, w := range c.workers {
		if w == base {
			return false
		}
	}
	c.workers = append(c.workers, base)
	return true
}

// Workers returns a snapshot of the topology in join order.
func (c *Coordinator) Workers() []string {
	c.mu.RLock()
	defer c.mu.RUnlock()
	out := make([]string, len(c.workers))
	copy(out, c.workers)
	return out
}

// fragmentRequest is the POST /v1/fragment body. The worker re-plans the
// query text locally and executes only [Start, End) of its driving scan.
type fragmentRequest struct {
	Lang        string `json:"lang"`
	Query       string `json:"query"`
	Start       int64  `json:"start"`
	End         int64  `json:"end"`
	Fingerprint string `json:"fingerprint"`
}

// fragStat is one fragment's attempt accounting.
type fragStat struct {
	retries int64
	hedges  int64
	worker  string // worker that served the winning attempt
}

// Execute runs (lang, query) distributed when the plan is eligible.
// handled=false means the caller must execute locally: the plan has no
// partitionable driving scan, the topology is empty, or a worker's plan
// diverged (ErrPlanMismatch) — each counted as a fallback under its reason
// (obs.ClusterFallbackReasons). handled=true with
// err=nil returns the complete merged result (never partial rows);
// handled=true with err≠nil means the distributed attempt failed after
// per-fragment retries and the query should fail — the fragments may
// have observed side-effect-free partial work only.
//
// ORDER BY / LIMIT are NOT applied here: the merge ignores Env.Sort, and
// the caller applies its sort wrapper exactly as it would over a local
// unsorted program. (A worker may already have cut its rows to the
// statement's top k — exec.CompileFragment — which that wrapper cannot tell
// from the outside.)
func (c *Coordinator) Execute(ctx context.Context, env *exec.Env, lang, query string, plan algebra.Node, tag string) (*exec.Result, []obs.Span, bool, error) {
	m := env.Metrics
	local := func(reason string) (*exec.Result, []obs.Span, bool, error) {
		if m != nil {
			m.CountClusterFallback(reason)
		}
		return nil, nil, false, nil
	}
	workers := c.Workers()
	if len(workers) == 0 {
		return local(obs.FallbackNoWorkers)
	}
	drive := exec.DrivingScan(plan)
	if drive == nil {
		return local(obs.FallbackUnpartitionable)
	}
	ds, in, err := env.Catalog.Dataset(drive.Dataset)
	if err != nil {
		return local(obs.FallbackUnpartitionable) // let local execution surface the error
	}
	part, ok := in.(plugin.Partitioner)
	if !ok {
		return local(obs.FallbackUnpartitionable)
	}
	morsels, err := part.PartitionScan(ds, len(workers))
	if err != nil {
		return local(obs.FallbackUnpartitionable)
	}
	if len(morsels) < 2 {
		return local(obs.FallbackSingleMorsel)
	}
	ms, err := exec.CompileMergeState(plan, env)
	if err != nil {
		return local(obs.FallbackStateUncodable)
	}

	req := fragmentRequest{Lang: lang, Query: query, Fingerprint: ms.Fingerprint()}
	partials := make([]*exec.Partial, len(morsels))
	spans := make([]obs.Span, len(morsels))
	stats := make([]fragStat, len(morsels))

	sctx, cancelAll := context.WithCancel(ctx)
	defer cancelAll()
	var (
		wg       sync.WaitGroup
		errMu    sync.Mutex
		firstErr error
	)
	for i := range morsels {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			fr := req
			fr.Start, fr.End = morsels[i].Start, morsels[i].End
			started := time.Now()
			p, stat, err := c.runFragment(sctx, workers, i, fr, tag)
			stats[i] = stat
			spans[i] = obs.Span{
				Name:  fmt.Sprintf("fragment %d [%d,%d) → %s", i, fr.Start, fr.End, hostOf(stat.worker)),
				Start: started,
				Dur:   time.Since(started),
			}
			if err != nil {
				errMu.Lock()
				if firstErr == nil {
					firstErr = err
				}
				errMu.Unlock()
				cancelAll() // stop sibling fragments; workers cancel via disconnect
				return
			}
			partials[i] = p
		}(i)
	}
	wg.Wait()

	var retries, hedges int64
	for _, s := range stats {
		retries += s.retries
		hedges += s.hedges
	}
	if m != nil {
		m.ClusterRetries.Add(retries)
		m.ClusterHedges.Add(hedges)
	}
	if firstErr != nil {
		// The scatter cancel may have surfaced on sibling fragments as a
		// context error; prefer the caller's own cancellation when present.
		// Abandonment by the caller is not a cluster failure — the engine
		// classifies it into queries_cancelled, not cluster_errors.
		if ctx.Err() != nil {
			return nil, spans, true, context.Cause(ctx)
		}
		if errors.Is(firstErr, ErrPlanMismatch) {
			return local(obs.FallbackFPMismatch)
		}
		if m != nil {
			m.ClusterErrors.Add(1)
		}
		return nil, spans, true, firstErr
	}

	// Gather: merge strictly in morsel order — the property that makes the
	// distributed result identical to serial execution.
	var wireBytes int64
	for i, p := range partials {
		wireBytes += int64(p.WireBytes())
		if err := ms.Merge(p); err != nil {
			if m != nil {
				m.ClusterErrors.Add(1)
			}
			return nil, spans, true, fmt.Errorf("cluster: merging fragment %d from %s: %w", i, stats[i].worker, err)
		}
	}
	res, err := ms.Result()
	if err != nil {
		if m != nil {
			m.ClusterErrors.Add(1)
		}
		return nil, spans, true, err
	}
	res.Fragments = len(partials)
	if m != nil {
		m.ClusterQueries.Add(1)
		m.ClusterFragments.Add(int64(len(partials)))
		m.ClusterFragmentBytes.Add(wireBytes)
	}
	return res, spans, true, nil
}

// attemptResult is one fragment attempt's outcome.
type attemptResult struct {
	p      *exec.Partial
	err    error
	worker string
}

// runFragment drives one fragment to success or a clean error: primary
// attempt on workers[idx], at most one more attempt on the next worker —
// launched on failure (retry) or speculatively after the hedge threshold.
func (c *Coordinator) runFragment(ctx context.Context, workers []string, idx int, req fragmentRequest, tag string) (*exec.Partial, fragStat, error) {
	var stat fragStat
	primary := workers[idx%len(workers)]
	backup := workers[(idx+1)%len(workers)]

	fctx, cancel := context.WithCancel(ctx)
	defer cancel() // releases the losing attempt's connection
	resCh := make(chan attemptResult, 2)
	launch := func(w string) {
		go func() {
			p, err := c.fetchFragment(fctx, w, req, tag)
			resCh <- attemptResult{p: p, err: err, worker: w}
		}()
	}
	launch(primary)
	launched, failed := 1, 0

	var hedgeCh <-chan time.Time
	if c.hedgeAfter > 0 && backup != primary {
		t := time.NewTimer(c.hedgeAfter)
		defer t.Stop()
		hedgeCh = t.C
	}
	for {
		select {
		case <-hedgeCh:
			hedgeCh = nil
			if launched < 2 {
				launch(backup)
				launched++
				stat.hedges++
			}
		case r := <-resCh:
			if r.err == nil {
				stat.worker = r.worker
				return r.p, stat, nil
			}
			failed++
			if errors.Is(r.err, ErrPlanMismatch) {
				return nil, stat, r.err // no retry: the coordinator falls back
			}
			if ctx.Err() != nil {
				return nil, stat, context.Cause(ctx)
			}
			if launched < 2 && backup != primary {
				launch(backup)
				launched++
				stat.retries++
				continue
			}
			if failed == launched {
				return nil, stat, fmt.Errorf("cluster: fragment %d [%d,%d) failed on %s after %d attempt(s): %w",
					idx, req.Start, req.End, hostOf(r.worker), launched, r.err)
			}
			// One attempt still in flight (a hedge raced a failure); wait
			// for it.
		case <-ctx.Done():
			return nil, stat, context.Cause(ctx)
		}
	}
}

// fetchFragment performs one HTTP fragment attempt and decodes the frame.
// DecodePartialStream reads at most exec.MaxFrameBytes of the body, so a
// worker that never stops sending costs a bounded read and a failed attempt.
func (c *Coordinator) fetchFragment(ctx context.Context, worker string, req fragmentRequest, tag string) (*exec.Partial, error) {
	actx, cancel := context.WithTimeout(ctx, c.fragmentTimeout)
	defer cancel()
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
	hreq, err := http.NewRequestWithContext(actx, http.MethodPost, worker+"/v1/fragment", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	if tag != "" {
		hreq.Header.Set("X-Request-Id", tag)
	}
	resp, err := c.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	if resp.StatusCode == http.StatusConflict {
		return nil, fmt.Errorf("%w (worker %s)", ErrPlanMismatch, hostOf(worker))
	}
	if resp.StatusCode != http.StatusOK {
		msg, _ := io.ReadAll(io.LimitReader(resp.Body, maxErrorBody))
		return nil, fmt.Errorf("cluster: worker %s: %s: %s", hostOf(worker), resp.Status, strings.TrimSpace(string(msg)))
	}
	p, err := exec.DecodePartialStream(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("cluster: worker %s: %w", hostOf(worker), err)
	}
	return p, nil
}

// hostOf shortens a worker base URL to its host for error and span text.
func hostOf(worker string) string {
	if worker == "" {
		return "?"
	}
	if u, err := url.Parse(worker); err == nil && u.Host != "" {
		return u.Host
	}
	return worker
}
