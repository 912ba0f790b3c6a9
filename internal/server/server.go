// Package server is the Proteus query service: the production-shaped HTTP
// surface over one engine instance (ROADMAP item 1, first half). It turns
// the library's robustness primitives — admission gating, timeouts, memory
// budgets, panic isolation, cooperative cancellation — into a long-running
// multi-tenant network API:
//
//	POST   /v1/query    run SQL or a comprehension; rows stream back as
//	                    NDJSON and a client disconnect cancels the query
//	POST   /v1/prepare  validate + compile once, get a handle; executing a
//	                    handle rides the engine's compiled-plan LRU
//	GET    /v1/prepare  list prepared statements
//	DELETE /v1/prepare  drop a handle (?handle=p-N)
//	GET    /healthz     liveness (503 while draining)
//	GET    /metrics     engine Prometheus text + per-tenant counters
//	/debug/*            the engine observability surface (vars, queries,
//	                    trace, slow, plans, pprof)
//
// Every request gets an ID (X-Request-Id, generated when absent) that is
// attached to the query context as its tag, so profiles in /debug/queries
// and slow-query records carry the request they served. Tenancy is keyed by
// the X-Proteus-Tenant header; per-tenant concurrency and memory quotas
// reject over-quota tenants with 429 while other tenants proceed.
package server

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync/atomic"
	"time"

	"proteus"
	"proteus/internal/cluster"
	"proteus/internal/engine"
	"proteus/internal/exec"
	"proteus/internal/obs"
)

// Config tunes a Server.
type Config struct {
	// DB is the engine instance to serve (required).
	DB *proteus.DB
	// TenantMaxConcurrent caps each tenant's in-flight queries (0 = no
	// per-tenant concurrency cap; the engine's global MaxConcurrentQueries
	// still applies).
	TenantMaxConcurrent int
	// TenantMemQuota caps the operator-state bytes one tenant may have
	// reserved across its in-flight queries. Each admitted query reserves
	// QueryMemBudget bytes (its worst case), so the quota is enforced as a
	// token count at admission. 0 disables the memory quota.
	TenantMemQuota int64
	// QueryMemBudget mirrors the engine's Config.QueryMemBudget — the
	// reservation unit for TenantMemQuota.
	QueryMemBudget int64
	// MaxPrepared bounds the prepared-statement handle registry
	// (LRU-evicted; default 256).
	MaxPrepared int
	// ChunkRows is the NDJSON flush granularity in rows (default
	// exec.DefaultStreamChunk). Cancellation is noticed at chunk
	// boundaries, so smaller chunks trade syscalls for latency.
	ChunkRows int
	// RequestMaxBytes bounds a request body (default 1 MiB).
	RequestMaxBytes int64
	// Cluster, when set, marks this node a scatter/gather coordinator and
	// enables the topology endpoints (GET /v1/cluster, POST
	// /v1/cluster/join). It should be the same Coordinator the engine was
	// configured with. Worker nodes leave it nil; every node serves
	// POST /v1/fragment regardless.
	Cluster *cluster.Coordinator
}

// Server is one query service instance. Create with New, expose with
// Handler, retire with Drain (stop admitting) then Close (drain engine).
type Server struct {
	db        *proteus.DB
	mux       *http.ServeMux
	tenants   *tenantSet
	prepared  *preparedSet
	cluster   *cluster.Coordinator
	chunkRows int
	maxBytes  int64
	started   time.Time

	draining atomic.Bool
	reqSeq   atomic.Int64

	// Service-level counters, appended to /metrics.
	queriesStarted   atomic.Int64
	streamsActive    atomic.Int64
	fragmentsStarted atomic.Int64
}

// New builds a Server over cfg.DB.
func New(cfg Config) *Server {
	maxPrepared := cfg.MaxPrepared
	if maxPrepared == 0 {
		maxPrepared = 256
	}
	maxBytes := cfg.RequestMaxBytes
	if maxBytes <= 0 {
		maxBytes = 1 << 20
	}
	s := &Server{
		db:        cfg.DB,
		tenants:   newTenantSet(cfg.TenantMaxConcurrent, cfg.TenantMemQuota, cfg.QueryMemBudget),
		prepared:  newPreparedSet(maxPrepared),
		cluster:   cfg.Cluster,
		chunkRows: cfg.ChunkRows,
		maxBytes:  maxBytes,
		started:   time.Now(),
	}
	if s.cluster == nil && cfg.DB != nil {
		// A DB opened with ClusterWorkers already owns a coordinator; serve
		// its topology endpoints without asking callers to wire it twice.
		s.cluster = cfg.DB.Engine().Cluster()
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/query", s.handleQuery)
	mux.HandleFunc("POST /v1/fragment", s.handleFragment)
	mux.HandleFunc("GET /v1/cluster", s.handleClusterInfo)
	mux.HandleFunc("POST /v1/cluster/join", s.handleClusterJoin)
	mux.HandleFunc("POST /v1/prepare", s.handlePrepare)
	mux.HandleFunc("GET /v1/prepare", s.handleListPrepared)
	mux.HandleFunc("DELETE /v1/prepare", s.handleDropPrepared)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /metrics", s.handleMetrics)
	mux.Handle("/debug/", cfg.DB.MetricsHandler())
	s.mux = mux
	return s
}

// Handler returns the service's HTTP handler; the caller owns the listener
// (and should set http.Server.ReadHeaderTimeout).
func (s *Server) Handler() http.Handler { return s.mux }

// Drain flips the service into shutdown mode: /healthz turns 503 (so load
// balancers stop routing here) and new queries are refused with 503, while
// in-flight streams keep running. Pair with http.Server.Shutdown, which
// waits for those streams, then Close.
func (s *Server) Drain() { s.draining.Store(true) }

// Draining reports whether Drain has been called.
func (s *Server) Draining() bool { return s.draining.Load() }

// Close drains the service and the engine: after Close returns nil, no
// query is running and none can start. Returns ctx's cause if in-flight
// queries outlive the deadline.
func (s *Server) Close(ctx context.Context) error {
	s.Drain()
	return s.db.Close(ctx)
}

// queryRequest is the /v1/query and /v1/prepare body.
type queryRequest struct {
	// Query is SQL, or a comprehension starting with `for`.
	Query string `json:"query,omitempty"`
	// Handle executes a prepared statement instead (mutually exclusive).
	Handle string `json:"handle,omitempty"`
	// ChunkRows overrides the server's NDJSON flush granularity.
	ChunkRows int `json:"chunk_rows,omitempty"`
}

// decodeRequest reads a bounded JSON body.
func (s *Server) decodeRequest(w http.ResponseWriter, r *http.Request) (queryRequest, error) {
	var req queryRequest
	body := http.MaxBytesReader(w, r.Body, s.maxBytes)
	dec := json.NewDecoder(body)
	dec.DisallowUnknownFields()
	if err := dec.Decode(&req); err != nil {
		return req, fmt.Errorf("bad request body: %w", err)
	}
	return req, nil
}

// tenantOf extracts the request's tenant key.
func tenantOf(r *http.Request) string {
	if t := strings.TrimSpace(r.Header.Get("X-Proteus-Tenant")); t != "" {
		return t
	}
	return DefaultTenant
}

// requestID returns the caller's X-Request-Id or mints one.
func (s *Server) requestID(r *http.Request) string {
	if id := strings.TrimSpace(r.Header.Get("X-Request-Id")); id != "" {
		return id
	}
	return fmt.Sprintf("q-%d", s.reqSeq.Add(1))
}

// statusOf maps a query error to its HTTP status.
func statusOf(err error) int {
	var pe *exec.PanicError
	switch {
	case errors.Is(err, proteus.ErrClosed):
		return http.StatusServiceUnavailable
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout
	case errors.Is(err, exec.ErrMemBudget):
		return http.StatusInsufficientStorage
	case errors.As(err, &pe):
		return http.StatusInternalServerError
	case errors.Is(err, context.Canceled):
		// Client went away; nothing useful can be delivered. 499 is the
		// de-facto "client closed request" status.
		return 499
	default:
		// Remaining failures are query problems: parse errors, unknown
		// datasets or columns, bad ORDER BY targets.
		return http.StatusBadRequest
	}
}

// handleQuery runs one query and streams its result set as NDJSON:
//
//	{"cols":["name","price"],"request_id":"q-7"}   ← header line
//	{"name":"widget","price":9.99}                 ← one line per row
//	...
//	{"rows":2,"elapsed_ms":1.42,"request_id":"q-7"} ← trailer line
//
// The query runs under the request context, so a client disconnect cancels
// it cooperatively (scan drivers notice within a poll stride) and frees the
// tenant's tokens. Errors before the first byte are JSON with a proper
// status; a failure after streaming began is reported as a trailing
// {"error": ...} line, and the absence of a "rows" trailer tells clients
// the stream was truncated.
func (s *Server) handleQuery(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obs.WriteJSONError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	req, err := s.decodeRequest(w, r)
	if err != nil {
		obs.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	query := req.Query
	if req.Handle != "" {
		if query != "" {
			obs.WriteJSONError(w, http.StatusBadRequest, "request carries both query and handle")
			return
		}
		st, ok := s.prepared.get(req.Handle)
		if !ok {
			obs.WriteJSONError(w, http.StatusNotFound, "unknown prepared-statement handle "+req.Handle)
			return
		}
		query = st.Query
	}
	if strings.TrimSpace(query) == "" {
		obs.WriteJSONError(w, http.StatusBadRequest, "empty query")
		return
	}

	tenant := tenantOf(r)
	t, err := s.tenants.admit(tenant)
	if err != nil {
		w.Header().Set("Retry-After", "1")
		obs.WriteJSONError(w, http.StatusTooManyRequests, err.Error())
		return
	}
	defer s.tenants.release(t)

	reqID := s.requestID(r)
	w.Header().Set("X-Request-Id", reqID)
	s.queriesStarted.Add(1)

	ctx := proteus.WithQueryTag(r.Context(), reqID)
	start := time.Now()
	lang := engine.LangSQL
	if proteus.IsComprehension(query) {
		lang = engine.LangComp
	}
	res, err := s.db.Engine().QueryStream(ctx, lang, query)
	if err != nil {
		t.errors.Add(1)
		if errors.Is(err, context.Canceled) {
			t.cancelled.Add(1)
		}
		obs.WriteJSONError(w, statusOf(err), err.Error())
		return
	}
	t.queries.Add(1)

	s.streamsActive.Add(1)
	defer s.streamsActive.Add(-1)
	w.Header().Set("Content-Type", "application/x-ndjson; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	rc := http.NewResponseController(w)
	bw := bufio.NewWriterSize(w, 32<<10)

	// Column names: record-shaped rows carry field names (the engine's Cols
	// is the single label "result" for bare projections), known from the
	// compiled yield even when no row qualifies; scalar rows stream under
	// that label as one-key objects.
	cols := res.Cols
	scalarCol := "result"
	if len(cols) == 1 {
		scalarCol = cols[0]
	}
	fields := res.FieldNames()
	if fields != nil {
		cols = fields
	}
	head, _ := json.Marshal(struct {
		Cols      []string `json:"cols"`
		RequestID string   `json:"request_id"`
	}{cols, reqID})
	bw.Write(append(head, '\n'))
	bw.Flush()
	rc.Flush()

	chunk := req.ChunkRows
	if chunk <= 0 {
		chunk = s.chunkRows
	}
	enc := newRowEncoder(scalarCol, fields)
	var streamed int64
	var buf []byte
	streamErr := res.StreamChunks(ctx, chunk, func(c exec.Chunk) error {
		buf = enc.appendChunk(buf[:0], c)
		if _, err := bw.Write(buf); err != nil {
			return err
		}
		streamed += int64(c.Len())
		if err := bw.Flush(); err != nil {
			return err
		}
		return rc.Flush()
	})
	t.rows.Add(streamed)
	if streamErr != nil {
		if errors.Is(streamErr, context.Canceled) {
			t.cancelled.Add(1)
		}
		// The 200 status is already on the wire; signal truncation in-band.
		line, _ := json.Marshal(struct {
			Error string `json:"error"`
		}{streamErr.Error()})
		bw.Write(append(line, '\n'))
		bw.Flush()
		return
	}
	trailer, _ := json.Marshal(struct {
		Rows      int64   `json:"rows"`
		ElapsedMS float64 `json:"elapsed_ms"`
		RequestID string  `json:"request_id"`
		// Fragments is the per-worker attribution of a distributed query:
		// how many remote fragment partials were merged into this result
		// (absent for local execution).
		Fragments int `json:"fragments,omitempty"`
	}{streamed, float64(time.Since(start).Microseconds()) / 1e3, reqID, res.Fragments})
	bw.Write(append(trailer, '\n'))
	bw.Flush()
}

// handlePrepare validates and compiles a query, registers a handle, and
// returns it. Compilation errors surface here, synchronously, instead of on
// first execution; the compiled program itself is owned by the engine's
// plan cache (see the package comment in prepared.go).
func (s *Server) handlePrepare(w http.ResponseWriter, r *http.Request) {
	if s.draining.Load() {
		obs.WriteJSONError(w, http.StatusServiceUnavailable, "server is draining")
		return
	}
	req, err := s.decodeRequest(w, r)
	if err != nil {
		obs.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	if strings.TrimSpace(req.Query) == "" {
		obs.WriteJSONError(w, http.StatusBadRequest, "empty query")
		return
	}
	if _, err := s.db.Explain(req.Query); err != nil {
		obs.WriteJSONError(w, http.StatusBadRequest, err.Error())
		return
	}
	lang := "sql"
	if proteus.IsComprehension(req.Query) {
		lang = "comp"
	}
	st := s.prepared.put(req.Query, lang, time.Now())
	writeJSON(w, http.StatusCreated, st)
}

// handleListPrepared lists registered handles, most-recently-used first.
func (s *Server) handleListPrepared(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.prepared.list())
}

// handleDropPrepared removes a handle (?handle=p-N).
func (s *Server) handleDropPrepared(w http.ResponseWriter, r *http.Request) {
	handle := r.URL.Query().Get("handle")
	if handle == "" {
		obs.WriteJSONError(w, http.StatusBadRequest, "missing handle parameter")
		return
	}
	if !s.prepared.drop(handle) {
		obs.WriteJSONError(w, http.StatusNotFound, "unknown prepared-statement handle "+handle)
		return
	}
	w.WriteHeader(http.StatusNoContent)
}

// handleHealthz is the load-balancer probe: 200 while serving, 503 once
// draining.
func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	status := http.StatusOK
	state := "ok"
	if s.draining.Load() {
		status = http.StatusServiceUnavailable
		state = "draining"
	}
	writeJSON(w, status, struct {
		Status   string  `json:"status"`
		UptimeS  float64 `json:"uptime_s"`
		Tenants  int     `json:"tenants"`
		Prepared int     `json:"prepared"`
	}{state, time.Since(s.started).Seconds(), len(s.tenants.snapshot()), s.prepared.len()})
}

// handleMetrics serves the engine's Prometheus exposition followed by the
// per-tenant and service-level families, one scrape for the whole process.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	io.WriteString(w, s.db.Metrics().Prometheus())
	io.WriteString(w, s.tenants.prometheus())
	var b strings.Builder
	fmt.Fprintf(&b, "# HELP proteus_server_queries_started_total Queries admitted by the service.\n# TYPE proteus_server_queries_started_total counter\nproteus_server_queries_started_total %d\n",
		s.queriesStarted.Load())
	fmt.Fprintf(&b, "# HELP proteus_server_streams_active Result streams currently being written.\n# TYPE proteus_server_streams_active gauge\nproteus_server_streams_active %d\n",
		s.streamsActive.Load())
	fmt.Fprintf(&b, "# HELP proteus_server_fragments_started_total Cluster fragment requests admitted by the service.\n# TYPE proteus_server_fragments_started_total counter\nproteus_server_fragments_started_total %d\n",
		s.fragmentsStarted.Load())
	fmt.Fprintf(&b, "# HELP proteus_server_prepared_statements Registered prepared-statement handles.\n# TYPE proteus_server_prepared_statements gauge\nproteus_server_prepared_statements %d\n",
		s.prepared.len())
	draining := int64(0)
	if s.draining.Load() {
		draining = 1
	}
	fmt.Fprintf(&b, "# HELP proteus_server_draining Whether the service is draining.\n# TYPE proteus_server_draining gauge\nproteus_server_draining %d\n", draining)
	io.WriteString(w, b.String())
}

// writeJSON writes v as one JSON document with the given status.
func writeJSON(w http.ResponseWriter, status int, v any) {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		obs.WriteJSONError(w, http.StatusInternalServerError, err.Error())
		return
	}
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	w.Write(append(data, '\n'))
}
