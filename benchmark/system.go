package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"proteus"
	"proteus/internal/plugin"
	"proteus/internal/server"
	"proteus/internal/types"
)

// system is one set-up instance of what a workload measures: engines with
// their datasets registered, plus — for svc and cluster3 — HTTP services on
// loopback listeners. Building one is what setup_s times.
type system struct {
	db    *proteus.DB // the engine operations are sent to (the coordinator on cluster3)
	local *system     // cluster3 only: a stand-alone engine over the same catalog
	nodes []*node
	http  *http.Client
	base  string            // svc: base URL of the query service
	hdl   map[string]string // svc: prepared query text → handle

	cfg    proteus.Config           // configuration of db
	regs   []registration           // what db has registered, so a twin can be built
	rowsOf map[string]int64         // dataset name → cardinality
	opened map[string]time.Duration // format → Σ Input.Open time of this set-up
}

type registration struct {
	t      *table
	format string
}

// node is one HTTP service instance on a loopback listener.
type node struct {
	srv  *http.Server
	url  string
	done chan struct{} // closed when Serve has returned
}

func startNode(db *proteus.DB) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("listening on loopback: %w", err)
	}
	n := &node{
		srv:  &http.Server{Handler: server.New(server.Config{DB: db}).Handler(), ReadHeaderTimeout: 10 * time.Second},
		url:  "http://" + ln.Addr().String(),
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.srv.Serve(ln) // always ErrServerClosed after Shutdown
	}()
	return n, nil
}

// close stops every service and waits for its goroutines; engines are left
// to the garbage collector.
func (s *system) close() {
	if s == nil {
		return
	}
	if s.http != nil {
		s.http.CloseIdleConnections()
	}
	for _, n := range s.nodes {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		if err := n.srv.Shutdown(ctx); err != nil {
			_ = n.srv.Close()
		}
		cancel()
		<-n.done
	}
}

func newSystem(cfg proteus.Config) *system {
	return &system{cfg: cfg, db: proteus.Open(cfg), rowsOf: map[string]int64{}, opened: map[string]time.Duration{}}
}

// twin builds a second engine over the same (shared) file images with a
// modified configuration — the observability-on and stand-alone
// counterparts the traced pass compares against.
func (s *system) twin(mod func(*proteus.Config)) (*system, error) {
	cfg := s.cfg
	mod(&cfg)
	t := newSystem(cfg)
	for _, r := range s.regs {
		if err := t.register(t.db, r.t, r.format); err != nil {
			return nil, err
		}
	}
	return t, nil
}

// register hands one table to an engine in the given formats. The byte
// slices are shared between engines: mem:// files are not copied.
func (s *system) register(db *proteus.DB, t *table, formats ...string) error {
	for _, f := range formats {
		name := t.Name + "_" + f
		var (
			data   []byte
			schema *types.RecordType
		)
		switch f {
		case "csv":
			data, schema = t.CSV, t.Schema // header-less CSV takes its column names from the schema
		case "json":
			data = t.JSON
		default:
			data = t.Bin
		}
		if data == nil {
			return fmt.Errorf("table %s has no %s image", t.Name, f)
		}
		path := "mem://" + name
		eng := db.Engine()
		eng.Mem().PutFile(path, data)
		t0 := time.Now()
		if err := eng.Register(name, path, f, schema, plugin.Options{}); err != nil {
			return err
		}
		s.opened[f] += time.Since(t0)
		s.rowsOf[name] = int64(t.Rows)
		if db == s.db {
			s.regs = append(s.regs, registration{t, f})
		}
	}
	return nil
}

// inputRows sums the cardinality of every dataset an operation names.
func (s *system) inputRows(text string) int64 {
	var n int64
	for name, rows := range s.rowsOf {
		if strings.Contains(text, name) {
			n += rows
		}
	}
	return n
}

// warm runs the operations until the adaptive state has settled: cache
// blocks are built on first touch, a bitmap index only after its column has
// been scanned hotScanThreshold (3) times with a selective predicate, and
// either event invalidates compiled plans, which then recompile once more.
// So: at least five rounds, then on until a whole round changes nothing.
func (s *system) warm(ops []op) error {
	var last string
	for round := 0; round < 12; round++ {
		for i := range ops {
			if _, err := s.db.QueryContext(context.Background(), ops[i].Text); err != nil {
				return fmt.Errorf("warm-up %s: %w", ops[i].Label, err)
			}
		}
		cs, m := s.db.CacheStats(), s.db.Metrics()
		state := fmt.Sprint(cs.Blocks, cs.JoinSides, cs.Bytes, cs.Indexes, cs.IndexBytes, m.PlanCacheMisses)
		if round >= 4 && state == last {
			return nil
		}
		last = state
	}
	return nil
}

// query runs one operation in-process and returns its latency — the call
// returned and the materialized result in hand — and its digest.
func query(db *proteus.DB, o *op) (time.Duration, digest, *proteus.Result, error) {
	t0 := time.Now()
	res, err := db.QueryContext(context.Background(), o.Text)
	lat := time.Since(t0)
	if err != nil {
		return lat, digest{}, nil, err
	}
	return lat, digestRows(res.Rows, o.Ordered), res, nil
}

// run sends one operation to the system in-process, the way a single-client
// workload does. On cluster3 an answer the coordinator computed by itself is
// an error, however correct: the run would be timing a stand-alone engine
// under the cluster's name.
func (s *system) run(o *op) (time.Duration, digest, error) {
	lat, got, res, err := query(s.db, o)
	if err == nil && s.local != nil && res.Fragments == 0 {
		err = errors.New("not scattered: the coordinator answered locally")
	}
	return lat, got, err
}

// httpReply is what the svc client keeps of one response.
type httpReply struct {
	Status  int
	Latency time.Duration // request written → body fully read
	TTFB    time.Duration // request written → first body byte
	Body    []byte        // valid until the buffer it was read into is reused
}

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// post sends one operation to the query service over a kept-alive
// connection and reads the whole NDJSON body.
func (s *system) post(o *op, buf *bytes.Buffer) (httpReply, error) {
	var req struct {
		Query  string `json:"query,omitempty"`
		Handle string `json:"handle,omitempty"`
	}
	if o.Kind == kindPrepared {
		req.Handle = s.hdl[o.Text]
	} else {
		req.Query = o.Text
	}
	payload, err := json.Marshal(req)
	if err != nil {
		return httpReply{}, err
	}
	t0 := time.Now()
	resp, err := s.http.Post(s.base+"/v1/query", "application/json", bytes.NewReader(payload))
	if err != nil {
		return httpReply{}, err
	}
	defer resp.Body.Close()
	rep := httpReply{Status: resp.StatusCode}
	buf.Reset()
	var first [1]byte
	if n, _ := io.ReadFull(resp.Body, first[:]); n == 1 {
		rep.TTFB = time.Since(t0)
		buf.WriteByte(first[0])
	}
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		return rep, err
	}
	rep.Latency = time.Since(t0)
	rep.Body = buf.Bytes()
	return rep, nil
}

// bodyDigest cuts an NDJSON reply into head line, row lines and trailer,
// checks the trailer's row count and digests the row lines, which it also
// returns. The head and trailer carry the request id and the elapsed time,
// which differ per call.
func bodyDigest(rep httpReply) (digest, []byte, error) {
	if rep.Status != http.StatusOK {
		return digest{}, nil, fmt.Errorf("HTTP %d: %s", rep.Status, bytes.TrimSpace(rep.Body))
	}
	body := bytes.TrimSuffix(rep.Body, []byte("\n"))
	head := bytes.IndexByte(body, '\n')
	tail := bytes.LastIndexByte(body, '\n')
	if head < 0 {
		return digest{}, nil, errors.New("reply has no trailer line")
	}
	var trailer struct {
		Rows  *int   `json:"rows"`
		Error string `json:"error"`
	}
	if err := json.Unmarshal(body[tail+1:], &trailer); err != nil {
		return digest{}, nil, fmt.Errorf("trailer: %w", err)
	}
	if trailer.Rows == nil {
		return digest{}, nil, fmt.Errorf("stream truncated: %s", trailer.Error)
	}
	var rows []byte
	if tail > head {
		rows = body[head+1 : tail]
	}
	d := digest{Rows: *trailer.Rows, Hash: uint64(crc32.Checksum(rows, crcTable))}
	lines := 0
	if len(rows) > 0 {
		lines = bytes.Count(rows, []byte("\n")) + 1
	}
	if lines != d.Rows {
		return d, rows, fmt.Errorf("trailer says %d rows, body has %d", d.Rows, lines)
	}
	return d, rows, nil
}

// sameRows checks the row lines of an NDJSON body against the in-process
// result of the same query on the same engine, row for row and field for
// field.
func sameRows(rows []byte, res *proteus.Result) error {
	var lines [][]byte
	if len(rows) > 0 {
		lines = bytes.Split(rows, []byte("\n"))
	}
	if len(lines) != len(res.Rows) {
		return fmt.Errorf("HTTP returned %d rows, in-process %d", len(lines), len(res.Rows))
	}
	scalarCol := "result"
	if len(res.Cols) == 1 {
		scalarCol = res.Cols[0]
	}
	for i, line := range lines {
		dec := json.NewDecoder(bytes.NewReader(line))
		dec.UseNumber()
		var obj map[string]any
		if err := dec.Decode(&obj); err != nil {
			return fmt.Errorf("row %d: %w", i, err)
		}
		row := res.Rows[i]
		if row.Kind != types.KindRecord {
			row = types.RecordValue([]string{scalarCol}, []types.Value{row})
		}
		if len(obj) != len(row.Rec.Names) {
			return fmt.Errorf("row %d: %d fields over HTTP, %d in-process", i, len(obj), len(row.Rec.Names))
		}
		for k, name := range row.Rec.Names {
			if !sameJSON(obj[name], row.Rec.Values[k]) {
				return fmt.Errorf("row %d field %s: HTTP %v, in-process %v", i, name, obj[name], row.Rec.Values[k])
			}
		}
	}
	return nil
}

func sameJSON(j any, v types.Value) bool {
	switch v.Kind {
	case types.KindNull:
		return j == nil
	case types.KindInt:
		n, ok := j.(json.Number)
		i, err := n.Int64()
		return ok && err == nil && i == v.I
	case types.KindFloat:
		n, ok := j.(json.Number)
		f, err := n.Float64()
		return ok && err == nil && f == v.F
	case types.KindString:
		s, ok := j.(string)
		return ok && s == v.S
	case types.KindBool:
		b, ok := j.(bool)
		return ok && b == v.Bool()
	}
	return false // no svc operation returns nested values
}

// --- set-ups, one per workload -------------------------------------------

// warmConfig is the engine of the three workloads that run on warmed caches
// (warm_cache, join_sort, svc). CacheStrings: they filter and join on string
// columns, and the point is that raw parsers do none of the work. The index
// policy and the execution mode are pinned because the defaults do not reach
// one steady state: IndexesAuto indexes a range-filtered column or not
// depending on which bound the literal puts last, and VectorizedAuto keeps
// whichever mode won a single timing during warm-up for as long as the plan
// stays cached — measured, the same template ran 4–10× apart between seeds.
// The adaptive defaults are what raw_scan, spam_mix, adhoc_compile and
// cluster3 run.
var warmConfig = proteus.Config{
	CacheEnabled: true, CacheStrings: true,
	Indexes: proteus.IndexesOn, Vectorized: proteus.VectorizedOn,
}

// parallelism is the morsel parallelism of the engines of raw_scan and
// join_sort: two workers, this host's nproc and therefore what the engine's
// default would be on it. The process has one P (see main), so the two
// workers take turns; the workloads measure the work of the parallel path —
// partitioned scans, per-worker hash and aggregation tables, the merge — and
// not its speed-up, which is the per-layer exec.par_speedup. Every other
// workload compiles serial pipelines.
const parallelism = 2

func setupRawScan(d *data) (*system, error) {
	s := newSystem(proteus.Config{CacheEnabled: false, Parallelism: parallelism})
	return s, s.register(s.db, d.tpch.Lineitem, "csv", "json", "bin")
}

func setupWarmCache(d *data) (*system, error) {
	s := newSystem(warmConfig)
	if err := s.register(s.db, d.tpch.Lineitem, "json", "csv"); err != nil {
		return nil, err
	}
	return s, s.warm(d.ops)
}

func setupJoinSort(d *data) (*system, error) {
	cfg := warmConfig
	cfg.Parallelism = parallelism
	s := newSystem(cfg)
	if err := errors.Join(
		s.register(s.db, d.tpch.Lineitem, "bin", "csv"),
		s.register(s.db, d.tpch.Orders, "bin", "json"),
		s.register(s.db, d.tpch.Clerk, "bin"),
	); err != nil {
		return nil, err
	}
	return s, s.warm(d.ops)
}

// setupSpam builds the cold engine one spam_mix pass starts from. budget
// bounds the cache arena (0 = unbounded).
func setupSpam(d *data, budget int64) (*system, error) {
	s := newSystem(proteus.Config{CacheEnabled: true, CacheBudget: budget})
	return s, errors.Join(
		s.register(s.db, d.spam.Hist, "bin"),
		s.register(s.db, d.spam.Class, "csv"),
		s.register(s.db, d.spam.Feed, "json"),
	)
}

func setupAdhoc(d *data) (*system, error) {
	s := newSystem(proteus.Config{CacheEnabled: false})
	all := []string{"csv", "json", "bin"}
	return s, errors.Join(
		s.register(s.db, d.small.Lineitem, all...),
		s.register(s.db, d.small.Orders, all...),
		s.register(s.db, d.small.Clerk, all...),
	)
}

func setupSvc(d *data) (*system, error) {
	s := newSystem(warmConfig)
	if err := s.register(s.db, d.tpch.Lineitem, "csv", "json", "bin"); err != nil {
		return nil, err
	}
	n, err := startNode(s.db)
	if err != nil {
		return nil, err
	}
	s.nodes = []*node{n}
	s.base = n.url
	s.http = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: d.clients}}
	s.hdl = map[string]string{}
	for i := range d.prepared {
		body, _ := json.Marshal(map[string]string{"query": d.prepared[i].Text})
		resp, err := s.http.Post(s.base+"/v1/prepare", "application/json", bytes.NewReader(body))
		if err != nil {
			s.close()
			return nil, err
		}
		var st struct {
			Handle string `json:"handle"`
		}
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil || st.Handle == "" {
			s.close()
			return nil, fmt.Errorf("preparing %q: status %d, %v", d.prepared[i].Text, resp.StatusCode, err)
		}
		s.hdl[d.prepared[i].Text] = st.Handle
	}
	// Warm-up: every client's first round, so caches are built and the
	// prepared statements sit compiled in the plan cache.
	for c := range d.rounds {
		if err := s.warm(d.rounds[c][0]); err != nil {
			s.close()
			return nil, err
		}
	}
	return s, nil
}

func setupCluster(d *data) (*system, error) {
	fill := func(s *system, db *proteus.DB) error {
		return errors.Join(
			s.register(db, d.tpch.Lineitem, "csv", "bin"),
			s.register(db, d.tpch.Orders, "bin"),
		)
	}
	var nodes []*node
	var urls []string
	workers := &system{rowsOf: map[string]int64{}, opened: map[string]time.Duration{}}
	stop := func() { (&system{nodes: nodes}).close() }
	for i := 0; i < 3; i++ {
		db := proteus.Open(proteus.Config{})
		err := fill(workers, db)
		if err == nil {
			var n *node
			if n, err = startNode(db); err == nil {
				nodes = append(nodes, n)
				urls = append(urls, n.url)
			}
		}
		if err != nil {
			stop()
			return nil, err
		}
	}
	// No faults are injected, so hedging stays off and no retry should fire.
	s := newSystem(proteus.Config{ClusterWorkers: urls})
	s.nodes = nodes
	err := fill(s, s.db)
	if err == nil {
		s.local, err = s.twin(func(c *proteus.Config) { c.ClusterWorkers = nil })
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// runClients runs fn once per client concurrently and returns the first
// error.
func runClients(n int, fn func(client int) error) error {
	errs := make([]error, n)
	var wg sync.WaitGroup
	for c := 0; c < n; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			errs[c] = fn(c)
		}(c)
	}
	wg.Wait()
	return errors.Join(errs...)
}
