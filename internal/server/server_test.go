// Service integration tests (run under -race in CI): NDJSON streaming,
// prepared statements, client-disconnect cancellation, per-tenant quotas,
// graceful drain, and request-ID correlation into the observability layer.
package server

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"proteus"
	"proteus/internal/plugin"
	"proteus/internal/plugin/binpg"
	"proteus/internal/types"
	"proteus/internal/vbuf"
)

// slowInput is a service-test plug-in: a single int column "id", an
// optional per-row sleep to keep queries in flight, and a cancellation
// check on every record so client disconnects land quickly.
type slowInput struct {
	rows   int64
	perRow time.Duration
}

func (s *slowInput) Format() string { return "slow" }

func (s *slowInput) Open(env *plugin.Env, ds *plugin.Dataset) error {
	ds.Schema = &types.RecordType{Fields: []types.Field{{Name: "id", Type: types.Int}}}
	return nil
}

func (s *slowInput) Schema(ds *plugin.Dataset) *types.RecordType { return ds.Schema }
func (s *slowInput) Cardinality(ds *plugin.Dataset) int64        { return s.rows }
func (s *slowInput) FieldCost() float64                          { return 1 }

func (s *slowInput) CompileScan(ds *plugin.Dataset, spec plugin.ScanSpec) (plugin.RunFunc, error) {
	lo, hi := int64(0), s.rows
	if spec.Morsel != nil {
		lo, hi = spec.Morsel.Start, spec.Morsel.End
	}
	var sets []func(regs *vbuf.Regs, row int64)
	for _, req := range spec.Fields {
		slot := req.Slot
		switch {
		case len(req.Path) == 0:
			sets = append(sets, func(regs *vbuf.Regs, row int64) {
				regs.V[slot.Idx] = types.RecordValue([]string{"id"}, []types.Value{types.IntValue(row)})
				regs.Null[slot.Null] = false
			})
		case len(req.Path) == 1 && req.Path[0] == "id":
			sets = append(sets, func(regs *vbuf.Regs, row int64) {
				regs.I[slot.Idx] = row
				regs.Null[slot.Null] = false
			})
		default:
			return nil, fmt.Errorf("slowInput: unknown field %v", req.Path)
		}
	}
	oid := spec.OIDSlot
	cc := spec.Cancel
	perRow := s.perRow
	return func(regs *vbuf.Regs, consume func() error) error {
		for row := lo; row < hi; row++ {
			if cc.Cancelled() {
				return cc.Err()
			}
			if perRow > 0 {
				time.Sleep(perRow)
			}
			if oid != nil {
				regs.I[oid.Idx] = row
				regs.Null[oid.Null] = false
			}
			for _, set := range sets {
				set(regs, row)
			}
			if err := consume(); err != nil {
				return err
			}
		}
		return nil
	}, nil
}

func (s *slowInput) CompileUnnest(ds *plugin.Dataset, spec plugin.UnnestSpec) (plugin.UnnestFunc, error) {
	return nil, plugin.ErrUnsupported
}

func (s *slowInput) ReadRows(ds *plugin.Dataset) ([]types.Value, error) {
	out := make([]types.Value, 0, s.rows)
	for row := int64(0); row < s.rows; row++ {
		out = append(out, types.RecordValue([]string{"id"}, []types.Value{types.IntValue(row)}))
	}
	return out, nil
}

// testService builds a DB with a fast CSV dataset ("t") and a slow plug-in
// dataset ("slow"), wraps it in a Server, and serves it over httptest.
func testService(t *testing.T, cfg Config, slowRows int64, perRow time.Duration) (*Server, *httptest.Server, *proteus.DB) {
	t.Helper()
	db := proteus.Open(proteus.Config{Observability: true, Parallelism: 1})
	eng := db.Engine()
	eng.Mem().PutFile("mem://t.csv", []byte("a,b\n1,x\n2,y\n3,z\n"))
	if err := eng.Register("t", "mem://t.csv", "csv", nil, plugin.Options{Header: true}); err != nil {
		t.Fatal(err)
	}
	eng.RegisterPlugin(&slowInput{rows: slowRows, perRow: perRow})
	if err := eng.Register("slow", "slow://t", "slow", nil, plugin.Options{}); err != nil {
		t.Fatal(err)
	}
	cfg.DB = db
	svc := New(cfg)
	ts := httptest.NewServer(svc.Handler())
	t.Cleanup(ts.Close)
	return svc, ts, db
}

// postQuery issues a /v1/query request and returns the response.
func postQuery(t *testing.T, ts *httptest.Server, body string, headers map[string]string) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, ts.URL+"/v1/query", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	for k, v := range headers {
		req.Header.Set(k, v)
	}
	resp, err := ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// ndjson parses an NDJSON response body into its lines.
func ndjson(t *testing.T, r io.Reader) []map[string]any {
	t.Helper()
	var lines []map[string]any
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		if len(bytes.TrimSpace(sc.Bytes())) == 0 {
			continue
		}
		var doc map[string]any
		if err := json.Unmarshal(sc.Bytes(), &doc); err != nil {
			t.Fatalf("bad NDJSON line %q: %v", sc.Text(), err)
		}
		lines = append(lines, doc)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return lines
}

// TestServerStreamsNDJSON pins the wire protocol: header line with cols and
// request id, one document per row, and a trailer with the row count.
func TestServerStreamsNDJSON(t *testing.T) {
	_, ts, _ := testService(t, Config{}, 10, 0)

	resp := postQuery(t, ts, `{"query":"SELECT a, b FROM t ORDER BY a"}`, map[string]string{"X-Request-Id": "req-1"})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); !strings.Contains(ct, "ndjson") {
		t.Fatalf("Content-Type = %q", ct)
	}
	if got := resp.Header.Get("X-Request-Id"); got != "req-1" {
		t.Fatalf("X-Request-Id echo = %q", got)
	}
	lines := ndjson(t, resp.Body)
	if len(lines) != 5 { // head + 3 rows + trailer
		t.Fatalf("got %d NDJSON lines, want 5: %v", len(lines), lines)
	}
	head, trailer := lines[0], lines[len(lines)-1]
	if cols, _ := head["cols"].([]any); len(cols) != 2 || cols[0] != "a" || cols[1] != "b" {
		t.Fatalf("head = %v", head)
	}
	if rows, _ := trailer["rows"].(float64); rows != 3 {
		t.Fatalf("trailer = %v, want rows 3", trailer)
	}
	if lines[1]["a"] != float64(1) || lines[1]["b"] != "x" {
		t.Fatalf("first row = %v", lines[1])
	}
}

// TestServerEmptyResultHead: the head line names the projected columns
// whether or not any row qualifies — on the tuple path (the CSV table is too
// small to vectorize) and on the columnar one.
func TestServerEmptyResultHead(t *testing.T) {
	_, ts, db := testService(t, Config{}, 1, 0)
	cols := []binpg.Column{{Name: "a", Type: types.Int}, {Name: "b", Type: types.String}}
	for i := 0; i < 3000; i++ {
		cols[0].Ints = append(cols[0].Ints, int64(i))
		cols[1].Strs = append(cols[1].Strs, "x")
	}
	bin, err := binpg.EncodeColumnar(cols)
	if err != nil {
		t.Fatal(err)
	}
	if err := db.RegisterInMemory("tb", bin, "bin", nil); err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{
		"SELECT a, b FROM t WHERE a > 100",
		"SELECT a, b FROM t WHERE a > 1",
		"SELECT b, a FROM tb WHERE a > 100000",
		"SELECT b, a FROM tb WHERE a > 2990",
	} {
		resp := postQuery(t, ts, fmt.Sprintf(`{"query":%q}`, q), nil)
		lines := ndjson(t, resp.Body)
		resp.Body.Close()
		want := fmt.Sprint(strings.Fields(strings.NewReplacer(",", " ").Replace(q[len("SELECT "):strings.Index(q, " FROM")])))
		if got := fmt.Sprint(lines[0]["cols"]); got != want {
			t.Errorf("%s: head cols %s, want %s", q, got, want)
		}
	}
}

// TestServerQueryErrors: bad body, bad query, both-query-and-handle, and
// unknown handle all return JSON error bodies with the right statuses.
func TestServerQueryErrors(t *testing.T) {
	_, ts, _ := testService(t, Config{}, 1, 0)

	for _, tc := range []struct {
		body string
		want int
	}{
		{`{"query":`, http.StatusBadRequest},
		{`{"query":"SELECT a FROM nosuch"}`, http.StatusBadRequest},
		{`{"query":"SELECT 1","handle":"p-1"}`, http.StatusBadRequest},
		{`{"handle":"p-404"}`, http.StatusNotFound},
		{`{}`, http.StatusBadRequest},
	} {
		resp := postQuery(t, ts, tc.body, nil)
		var e struct {
			Error string `json:"error"`
		}
		err := json.NewDecoder(resp.Body).Decode(&e)
		resp.Body.Close()
		if resp.StatusCode != tc.want || err != nil || e.Error == "" {
			t.Errorf("body %q: status %d (want %d), decode err %v, error %q",
				tc.body, resp.StatusCode, tc.want, err, e.Error)
		}
	}
}

// TestServerPreparedLifecycle: prepare → execute by handle → list → drop →
// execute again is 404. Also: preparing an invalid query fails up front.
func TestServerPreparedLifecycle(t *testing.T) {
	_, ts, _ := testService(t, Config{}, 1, 0)

	resp, err := ts.Client().Post(ts.URL+"/v1/prepare", "application/json",
		strings.NewReader(`{"query":"SELECT COUNT(*) FROM t"}`))
	if err != nil {
		t.Fatal(err)
	}
	var st preparedStmt
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil || resp.StatusCode != http.StatusCreated {
		t.Fatalf("prepare: status %d err %v", resp.StatusCode, err)
	}
	resp.Body.Close()
	if st.Handle == "" || st.Lang != "sql" {
		t.Fatalf("prepared = %+v", st)
	}

	// Execute by handle.
	qr := postQuery(t, ts, fmt.Sprintf(`{"handle":%q}`, st.Handle), nil)
	lines := ndjson(t, qr.Body)
	qr.Body.Close()
	if qr.StatusCode != http.StatusOK || len(lines) != 3 {
		t.Fatalf("execute by handle: status %d lines %v", qr.StatusCode, lines)
	}

	// List shows it with a use count.
	resp, err = ts.Client().Get(ts.URL + "/v1/prepare")
	if err != nil {
		t.Fatal(err)
	}
	var list []preparedStmt
	if err := json.NewDecoder(resp.Body).Decode(&list); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(list) != 1 || list[0].Uses != 1 {
		t.Fatalf("list = %+v, want one statement with Uses 1", list)
	}

	// Drop, then the handle is gone.
	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/v1/prepare?handle="+st.Handle, nil)
	resp, err = ts.Client().Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNoContent {
		t.Fatalf("drop: status %d", resp.StatusCode)
	}
	qr = postQuery(t, ts, fmt.Sprintf(`{"handle":%q}`, st.Handle), nil)
	qr.Body.Close()
	if qr.StatusCode != http.StatusNotFound {
		t.Fatalf("execute dropped handle: status %d", qr.StatusCode)
	}

	// Invalid queries fail at prepare time, not first execution.
	resp, err = ts.Client().Post(ts.URL+"/v1/prepare", "application/json",
		strings.NewReader(`{"query":"SELECT nope FROM nosuch"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("prepare invalid: status %d", resp.StatusCode)
	}
}

// TestServerClientDisconnectCancelsQuery is the headline robustness test:
// several clients stream concurrently, one disconnects mid-query, the
// engine cancels that query (queries_cancelled increments), the other
// streams complete, and the engine keeps serving afterwards.
func TestServerClientDisconnectCancelsQuery(t *testing.T) {
	_, ts, db := testService(t, Config{}, 400, time.Millisecond)

	var wg sync.WaitGroup
	okRows := make([]int, 3)
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp := postQuery(t, ts, `{"query":"SELECT id FROM slow","chunk_rows":16}`,
				map[string]string{"X-Proteus-Tenant": "steady"})
			defer resp.Body.Close()
			lines := ndjson(t, resp.Body)
			if n, ok := lines[len(lines)-1]["rows"].(float64); ok {
				okRows[i] = int(n)
			}
		}(i)
	}

	// The disconnecting client: cancel its request context mid-execution.
	wg.Add(1)
	go func() {
		defer wg.Done()
		ctx, cancel := context.WithCancel(context.Background())
		req, _ := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/v1/query",
			strings.NewReader(`{"query":"SELECT id FROM slow"}`))
		req.Header.Set("X-Proteus-Tenant", "flaky")
		go func() {
			time.Sleep(50 * time.Millisecond)
			cancel()
		}()
		resp, err := ts.Client().Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		if err == nil || !errors.Is(err, context.Canceled) {
			t.Errorf("disconnecting client: err = %v, want context.Canceled", err)
		}
	}()
	wg.Wait()

	for i, n := range okRows {
		if n != 400 {
			t.Errorf("steady client %d streamed %d rows, want 400", i, n)
		}
	}
	if got := db.Metrics().QueriesCancelled; got < 1 {
		t.Errorf("QueriesCancelled = %d, want >= 1", got)
	}

	// The engine is still fully usable.
	resp := postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`, nil)
	lines := ndjson(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(lines) != 3 {
		t.Fatalf("follow-up query: status %d lines %v", resp.StatusCode, lines)
	}

	// The flaky tenant's cancellation shows up in /metrics.
	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(metrics), `proteus_tenant_cancelled_total{tenant="flaky"} 1`) {
		t.Errorf("/metrics missing flaky tenant cancellation:\n%s", grepLines(string(metrics), "tenant"))
	}
	if !strings.Contains(string(metrics), `proteus_tenant_rows_total{tenant="steady"} 1200`) {
		t.Errorf("/metrics missing steady tenant rows:\n%s", grepLines(string(metrics), "tenant"))
	}
}

// TestServerTenantQuotas: one tenant at its concurrency cap is rejected
// with 429 while another tenant's queries proceed, and the rejection is
// counted per tenant.
func TestServerTenantQuotas(t *testing.T) {
	_, ts, _ := testService(t, Config{TenantMaxConcurrent: 1}, 400, time.Millisecond)

	hold := make(chan struct{})
	go func() {
		defer close(hold)
		resp := postQuery(t, ts, `{"query":"SELECT id FROM slow"}`,
			map[string]string{"X-Proteus-Tenant": "acme"})
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	time.Sleep(50 * time.Millisecond) // let acme's query occupy its slot

	// acme is at cap: immediate 429 with Retry-After and a JSON error.
	resp := postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`,
		map[string]string{"X-Proteus-Tenant": "acme"})
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || resp.Header.Get("Retry-After") == "" ||
		!strings.Contains(e.Error, "concurrent-query") {
		t.Fatalf("over-cap: status %d retry-after %q error %q",
			resp.StatusCode, resp.Header.Get("Retry-After"), e.Error)
	}

	// Another tenant is unaffected.
	resp = postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`,
		map[string]string{"X-Proteus-Tenant": "globex"})
	lines := ndjson(t, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || len(lines) != 3 {
		t.Fatalf("other tenant: status %d lines %v", resp.StatusCode, lines)
	}
	<-hold

	// After its query finishes, acme is admitted again.
	resp = postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`,
		map[string]string{"X-Proteus-Tenant": "acme"})
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("acme after release: status %d", resp.StatusCode)
	}

	mr, err := ts.Client().Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	metrics, _ := io.ReadAll(mr.Body)
	mr.Body.Close()
	if !strings.Contains(string(metrics), `proteus_tenant_rejected_total{tenant="acme"} 1`) {
		t.Errorf("/metrics missing acme rejection:\n%s", grepLines(string(metrics), "tenant"))
	}
}

// TestServerMemQuota: with a memory quota of exactly one per-query budget,
// a tenant's second concurrent query is refused for memory, not concurrency.
func TestServerMemQuota(t *testing.T) {
	_, ts, _ := testService(t, Config{
		TenantMemQuota: 1 << 20,
		QueryMemBudget: 1 << 20,
	}, 400, time.Millisecond)

	hold := make(chan struct{})
	go func() {
		defer close(hold)
		resp := postQuery(t, ts, `{"query":"SELECT id FROM slow"}`, nil)
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	time.Sleep(50 * time.Millisecond)

	resp := postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`, nil)
	var e struct {
		Error string `json:"error"`
	}
	json.NewDecoder(resp.Body).Decode(&e)
	resp.Body.Close()
	if resp.StatusCode != http.StatusTooManyRequests || !strings.Contains(e.Error, "memory") {
		t.Fatalf("over mem quota: status %d error %q", resp.StatusCode, e.Error)
	}
	<-hold
}

// TestServerDrain: Drain flips /healthz to 503 and refuses new queries
// while Close drains the engine; afterwards everything is refused.
func TestServerDrain(t *testing.T) {
	svc, ts, _ := testService(t, Config{}, 1, 0)

	hr, err := ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	hr.Body.Close()
	if hr.StatusCode != http.StatusOK {
		t.Fatalf("healthz before drain: %d", hr.StatusCode)
	}

	svc.Drain()
	hr, err = ts.Client().Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var h struct {
		Status string `json:"status"`
	}
	json.NewDecoder(hr.Body).Decode(&h)
	hr.Body.Close()
	if hr.StatusCode != http.StatusServiceUnavailable || h.Status != "draining" {
		t.Fatalf("healthz during drain: %d %+v", hr.StatusCode, h)
	}
	resp := postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`, nil)
	resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("query during drain: status %d", resp.StatusCode)
	}

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := svc.Close(ctx); err != nil {
		t.Fatalf("Close = %v", err)
	}
}

// TestServerRequestIDCorrelation: the X-Request-Id a client sends shows up
// as the tag on the query's profile in /debug/queries.
func TestServerRequestIDCorrelation(t *testing.T) {
	_, ts, _ := testService(t, Config{}, 1, 0)

	resp := postQuery(t, ts, `{"query":"SELECT COUNT(*) FROM t"}`,
		map[string]string{"X-Request-Id": "trace-me-7"})
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()

	dr, err := ts.Client().Get(ts.URL + "/debug/queries")
	if err != nil {
		t.Fatal(err)
	}
	var profiles []struct {
		Tag   string `json:"tag"`
		Query string `json:"query"`
	}
	if err := json.NewDecoder(dr.Body).Decode(&profiles); err != nil {
		t.Fatal(err)
	}
	dr.Body.Close()
	if len(profiles) == 0 || profiles[0].Tag != "trace-me-7" {
		t.Fatalf("profiles = %+v, want newest tagged trace-me-7", profiles)
	}
}

// grepLines returns the lines of s containing substr, for error messages.
func grepLines(s, substr string) string {
	var out []string
	for _, line := range strings.Split(s, "\n") {
		if strings.Contains(line, substr) {
			out = append(out, line)
		}
	}
	return strings.Join(out, "\n")
}
