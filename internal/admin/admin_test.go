package admin

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"

	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// startPlane boots a single-device daemon (optionally WAL-backed) and
// wraps it in an admin handler with the given throttle shape.
func startPlane(t *testing.T, withWAL bool, rate, burst float64) *Handler {
	t.Helper()
	leak.Check(t)
	var l *wal.Log
	if withWAL {
		var err error
		l, err = wal.Open(wal.Options{Dir: filepath.Join(t.TempDir(), "wal"), Sync: wal.SyncNone})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { l.Close() })
	}
	st := core.MustNew(core.Config{Capacity: 1000 * bytesize.MiB, ContextOverhead: 1})
	return planeFor(t, daemon.Config{Core: st, WAL: l}, rate, burst)
}

// planeFor starts a daemon from cfg (in a fresh base directory) and
// wraps it in an admin handler.
func planeFor(t *testing.T, cfg daemon.Config, rate, burst float64) *Handler {
	t.Helper()
	cfg.BaseDir = filepath.Join(t.TempDir(), "cv")
	d, err := daemon.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { d.Close() })
	h, err := New(Config{Daemon: d, RatePerSec: rate, Burst: burst})
	if err != nil {
		t.Fatal(err)
	}
	return h
}

// control dials the daemon's control socket — the admin plane is
// read-mostly, admissions still arrive over IPC.
func control(t *testing.T, h *Handler) *ipc.Client {
	t.Helper()
	cli, err := ipc.Dial(h.d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	return cli
}

// getJSON performs one GET that must answer 200 and decodes the body.
func getJSON(t *testing.T, h *Handler, target string, v any) {
	t.Helper()
	rec := do(h, "GET", target, nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("GET %s = %d: %s", target, rec.Code, rec.Body)
	}
	if err := json.Unmarshal(rec.Body.Bytes(), v); err != nil {
		t.Fatalf("GET %s: body %q: %v", target, rec.Body, err)
	}
}

// registerSessions registers n sessions over the daemon's control
// socket.
func registerSessions(t *testing.T, h *Handler, n int) {
	t.Helper()
	cli := control(t, h)
	for i := 0; i < n; i++ {
		id := "s" + string(rune('a'+i))
		resp, err := cli.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeRegister, Container: id, Limit: int64(10 * bytesize.MiB),
		})
		if err != nil || !resp.OK {
			t.Fatalf("register %s: %v %+v", id, err, resp)
		}
	}
}

// get performs one request against the handler and returns the
// recorder. httptest.NewRequest pins RemoteAddr, so all requests in a
// test share one throttle bucket.
func do(h *Handler, method, target string, hdr map[string]string) *httptest.ResponseRecorder {
	req := httptest.NewRequest(method, target, nil)
	for k, v := range hdr {
		req.Header.Set(k, v)
	}
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, req)
	return rec
}

func TestRequestIDMintedAndEchoed(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	rec := do(h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/stats = %d: %s", rec.Code, rec.Body)
	}
	if rec.Header().Get(RequestIDHeader) == "" {
		t.Error("no request ID minted")
	}
	rec = do(h, "GET", "/v1/stats", map[string]string{RequestIDHeader: "req-mine"})
	if got := rec.Header().Get(RequestIDHeader); got != "req-mine" {
		t.Errorf("client request ID not echoed: got %q", got)
	}
}

func TestSessionsPaging(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	registerSessions(t, h, 5)
	var got []string
	after := ""
	for {
		rec := do(h, "GET", "/v1/sessions?limit=2&after="+after, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("/v1/sessions = %d: %s", rec.Code, rec.Body)
		}
		var page daemon.SessionPage
		if err := json.Unmarshal(rec.Body.Bytes(), &page); err != nil {
			t.Fatal(err)
		}
		if page.Total != 5 {
			t.Fatalf("total = %d, want 5", page.Total)
		}
		for _, s := range page.Sessions {
			got = append(got, s.Container)
			// Live-core pages carry usage detail.
			if s.Limit != int64(10*bytesize.MiB) || s.Grant == 0 {
				t.Errorf("session %s = %+v", s.Container, s)
			}
		}
		if !page.More {
			break
		}
		after = page.NextAfter
	}
	if len(got) != 5 {
		t.Fatalf("paged %d sessions, want 5: %v", len(got), got)
	}
	for i, id := range []string{"sa", "sb", "sc", "sd", "se"} {
		if got[i] != id {
			t.Fatalf("paged sessions = %v, want ordered sa..se", got)
		}
	}
}

// TestWALEndpointOnEveryDaemon: a daemon given no log keeps one of its
// own, so /v1/wal answers on it as on one the caller opened.
func TestWALEndpointOnEveryDaemon(t *testing.T) {
	for _, withWAL := range []bool{false, true} {
		h := startPlane(t, withWAL, 0, 0)
		registerSessions(t, h, 2)
		var stats wal.Stats
		getJSON(t, h, "/v1/wal", &stats)
		if stats.Sessions != 2 || stats.LastSeq < 2 {
			t.Errorf("wal stats (log passed in: %v) = %+v, want 2 sessions", withWAL, stats)
		}
	}
}

// pollOperation polls /v1/operations/{id} until the operation leaves
// queued/running.
func pollOperation(t *testing.T, h *Handler, id string) asyncop.Operation {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		rec := do(h, "GET", "/v1/operations/"+id, nil)
		if rec.Code != http.StatusOK {
			t.Fatalf("poll %s = %d: %s", id, rec.Code, rec.Body)
		}
		var op asyncop.Operation
		if err := json.Unmarshal(rec.Body.Bytes(), &op); err != nil {
			t.Fatal(err)
		}
		if op.Status == asyncop.StatusCompleted || op.Status == asyncop.StatusFailed {
			return op
		}
		time.Sleep(2 * time.Millisecond)
	}
	t.Fatalf("operation %s never finished", id)
	return asyncop.Operation{}
}

func TestCompactIsAnAsyncOperation(t *testing.T) {
	h := startPlane(t, true, 0, 0)
	registerSessions(t, h, 3)
	rec := do(h, "POST", "/v1/wal/compact", map[string]string{RequestIDHeader: "req-compact-1"})
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST /v1/wal/compact = %d: %s", rec.Code, rec.Body)
	}
	var op asyncop.Operation
	if err := json.Unmarshal(rec.Body.Bytes(), &op); err != nil {
		t.Fatal(err)
	}
	if op.ID == "" || op.Kind != "compact" || op.RequestID != "req-compact-1" {
		t.Fatalf("operation document = %+v", op)
	}
	if loc := rec.Header().Get("Location"); loc != "/v1/operations/"+op.ID {
		t.Errorf("Location = %q, want /v1/operations/%s", loc, op.ID)
	}
	done := pollOperation(t, h, op.ID)
	if done.Status != asyncop.StatusCompleted {
		t.Fatalf("compact finished %s: %s", done.Status, done.Error)
	}
	// The result carries the post-compaction stats.
	res, _ := json.Marshal(done.Result)
	var stats wal.Stats
	if err := json.Unmarshal(res, &stats); err != nil {
		t.Fatalf("compact result %s: %v", res, err)
	}
	if stats.Sessions != 3 {
		t.Errorf("post-compact sessions = %d, want 3", stats.Sessions)
	}
	// The admin verb landed in the event trace under the request ID.
	data, err := h.d.Obs().Tracer().DumpPage("", 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(data) || !containsAll(string(data), "admin_compact", "req-compact-1") {
		t.Errorf("trace missing admin_compact/req-compact-1: %s", data)
	}
	// And it shows up in the listing.
	rec = do(h, "GET", "/v1/operations", nil)
	var list []asyncop.Operation
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatal(err)
	}
	if len(list) == 0 || list[0].ID != op.ID {
		t.Errorf("operations listing = %+v, want %s first", list, op.ID)
	}
}

func TestUnknownOperationEnvelope(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	rec := do(h, "GET", "/v1/operations/op-404", map[string]string{RequestIDHeader: "req-x"})
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown operation = %d, want 404", rec.Code)
	}
	var e ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "req-x" || e.Error == "" {
		t.Errorf("envelope = %+v", e)
	}
	// A fresh daemon lists no operations: an empty array, not null.
	if rec := do(h, "GET", "/v1/operations", nil); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Errorf("operations on a fresh daemon = %d %s, want []", rec.Code, rec.Body)
	}
}

func TestDrainWithoutClusterFails(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	rec := do(h, "POST", "/v1/nodes/0/drain", nil)
	if rec.Code != http.StatusAccepted {
		t.Fatalf("POST drain = %d: %s", rec.Code, rec.Body)
	}
	var op asyncop.Operation
	if err := json.Unmarshal(rec.Body.Bytes(), &op); err != nil {
		t.Fatal(err)
	}
	done := pollOperation(t, h, op.ID)
	if done.Status != asyncop.StatusFailed {
		t.Fatalf("drain on single-node backend finished %s", done.Status)
	}
	if !containsAll(done.Error, "no node membership") {
		t.Errorf("drain error = %q", done.Error)
	}
	// A malformed node index fails before submission.
	if rec := do(h, "POST", "/v1/nodes/banana/drain", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("drain banana = %d, want 400", rec.Code)
	}
	// The membership view itself is not there to read.
	rec = do(h, "GET", "/v1/nodes", nil)
	if rec.Code != http.StatusNotFound || !containsAll(rec.Body.String(), "no node membership", "request_id") {
		t.Errorf("/v1/nodes on a single-node backend = %d %s, want the 404 envelope", rec.Code, rec.Body)
	}
}

func TestThrottle(t *testing.T) {
	h := startPlane(t, false, 1, 2) // burst of 2, 1/s refill
	for i := 0; i < 2; i++ {
		if rec := do(h, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
			t.Fatalf("request %d = %d", i, rec.Code)
		}
	}
	rec := do(h, "GET", "/v1/stats", nil)
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("over-budget request = %d, want 429", rec.Code)
	}
	var e ErrorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.Error == "" || e.RequestID == "" {
		t.Errorf("429 envelope = %+v", e)
	}
	// A negative rate disables throttling entirely.
	h2 := startPlane(t, false, -1, 0)
	for i := 0; i < 500; i++ {
		if rec := do(h2, "GET", "/v1/stats", nil); rec.Code != http.StatusOK {
			t.Fatalf("unthrottled request %d = %d", i, rec.Code)
		}
	}
}

func containsAll(s string, subs ...string) bool {
	for _, sub := range subs {
		if !strings.Contains(s, sub) {
			return false
		}
	}
	return true
}

// driveOneContainer registers c1 (400 MiB) and has pid 1 allocate
// 100 MiB, so every document has something to show.
func driveOneContainer(t *testing.T, h *Handler) {
	t.Helper()
	resp, err := control(t, h).Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: "c1", Limit: int64(400 * bytesize.MiB),
	})
	if err != nil || !resp.OK {
		t.Fatalf("register c1: %v %+v", err, resp)
	}
	wcli, err := ipc.Dial(filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer wcli.Close()
	areq, err := wcli.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAlloc, PID: 1, Size: int64(100 * bytesize.MiB),
	})
	if err != nil || !areq.OK || areq.Decision != protocol.DecisionAccept {
		t.Fatalf("alloc: %+v %v", areq, err)
	}
}

// TestStatsTraceDumpRoutes pins the three introspection documents on
// the plane that serves them: the same keys and values the control
// socket's stats / trace / dump verbs answered with.
func TestStatsTraceDumpRoutes(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	driveOneContainer(t, h)

	// stats: full metric snapshot, with the register+accept counted.
	var stats obs.StatsPayload
	getJSON(t, h, "/v1/stats", &stats)
	if stats.Algorithm == "" || stats.AtNano == 0 || len(stats.Metrics) == 0 {
		t.Fatalf("stats payload: %+v", stats)
	}
	counts := map[string]int64{}
	for _, p := range stats.Metrics {
		if p.Name == obs.MetricEvents {
			counts[p.Labels["kind"]] = p.Value
		}
	}
	if counts["register"] != 1 || counts["accept"] != 1 {
		t.Fatalf("event counters: %v", counts)
	}

	// trace: c1's events in causal order.
	var trace obs.TraceDump
	getJSON(t, h, "/v1/trace?container=c1", &trace)
	if len(trace.Events) < 2 || trace.Capacity == 0 || trace.Total < 2 {
		t.Fatalf("trace: %+v", trace)
	}
	if trace.Events[0].Kind != "register" || trace.Events[0].CSeq != 1 {
		t.Fatalf("first trace event: %+v", trace.Events[0])
	}
	// A limit shrinks the page and the cursor says there is more.
	getJSON(t, h, "/v1/trace?limit=1", &trace)
	if len(trace.Events) != 1 || !trace.More || trace.NextAfter != trace.Events[0].Seq {
		t.Fatalf("limited trace page: %+v", trace)
	}
	if rec := do(h, "GET", "/v1/trace?after=banana", nil); rec.Code != http.StatusBadRequest {
		t.Errorf("trace with a malformed cursor = %d, want 400", rec.Code)
	}

	// dump: identity, devices, containers, metrics and trace in one
	// document.
	var dump struct {
		daemon.Dump
		Trace obs.TraceDump `json:"trace"`
	}
	getJSON(t, h, "/v1/dump", &dump)
	if dump.Algorithm == "" || dump.Capacity != int64(1000*bytesize.MiB) || dump.PoolFree != int64(600*bytesize.MiB) {
		t.Fatalf("dump identity: %+v", dump.Dump)
	}
	if len(dump.Devices) != 1 || dump.Devices[0].Containers != 1 || len(dump.Containers) != 1 {
		t.Fatalf("dump: %+v", dump.Dump)
	}
	if c := dump.Containers[0]; c.ID != "c1" || c.Limit != int64(400*bytesize.MiB) || c.Used == 0 {
		t.Fatalf("dump container: %+v", c)
	}
	if len(dump.Trace.Events) == 0 || len(dump.Metrics) == 0 {
		t.Fatal("dump missing trace or metrics")
	}
}

// TestTraceRoutePages: a ring holding more than one page's worth of
// events is retrieved whole by following next_after, and the dump's
// trace stays a capped tail of the same ring.
func TestTraceRoutePages(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	tr := h.d.Obs().Tracer()
	for i := 0; i < 2*maxTracePage+300; i++ {
		tr.RecordAdmin(time.Now(), "test_fill", "req-fill", "filler")
	}
	total := tr.Len()
	var events, pages int
	var last uint64
	target := "/v1/trace"
	for {
		var page obs.TraceDump
		getJSON(t, h, target, &page)
		if len(page.Events) > maxTracePage {
			t.Fatalf("page holds %d events, over the cap %d", len(page.Events), maxTracePage)
		}
		for _, e := range page.Events {
			if e.Seq <= last {
				t.Fatalf("event seq %d after %d: pages overlap or are out of order", e.Seq, last)
			}
			last = e.Seq
		}
		events += len(page.Events)
		pages++
		if !page.More {
			break
		}
		target = "/v1/trace?after=" + strconv.FormatUint(page.NextAfter, 10)
	}
	if events != total || pages != 3 {
		t.Errorf("paged %d events in %d pages, ring holds %d (want 3 pages)", events, pages, total)
	}

	var dump struct {
		Trace obs.TraceDump `json:"trace"`
	}
	getJSON(t, h, "/v1/dump", &dump)
	if n := len(dump.Trace.Events); n != 256 || dump.Trace.Events[n-1].Seq != last {
		t.Errorf("dump trace holds %d events ending at seq %d, want the newest 256 ending at %d", n, dump.Trace.Events[n-1].Seq, last)
	}
	getJSON(t, h, "/v1/dump?limit=10", &dump)
	if len(dump.Trace.Events) != 10 {
		t.Errorf("dump?limit=10 trace holds %d events", len(dump.Trace.Events))
	}
}

// TestTenantsAndMetricsRoutes: the tenants rollup, and the per-tenant
// gauge series on the first /v1/metrics scrape (and the first dump)
// after a tenant's first container registers — no other export has run.
func TestTenantsAndMetricsRoutes(t *testing.T) {
	leak.Check(t)
	st := core.MustNew(core.Config{Capacity: 1000 * bytesize.MiB, ContextOverhead: 1})
	h := planeFor(t, daemon.Config{Core: st, Tenants: []core.Tenant{{Name: "gold", Weight: 4, Quota: 600 * bytesize.MiB}}}, 0, 0)

	if rec := do(h, "GET", "/v1/tenants", nil); rec.Code != http.StatusOK || strings.TrimSpace(rec.Body.String()) != "[]" {
		t.Fatalf("tenants before any registration = %d %s, want []", rec.Code, rec.Body)
	}
	resp, err := control(t, h).Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: "c1", Limit: int64(200 * bytesize.MiB), Tenant: "gold",
	})
	if err != nil || !resp.OK {
		t.Fatalf("register under gold: %v %+v", err, resp)
	}

	rec := do(h, "GET", "/v1/metrics", nil)
	if rec.Code != http.StatusOK || !strings.HasPrefix(rec.Header().Get("Content-Type"), "text/plain") {
		t.Fatalf("/v1/metrics = %d %q", rec.Code, rec.Header().Get("Content-Type"))
	}
	for _, want := range []string{
		obs.MetricTenantContainers + `{tenant="gold"} 1`,
		obs.MetricTenantQuota + `{tenant="gold"} ` + strconv.FormatInt(int64(600*bytesize.MiB), 10),
		obs.MetricEvents + `{algorithm="fifo",kind="register"} 1`,
	} {
		if !strings.Contains(rec.Body.String(), want) {
			t.Errorf("first /v1/metrics scrape misses %q", want)
		}
	}

	var tenants []core.TenantUsage
	getJSON(t, h, "/v1/tenants", &tenants)
	if len(tenants) != 1 || tenants[0].Name != "gold" || tenants[0].Weight != 4 || tenants[0].Containers != 1 || tenants[0].Grant != 200*bytesize.MiB {
		t.Fatalf("tenants rollup = %+v", tenants)
	}

	// A second tenant, first seen by the dump's metrics array.
	resp, err = control(t, h).Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: "c2", Limit: int64(100 * bytesize.MiB), Tenant: "adhoc",
	})
	if err != nil || !resp.OK {
		t.Fatalf("register under adhoc: %v %+v", err, resp)
	}
	var dump daemon.Dump
	getJSON(t, h, "/v1/dump", &dump)
	found := false
	for _, p := range dump.Metrics {
		found = found || p.Name == obs.MetricTenantContainers && p.Labels["tenant"] == "adhoc" && p.Value == 1
	}
	if !found {
		t.Error("first dump after adhoc registered carries no tenant gauge for it")
	}

	if rec := do(h, "GET", "/debug/vars", nil); rec.Code != http.StatusOK || !strings.Contains(rec.Body.String(), "cmdline") {
		t.Errorf("/debug/vars = %d", rec.Code)
	}
}

// TestNodeRoutes drives the membership view and its verbs on a 2-node
// cluster: drain and revive complete as operations and show in
// /v1/nodes; an unknown node index fails its operation.
func TestNodeRoutes(t *testing.T) {
	leak.Check(t)
	clus, err := cluster.New(cluster.Config{
		Nodes: 2, GPUsPerNode: 1, CapacityPerGPU: 500 * bytesize.MiB, Device: core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	h := planeFor(t, daemon.Config{Core: clus}, 0, 0)
	nodeVerb := func(target string) asyncop.Operation {
		t.Helper()
		rec := do(h, "POST", target, nil)
		if rec.Code != http.StatusAccepted {
			t.Fatalf("POST %s = %d: %s", target, rec.Code, rec.Body)
		}
		var op asyncop.Operation
		if err := json.Unmarshal(rec.Body.Bytes(), &op); err != nil {
			t.Fatal(err)
		}
		return pollOperation(t, h, op.ID)
	}
	states := func() []string {
		t.Helper()
		var nodes []core.NodeStatus
		getJSON(t, h, "/v1/nodes", &nodes)
		if len(nodes) != 2 || nodes[0].Capacity != 500*bytesize.MiB || nodes[1].Index != 1 {
			t.Fatalf("membership = %+v, want 2 nodes of 500 MiB", nodes)
		}
		return []string{nodes[0].State, nodes[1].State}
	}

	if got := states(); got[0] != "up" || got[1] != "up" {
		t.Fatalf("initial membership = %v, want both up", got)
	}
	if op := nodeVerb("/v1/nodes/0/drain"); op.Status != asyncop.StatusCompleted || op.Kind != "drain" || op.Detail != "node 0" {
		t.Fatalf("drain = %+v", op)
	}
	if got := states(); got[0] != "draining" || got[1] != "up" {
		t.Fatalf("after drain: %v", got)
	}
	if op := nodeVerb("/v1/nodes/0/revive"); op.Status != asyncop.StatusCompleted {
		t.Fatalf("revive = %+v", op)
	}
	if got := states(); got[0] != "up" {
		t.Fatalf("after revive: %v", got)
	}
	// Unknown node indexes are refused, not panicked on.
	if op := nodeVerb("/v1/nodes/9/drain"); op.Status != asyncop.StatusFailed || op.Error == "" {
		t.Fatalf("drain of unknown node = %+v, want failed", op)
	}
}
