package admin

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"convgpu/internal/asyncop"
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// startPlane boots a daemon (optionally WAL-backed) and wraps it in an
// admin handler with the given throttle shape.
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
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st, WAL: l})
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

// registerSessions registers n sessions over the daemon's control
// socket — the admin plane is read-mostly, admissions still arrive over
// IPC.
func registerSessions(t *testing.T, h *Handler, n int) {
	t.Helper()
	cli, err := ipc.Dial(h.d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
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

func TestWALEndpointGatedOnWAL(t *testing.T) {
	h := startPlane(t, false, 0, 0)
	rec := do(h, "GET", "/v1/wal", nil)
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/v1/wal without WAL = %d, want 404", rec.Code)
	}
	var e struct {
		Error     string `json:"error"`
		RequestID string `json:"request_id"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatalf("404 body %q: %v", rec.Body, err)
	}
	if e.Error == "" || e.RequestID == "" {
		t.Errorf("404 envelope incomplete: %+v", e)
	}

	h = startPlane(t, true, 0, 0)
	registerSessions(t, h, 2)
	rec = do(h, "GET", "/v1/wal", nil)
	if rec.Code != http.StatusOK {
		t.Fatalf("/v1/wal with WAL = %d: %s", rec.Code, rec.Body)
	}
	var stats wal.Stats
	if err := json.Unmarshal(rec.Body.Bytes(), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Sessions != 2 || stats.LastSeq < 2 {
		t.Errorf("wal stats = %+v, want 2 sessions", stats)
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
	var e errorBody
	if err := json.Unmarshal(rec.Body.Bytes(), &e); err != nil {
		t.Fatal(err)
	}
	if e.RequestID != "req-x" || e.Error == "" {
		t.Errorf("envelope = %+v", e)
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
	var e errorBody
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
