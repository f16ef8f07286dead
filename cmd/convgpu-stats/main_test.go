package main

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"convgpu"
	"convgpu/internal/admin"
	"convgpu/internal/asyncop"
	"convgpu/internal/obs"
)

// serveAdmin starts a stack and serves its admin handler the way
// convgpu-scheduler does: on a UNIX socket named admin.SocketName. It
// returns the stack and the socket path.
func serveAdmin(t *testing.T, opts ...convgpu.Option) (*convgpu.Stack, string) {
	t.Helper()
	dir := t.TempDir()
	st, err := convgpu.New(append([]convgpu.Option{convgpu.WithBaseDir(dir)}, opts...)...)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	h, err := st.AdminHandler()
	if err != nil {
		t.Fatal(err)
	}
	sock := filepath.Join(dir, admin.SocketName)
	ln, err := net.Listen("unix", sock)
	if err != nil {
		t.Fatal(err)
	}
	srv := &http.Server{Handler: h}
	go srv.Serve(ln)
	t.Cleanup(func() { srv.Close() })
	return st, sock
}

// stats runs the command against sock and returns what it printed and
// its exit status.
func stats(sock string, args ...string) (stdout, stderr string, status int) {
	var out, errb bytes.Buffer
	status = run(append([]string{"-socket", sock}, args...), &out, &errb)
	return out.String(), errb.String(), status
}

// mustStats is stats for a query that has to succeed.
func mustStats(t *testing.T, sock string, args ...string) string {
	t.Helper()
	out, errb, status := stats(sock, args...)
	if status != 0 {
		t.Fatalf("convgpu-stats %v: exit %d: %s", args, status, errb)
	}
	return out
}

// hold runs a container under tenant gold that keeps 64 MiB allocated
// until the test ends.
func hold(t *testing.T, st *convgpu.Stack) {
	t.Helper()
	allocated, release := make(chan struct{}), make(chan struct{})
	c, err := st.Run(context.Background(), convgpu.RunOptions{
		Name:         "held",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Tenant:       "gold",
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(64 * convgpu.MiB)
			close(allocated)
			if err != nil {
				return err
			}
			<-release
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		close(release)
		if err := c.Wait(); err != nil {
			t.Error(err)
		}
	})
	<-allocated
}

// keys decodes a JSON object and returns its top-level keys in order of
// appearance.
func keys(t *testing.T, doc string) []string {
	t.Helper()
	dec := json.NewDecoder(strings.NewReader(doc))
	if tok, err := dec.Token(); err != nil || tok != json.Delim('{') {
		t.Fatalf("not a JSON object (%v): %.200s", err, doc)
	}
	var ks []string
	for dec.More() {
		tok, err := dec.Token()
		if err != nil {
			t.Fatal(err)
		}
		ks = append(ks, tok.(string))
		var skip json.RawMessage
		if err := dec.Decode(&skip); err != nil {
			t.Fatal(err)
		}
	}
	return ks
}

// TestSubcommands runs every subcommand against a live 2-node stack's
// admin socket and pins each one's output format.
func TestSubcommands(t *testing.T) {
	st, sock := serveAdmin(t,
		convgpu.WithNodes(2),
		convgpu.WithCapacity(2*convgpu.GiB),
		convgpu.WithTenant(convgpu.Tenant{Name: "gold", Weight: 3, Quota: convgpu.GiB}),
	)
	hold(t, st)
	lines := func(s string) []string { return strings.Split(strings.TrimRight(s, "\n"), "\n") }

	for query, want := range map[string]string{
		"stats":    "algorithm at_unix_nano metrics",
		"trace":    "capacity total_events dropped_events events",
		"dump":     "algorithm capacity pool_free devices containers metrics trace",
		"sessions": "total sessions",
	} {
		out := mustStats(t, sock, query)
		if got := strings.Join(keys(t, out), " "); got != want {
			t.Errorf("%s prints keys %q, want %q", query, got, want)
		}
		if !strings.HasPrefix(out, "{\n  \"") || !strings.HasSuffix(out, "\n}\n") {
			t.Errorf("%s is not printed indented by two spaces: %.80q", query, out)
		}
	}
	if out := mustStats(t, sock, "sessions"); !strings.Contains(out, `"container": "held"`) {
		t.Errorf("sessions misses the held container:\n%s", out)
	}
	if out := mustStats(t, sock, "sessions", "held"); !strings.Contains(out, `"sessions": []`) {
		t.Errorf("sessions after the last ID is not an empty page:\n%s", out)
	}
	var held obs.TraceDump
	if err := json.Unmarshal([]byte(mustStats(t, sock, "-limit", "1", "trace", "held")), &held); err != nil {
		t.Fatal(err)
	}
	if len(held.Events) < 2 || held.Events[0].Kind != "register" || held.Events[0].Container != "held" {
		t.Errorf("trace held, paged one event at a time = %+v", held)
	}

	dev := lines(mustStats(t, sock, "devices"))
	if len(dev) != 7 || !strings.HasPrefix(dev[0], "algorithm: fifo, devices: 2") ||
		dev[1] != "DEVICE   CAPACITY     FREE         CONTAINERS" ||
		dev[5] != "CONTAINER            DEVICE   LIMIT      GRANT      USED       STATE" ||
		!strings.HasPrefix(dev[6], "held                 ") || !strings.HasSuffix(dev[6], " running") {
		t.Errorf("devices:\n%s", strings.Join(dev, "\n"))
	}
	ten := lines(mustStats(t, sock, "tenants"))
	if len(ten) != 2 ||
		ten[0] != "TENANT           WEIGHT  PRIO  QUOTA      GUARANTEE  CONTAINERS  SUSPENDED  GRANT      USED       PENDING" ||
		strings.Join(strings.Fields(ten[1])[:6], " ") != "gold 3 0 1GiB - 1" {
		t.Errorf("tenants:\n%s", strings.Join(ten, "\n"))
	}
	nodesUp := func(want0, want1 string) {
		t.Helper()
		n := lines(mustStats(t, sock, "nodes"))
		if len(n) != 3 || n[0] != "NODE   NAME         STATE      CAPACITY     FREE         CONTAINERS   FAILOVERS" ||
			strings.Fields(n[1])[2] != want0 || strings.Fields(n[2])[2] != want1 || strings.Fields(n[1])[3] != "2GiB" {
			t.Errorf("nodes, want states %s/%s:\n%s", want0, want1, strings.Join(n, "\n"))
		}
	}
	nodesUp("up", "up")

	if out := mustStats(t, sock, "ops"); out != "[]\n" {
		t.Errorf("ops before any verb = %q, want an empty list", out)
	}
	if out := mustStats(t, sock, "drain", "1"); out != "node 1: drain acknowledged\n" {
		t.Errorf("drain prints %q", out)
	}
	nodesUp("up", "draining")
	if out := mustStats(t, sock, "revive", "1"); out != "node 1: revive acknowledged\n" {
		t.Errorf("revive prints %q", out)
	}
	nodesUp("up", "up")
	var ops []asyncop.Operation
	if err := json.Unmarshal([]byte(mustStats(t, sock, "ops")), &ops); err != nil || len(ops) != 2 {
		t.Fatalf("ops after drain and revive = %+v (%v)", ops, err)
	}
	if got := strings.Join(keys(t, mustStats(t, sock, "ops", ops[0].ID)), " "); got != "id kind status request_id detail submitted_unix_nano done_unix_nano" {
		t.Errorf("ops ID prints keys %q", got)
	}

	if out := mustStats(t, "", "load", filepath.Join("..", "..", "BENCH_load.json")); !strings.Contains(out, "p99") {
		t.Errorf("load renders no latency tails:\n%.400s", out)
	}

	// Failures: the envelope's error and request ID on stderr, exit 1;
	// misuse exits 2 before anything is sent.
	if _, errb, status := stats(sock, "ops", "op-404"); status != 1 || !strings.Contains(errb, `convgpu-stats: ops: admin: unknown operation "op-404" (req-`) {
		t.Errorf("ops op-404: exit %d, stderr %q", status, errb)
	}
	if _, errb, status := stats(sock, "drain", "9"); status != 1 || !strings.Contains(errb, "convgpu-stats: drain: ") {
		t.Errorf("drain 9: exit %d, stderr %q", status, errb)
	}
	if _, errb, status := stats(filepath.Join(t.TempDir(), "absent.sock"), "stats"); status != 1 || !strings.Contains(errb, "absent.sock") {
		t.Errorf("stats on an absent socket: exit %d, stderr %q", status, errb)
	}
	for _, misuse := range [][]string{{"drain", "banana"}, {"bogus"}, {}} {
		if _, _, status := stats(sock, misuse...); status != 2 {
			t.Errorf("convgpu-stats %v: exit %d, want 2", misuse, status)
		}
	}
	if _, _, status := stats("", "stats"); status != 2 {
		t.Errorf("stats without -socket: exit %d, want 2", status)
	}

	// A failed operation prints its class before its error, as an error
	// envelope does: drain a node a failover took down.
	h, err := st.AdminHandler()
	if err != nil {
		t.Fatal(err)
	}
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest(http.MethodPost, "/v1/nodes/1/failover", nil))
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		_, errb, status := stats(sock, "drain", "1")
		if status == 1 && strings.Contains(errb, "convgpu-stats: drain: node_down: ") {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("drain of a down node: exit %d, stderr %q, want the node_down class", status, errb)
		}
	}
}

// TestTraceArrivesWhole: a ring holding several /v1/trace pages is
// printed whole, in order, by following the cursor.
func TestTraceArrivesWhole(t *testing.T) {
	st, sock := serveAdmin(t)
	tr := st.Observability().Tracer()
	for i := 0; i < 2500; i++ {
		tr.RecordAdmin(time.Now(), "test_fill", "req-fill", "filler")
	}
	var dump obs.TraceDump
	if err := json.Unmarshal([]byte(mustStats(t, sock, "trace")), &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) != 2500 || dump.Total != 2500 || dump.More || dump.NextAfter != 0 {
		t.Fatalf("trace printed %d events (total %d, more %v), want all 2500", len(dump.Events), dump.Total, dump.More)
	}
	for i, e := range dump.Events {
		if e.Seq != uint64(i+1) {
			t.Fatalf("event %d has seq %d: pages merged out of order", i, e.Seq)
		}
	}
}

// TestDrainLeavesAnAuditTrail: a drain sent by this command is an
// operation like any other POST — listed under /v1/operations and
// traced as admin_drain under its request ID — and on a single-node
// daemon it fails with the membership error and a non-zero exit.
func TestDrainLeavesAnAuditTrail(t *testing.T) {
	_, sock := serveAdmin(t, convgpu.WithNodes(2), convgpu.WithCapacity(2*convgpu.GiB))
	mustStats(t, sock, "drain", "0")
	var ops []asyncop.Operation
	if err := json.Unmarshal([]byte(mustStats(t, sock, "ops")), &ops); err != nil {
		t.Fatal(err)
	}
	if len(ops) != 1 || ops[0].Kind != "drain" || ops[0].Status != asyncop.StatusCompleted || ops[0].Detail != "node 0" || ops[0].RequestID == "" {
		t.Fatalf("operations after drain 0 = %+v", ops)
	}
	var dump obs.TraceDump
	if err := json.Unmarshal([]byte(mustStats(t, sock, "trace")), &dump); err != nil {
		t.Fatal(err)
	}
	traced := false
	for _, e := range dump.Events {
		traced = traced || e.Kind == "admin_drain" && e.RequestID == ops[0].RequestID && e.Detail == "node 0"
	}
	if !traced {
		t.Errorf("no admin_drain event under request %s in the trace: %+v", ops[0].RequestID, dump.Events)
	}

	_, single := serveAdmin(t)
	for _, query := range [][]string{{"drain", "0"}, {"revive", "0"}, {"nodes"}} {
		out, errb, status := stats(single, query...)
		if status != 1 || out != "" || !strings.Contains(errb, "no node membership") || !strings.Contains(errb, "(req-") {
			t.Errorf("%v on a single-node daemon: exit %d, stdout %q, stderr %q", query, status, out, errb)
		}
	}
	if err := json.Unmarshal([]byte(mustStats(t, single, "ops")), &ops); err != nil || len(ops) != 2 || ops[0].Status != asyncop.StatusFailed {
		t.Errorf("the refused verbs are not on record as failed operations: %+v (%v)", ops, err)
	}
}
