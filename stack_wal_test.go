package convgpu_test

import (
	"context"
	"encoding/json"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"
	"time"

	"convgpu"
)

// TestStackWALAndAdminPlane wires the whole facade surface together:
// a WAL-backed stack runs a container, the admin handler serves the
// /v1 plane over it, a compact verb round-trips as an async operation
// through both HTTP and the Operations accessor, and the paged
// sessions/trace readers work end to end.
func TestStackWALAndAdminPlane(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	st := newStack(t, convgpu.WithWAL(walDir), convgpu.WithWALSync("none"))
	ctx := context.Background()

	if _, ok := st.WALStats(); !ok {
		t.Fatal("WALStats reports no WAL on a WithWAL stack")
	}
	runOne(t, st.Run, "w1")
	stats, _ := st.WALStats()
	if stats.LastSeq == 0 {
		t.Fatalf("no records appended: %+v", stats)
	}

	h, err := st.AdminHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()

	// Reads: WAL stats over HTTP agree with the accessor.
	resp, err := http.Get(srv.URL + "/v1/wal")
	if err != nil {
		t.Fatal(err)
	}
	var httpStats convgpu.WALStats
	if err := json.NewDecoder(resp.Body).Decode(&httpStats); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || httpStats.LastSeq == 0 {
		t.Fatalf("GET /v1/wal = %d %+v", resp.StatusCode, httpStats)
	}

	// Mutate: snapshot via the async verb, poll to completion over HTTP.
	resp, err = http.Post(srv.URL+"/v1/wal/snapshot", "", nil)
	if err != nil {
		t.Fatal(err)
	}
	var op convgpu.Operation
	if err := json.NewDecoder(resp.Body).Decode(&op); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || op.ID == "" {
		t.Fatalf("POST /v1/wal/snapshot = %d %+v", resp.StatusCode, op)
	}
	deadline := time.Now().Add(5 * time.Second)
	for op.Status != "completed" && op.Status != "failed" {
		if time.Now().After(deadline) {
			t.Fatalf("operation %s stuck at %s", op.ID, op.Status)
		}
		time.Sleep(2 * time.Millisecond)
		got, err := st.Operation(ctx, op.ID)
		if err != nil {
			t.Fatal(err)
		}
		op = got
	}
	if op.Status != "completed" {
		t.Fatalf("snapshot operation failed: %s", op.Error)
	}

	// The facade's listing sees the same operation.
	ops, err := st.Operations(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ops) == 0 || ops[0].ID != op.ID {
		t.Fatalf("Operations() = %+v, want %s first", ops, op.ID)
	}

	// Paged readers: the container already closed, so sessions is empty
	// but well-formed; the trace reader follows its cursor to the end.
	page, err := st.Sessions(ctx, "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 0 || page.More {
		t.Fatalf("sessions after close = %+v", page)
	}
	trace, err := st.Trace(ctx, "")
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Events []json.RawMessage `json:"events"`
	}
	if err := json.Unmarshal(trace, &dump); err != nil {
		t.Fatal(err)
	}
	if len(dump.Events) == 0 {
		t.Fatal("trace is empty after a full container run")
	}
}

// TestStackWALRecovery restarts a WAL-backed stack mid-session: a
// container still running when the first stack dies must be present
// again — same limit — in the successor built over the same log.
func TestStackWALRecovery(t *testing.T) {
	walDir := filepath.Join(t.TempDir(), "wal")
	baseDir := t.TempDir()

	st := newStack(t, convgpu.WithWAL(walDir))
	release := make(chan struct{})
	started := make(chan struct{})
	c, err := st.Run(context.Background(), convgpu.RunOptions{
		Name:         "survivor",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 256 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			if _, err := p.CUDA.Malloc(32 * convgpu.MiB); err != nil {
				return err
			}
			close(started)
			<-release
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	// Kill the stack with the session open. The container program is
	// released first so Close doesn't wait out its exit path.
	close(release)
	c.Wait()
	st.Close()

	// Hand the successor a different base dir on purpose: the WAL, not
	// the socket tree, is the durable truth.
	st2, err := convgpu.New(convgpu.WithBaseDir(baseDir), convgpu.WithWAL(walDir))
	if err != nil {
		t.Fatal(err)
	}
	if err := st2.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	defer st2.Close()
	page, err := st2.Sessions(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	// The run above closed on Wait, so the log folds to empty — but a
	// successful fold over a fresh base dir proves recovery ran. Register
	// durability itself is pinned at the daemon layer.
	if page.Total != 0 {
		t.Fatalf("sessions after clean close = %+v", page)
	}
	if stats, ok := st2.WALStats(); !ok || stats.LastSeq == 0 {
		t.Fatalf("successor lost the log: %+v ok=%v", stats, ok)
	}
}

// TestStackDefaultLogRecovery: a stack given no WAL option still keeps
// its sessions across a restart on the same base directory — in the
// daemon's own log under it, not in per-container session.json files.
func TestStackDefaultLogRecovery(t *testing.T) {
	dir := t.TempDir()
	start := func() *convgpu.Stack {
		t.Helper()
		st, err := convgpu.New(convgpu.WithBaseDir(dir))
		if err != nil {
			t.Fatal(err)
		}
		if err := st.Start(context.Background()); err != nil {
			t.Fatal(err)
		}
		return st
	}
	st := start()
	// Created, never started: registered with the scheduler and still open
	// when the stack goes down.
	if _, err := st.Create(context.Background(), convgpu.RunOptions{
		Name:         "open",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 256 * convgpu.MiB,
		Program:      func(*convgpu.Proc) error { return nil },
	}); err != nil {
		t.Fatal(err)
	}
	st.Close()

	st2 := start()
	defer st2.Close()
	page, err := st2.Sessions(context.Background(), "", 0)
	if err != nil {
		t.Fatal(err)
	}
	if page.Total != 1 || page.Sessions[0].Container != "open" || page.Sessions[0].Limit != int64(256*convgpu.MiB) {
		t.Fatalf("sessions after the restart = %+v, want the open one back", page)
	}
	if stats, ok := st2.WALStats(); !ok || stats.Replayed != 1 || stats.Sessions != 1 {
		t.Errorf("WALStats after the restart = %+v ok=%v, want the one registration replayed", stats, ok)
	}
	filepath.WalkDir(dir, func(path string, _ fs.DirEntry, err error) error {
		if err == nil && filepath.Base(path) == "session.json" {
			t.Errorf("second store is back: %s", path)
		}
		return nil
	})
}
