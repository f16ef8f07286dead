package daemon

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
)

// logCapture collects Config.Logf output for assertions.
type logCapture struct {
	mu    sync.Mutex
	lines []string
}

func (l *logCapture) logf(format string, args ...any) {
	l.mu.Lock()
	l.lines = append(l.lines, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

func (l *logCapture) joined() string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return strings.Join(l.lines, "\n")
}

// TestRecoverySurvivesTornLogTail restarts a daemon over its own log
// (<base>/wal, no Config.WAL) whose last record a crash cut mid-frame.
// The daemon must come up cleanly with every earlier session back, the
// torn registration — never acknowledged as far as the log can tell —
// gone, and the cut reported.
func TestRecoverySurvivesTornLogTail(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	d1, err := Start(Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	for _, id := range []string{"first", "second", "torn"} {
		register(t, ctl, id, mib(200))
	}
	ctl.Close()
	d1.Close()

	segs, err := filepath.Glob(filepath.Join(base, "wal", "wal-*.seg"))
	if err != nil || len(segs) != 1 {
		t.Fatalf("segments under %s/wal = %v (%v), want one", base, segs, err)
	}
	info, err := os.Stat(segs[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(segs[0], info.Size()-5); err != nil {
		t.Fatal(err)
	}

	logs := &logCapture{}
	d2, err := Start(Config{
		BaseDir: base,
		Core:    core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1}),
		Logf:    logs.logf,
	})
	if err != nil {
		t.Fatalf("daemon failed to start over a torn log: %v", err)
	}
	defer d2.Close()
	for _, id := range []core.ContainerID{"first", "second"} {
		if _, err := d2.Core().Info(id); err != nil {
			t.Errorf("session %s ahead of the torn record not recovered: %v", id, err)
		}
	}
	if _, err := d2.Core().Info("torn"); err == nil {
		t.Error("the torn registration was recovered")
	}
	if got := d2.WALStats(); got.Replayed != 2 || got.TailDropped == 0 {
		t.Errorf("log stats after the cut = %+v, want 2 records replayed and a dropped tail", got)
	}
	if out := logs.joined(); !strings.Contains(out, "truncating torn tail record") {
		t.Errorf("the cut was not reported; logs:\n%s", out)
	}
}

// TestRecoveryDiscardsRefusedRegistration: a session whose registration
// the restarted core rejects (the limit exceeds a shrunken capacity) is
// logged, counted and evicted into the daemon's own log — the daemon
// starts anyway, and a later restart with the capacity back does not
// resurrect it.
func TestRecoveryDiscardsRefusedRegistration(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	d1, err := Start(Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	register(t, ctl, "big", mib(800))
	ctl.Close()
	d1.Close()

	logs := &logCapture{}
	o := obs.New(obs.Config{Algorithm: core.AlgFIFO})
	// The replacement daemon serves a smaller GPU: big's 800MiB limit no
	// longer fits and its session must be discarded, not trusted.
	d2, err := Start(Config{
		BaseDir: base,
		Core:    core.MustNew(core.Config{Capacity: mib(500), ContextOverhead: 1}),
		Obs:     o, Logf: logs.logf,
	})
	if err != nil {
		t.Fatalf("daemon failed to start: %v", err)
	}
	defer d2.Close()

	if _, err := d2.Core().Info("big"); err == nil {
		t.Error("over-limit session was recovered")
	}
	if got := o.SessionsDiscarded.Value(); got != 1 {
		t.Errorf("SessionsDiscarded = %d, want 1", got)
	}
	if out := logs.joined(); !strings.Contains(out, `discarded session "big": registration refused`) {
		t.Errorf("missing discard log; got:\n%s", out)
	}
	d2.Close()

	d3, err := Start(Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer d3.Close()
	if _, err := d3.Core().Info("big"); err == nil {
		t.Error("evicted session resurrected after capacity restored")
	}
}

// TestRecoverySweepsOrphanDirs: entries under containers/ that no
// recovered session owns — a closed container's directory a crash left
// between the close's log append and its removal, a stray directory, a
// stray file — are gone after a restart, and the recovered sessions keep
// their directory, their live socket and their module.
func TestRecoverySweepsOrphanDirs(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	d1, err := Start(Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})})
	if err != nil {
		t.Fatal(err)
	}
	ctl := dialControl(t, d1)
	for _, id := range []string{"keep", "a/b", "closed"} {
		register(t, ctl, id, mib(200))
	}
	closedDir := d1.containerDir("closed")
	if resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "closed"}); err != nil || !resp.OK {
		t.Fatalf("close: %+v %v", resp, err)
	}
	ctl.Close()
	d1.Close()

	root := filepath.Join(base, "containers")
	strays := []string{closedDir, filepath.Join(root, "stray"), filepath.Join(root, "stray.txt")}
	for _, dir := range strays[:2] {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, protocol.ModuleFileName), []byte("left over"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(strays[2], []byte("left over"), 0o644); err != nil {
		t.Fatal(err)
	}

	d2, err := Start(Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})})
	if err != nil {
		t.Fatal(err)
	}
	defer d2.Close()
	for _, p := range strays {
		if _, err := os.Lstat(p); !os.IsNotExist(err) {
			t.Errorf("%s survived recovery (%v)", p, err)
		}
	}
	for _, id := range []core.ContainerID{"keep", "a/b"} {
		dir := d2.containerDir(id)
		if _, err := os.Stat(filepath.Join(dir, protocol.ModuleFileName)); err != nil {
			t.Errorf("%s lost its module: %v", id, err)
		}
		cli, err := ipc.Dial(filepath.Join(dir, protocol.SocketFileName))
		if err != nil {
			t.Fatalf("%s: %v", id, err)
		}
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, PID: 1})
		cancel()
		cli.Close()
		if err != nil || !resp.OK || resp.Total != int64(mib(200)) {
			t.Errorf("%s's recovered socket: %+v %v", id, resp, err)
		}
	}
	if entries, _ := os.ReadDir(root); len(entries) != 2 {
		t.Errorf("containers/ holds %d entries, want the 2 recovered sessions'", len(entries))
	}
}
