package daemon

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"convgpu/internal/core"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// TestWALFailStopRefusesRegister: a log that a disk fault stopped
// (wal.ErrFailed) refuses every append from then on, and the daemon
// answers each registration as it answers any refused append —
// unavailable, nothing kept. The fault is a real one: the descriptor of
// the log's active segment is pointed at /dev/full, where every write is
// ENOSPC.
func TestWALFailStopRefusesRegister(t *testing.T) {
	leak.Check(t)
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full to fill the disk with: %v", err)
	}
	defer full.Close()
	walDir := filepath.Join(t.TempDir(), "wal")
	l := openTestWAL(t, walDir)
	defer l.Close()
	d := startWALDaemon(t, filepath.Join(t.TempDir(), "cv"), l, mib(1000))
	defer d.Close()
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "before", mib(100)); !resp.OK {
		t.Fatalf("register on a healthy log: %s", resp.Error)
	}

	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("no /proc/self/fd to find the segment's descriptor in: %v", err)
	}
	swapped := 0
	for _, e := range fds {
		if target, _ := os.Readlink(filepath.Join("/proc/self/fd", e.Name())); filepath.Dir(target) == walDir {
			fd, _ := strconv.Atoi(e.Name())
			if err := syscall.Dup3(int(full.Fd()), fd, 0); err != nil {
				t.Fatal(err)
			}
			swapped++
		}
	}
	if swapped != 1 {
		t.Fatalf("found %d open descriptors under %s, want the active segment's one", swapped, walDir)
	}

	for _, id := range []string{"torn", "after"} { // the write that fails, then the stopped log
		resp := register(t, ctl, id, mib(100))
		if resp.OK || resp.Code != protocol.CodeUnavailable {
			t.Fatalf("register %s on a full disk: ok=%v code=%q, want refused as %q", id, resp.OK, resp.Code, protocol.CodeUnavailable)
		}
		if !strings.Contains(resp.Error, wal.ErrFailed.Error()) {
			t.Errorf("register %s refused with %q, want it to name %q", id, resp.Error, wal.ErrFailed)
		}
		if _, err := d.Core().Info(core.ContainerID(id)); err == nil {
			t.Errorf("core kept %s after its append failed", id)
		}
	}
	if got := l.Stats(); got.LastSeq != 1 || got.Sessions != 1 {
		t.Errorf("the failed log moved: %+v, want the one record from before the fault", got)
	}
}
