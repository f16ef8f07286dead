package daemon

import (
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// fillDisk points every open descriptor under walDir — the log's active
// segment, exactly one — at /dev/full, where every write is ENOSPC: a
// real disk fault under a live log.
func fillDisk(t *testing.T, walDir string) {
	t.Helper()
	full, err := os.OpenFile("/dev/full", os.O_WRONLY, 0)
	if err != nil {
		t.Skipf("no /dev/full to fill the disk with: %v", err)
	}
	defer full.Close()
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
}

// TestWALFailStopRefusesRegister: a log that a disk fault stopped
// (wal.ErrFailed) refuses every append from then on, and the daemon
// answers each registration as it answers any refused append —
// unavailable, nothing kept.
func TestWALFailStopRefusesRegister(t *testing.T) {
	leak.Check(t)
	walDir := filepath.Join(t.TempDir(), "wal")
	l := openTestWAL(t, walDir)
	defer l.Close()
	d := startWALDaemon(t, filepath.Join(t.TempDir(), "cv"), l, mib(1000))
	defer d.Close()
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "before", mib(100)); !resp.OK {
		t.Fatalf("register on a healthy log: %s", resp.Error)
	}
	fillDisk(t, walDir)

	for _, id := range []string{"torn", "after"} { // the write that fails, then the stopped log
		resp := register(t, ctl, id, mib(100))
		if resp.OK || resp.Code != errs.CodeUnavailable {
			t.Fatalf("register %s on a full disk: ok=%v code=%q, want refused as %q", id, resp.OK, resp.Code, errs.CodeUnavailable)
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

// TestWALFailStopRefusesClose: close's record is the acknowledgement's
// precondition like register's. On a log the disk has stopped, the
// operator's close and the lease reaper's are both refused with the core
// still holding the grant, so a restart on the same log recovers exactly
// the session the first core still had — not one it had forgotten, whose
// grant nobody would ever close again.
func TestWALFailStopRefusesClose(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")
	l := openTestWAL(t, walDir)
	d := startWALDaemon(t, base, l, mib(1000))
	ctl := dialControl(t, d)
	if resp := register(t, ctl, "held", mib(400)); !resp.OK {
		t.Fatalf("register on a healthy log: %s", resp.Error)
	}
	fillDisk(t, walDir)

	resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: "held"})
	if resp.OK || resp.Code != errs.CodeUnavailable || !strings.Contains(resp.Error, wal.ErrFailed.Error()) {
		t.Fatalf("close on a full disk: ok=%v code=%q error=%q, want refused as %q naming %q",
			resp.OK, resp.Code, resp.Error, errs.CodeUnavailable, wal.ErrFailed)
	}
	if _, err := d.closeContainerKind("held", wal.KindLeaseExpire); err == nil {
		t.Error("the lease reaper's close went through on a stopped log")
	}
	if info, err := d.Core().Info("held"); err != nil || info.Grant != mib(400) {
		t.Fatalf("after the refused closes the core has %+v (%v), want held with its 400 MiB grant", info, err)
	}
	if resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: "nobody"}); resp.Code != errs.CodeUnknownContainer {
		t.Errorf("close of an unknown container on a stopped log = %+v, want %q before any append", resp, errs.CodeUnknownContainer)
	}
	ctl.Close()
	d.Close()
	l.Close()

	l2 := openTestWAL(t, walDir)
	defer l2.Close()
	d2 := startWALDaemon(t, base, l2, mib(1000))
	defer d2.Close()
	if info, err := d2.Core().Info("held"); err != nil || info.Grant != mib(400) {
		t.Errorf("restart recovered %+v (%v), want the session the first core still held", info, err)
	}
}
