package daemon

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
	"convgpu/internal/gpu"
	"convgpu/internal/leak"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
)

// openTestWAL opens (or reopens) a log for daemon tests. SyncNone keeps
// the suites fast; durability itself is covered by the wal package.
func openTestWAL(t *testing.T, dir string) *wal.Log {
	t.Helper()
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// startOnLog starts a daemon over base on its own log or, when walDir is
// set, on one the test opens there (and stop closes after the daemon).
func startOnLog(t *testing.T, base, walDir string, tenants []core.Tenant) (d *Daemon, stop func()) {
	t.Helper()
	cfg := Config{BaseDir: base, Core: core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1}), Tenants: tenants}
	stop = func() { d.Close() }
	if walDir != "" {
		l := openTestWAL(t, walDir)
		cfg.WAL = l
		stop = func() { d.Close(); l.Close() }
	}
	d, err := Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return d, stop
}

// startWALDaemon starts a daemon over base with the given open log.
func startWALDaemon(t *testing.T, base string, l *wal.Log, capacity bytesize.Size) *Daemon {
	t.Helper()
	st := core.MustNew(core.Config{Capacity: capacity, ContextOverhead: 1})
	d, err := Start(Config{BaseDir: base, Core: st, WAL: l})
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestWALRecoveryRoundTrip is the tentpole flow: register against a
// daemon on a log the caller opened, restart it, and find exactly the
// open sessions back — closed ones stay closed.
func TestWALRecoveryRoundTrip(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")

	l1 := openTestWAL(t, walDir)
	d1 := startWALDaemon(t, base, l1, mib(1000))
	ctl := dialControl(t, d1)
	for _, id := range []string{"c1", "c2", "c3"} {
		if resp := register(t, ctl, id, mib(200)); !resp.OK {
			t.Fatalf("register %s: %s", id, resp.Error)
		}
	}
	resp, err := ctl.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: "c2"})
	if err != nil || !resp.OK {
		t.Fatalf("close c2: %v %+v", err, resp)
	}
	d1.Close()
	l1.Close()

	l2 := openTestWAL(t, walDir)
	defer l2.Close()
	d2 := startWALDaemon(t, base, l2, mib(1000))
	defer d2.Close()
	for _, id := range []core.ContainerID{"c1", "c3"} {
		if _, err := d2.Core().Info(id); err != nil {
			t.Errorf("session %s not recovered: %v", id, err)
		}
	}
	if _, err := d2.Core().Info("c2"); err == nil {
		t.Error("closed session c2 was recovered")
	}

	// The recovered sockets serve: a wrapper can re-attach.
	page := d2.Sessions("", 0)
	if page.Total != 2 || len(page.Sessions) != 2 {
		t.Fatalf("sessions page = %+v, want 2 entries", page)
	}
	if page.Sessions[0].Container != "c1" || page.Sessions[1].Container != "c3" {
		t.Errorf("sessions page order = %+v", page.Sessions)
	}
}

// TestWALRecoveryDiscardDurable: a session the restarted core refuses
// is evicted into the log, so an even later restart (with capacity
// restored) does not resurrect it — the refusal itself is durable.
func TestWALRecoveryDiscardDurable(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")

	l1 := openTestWAL(t, walDir)
	d1 := startWALDaemon(t, base, l1, mib(1000))
	ctl := dialControl(t, d1)
	register(t, ctl, "big", mib(800))
	d1.Close()
	l1.Close()

	// Restart on a shrunken GPU: big no longer fits.
	logs := &logCapture{}
	o := obs.New(obs.Config{Algorithm: core.AlgFIFO})
	l2 := openTestWAL(t, walDir)
	d2, err := Start(Config{
		BaseDir: base,
		Core:    core.MustNew(core.Config{Capacity: mib(500), ContextOverhead: 1}),
		Obs:     o, Logf: logs.logf, WAL: l2,
	})
	if err != nil {
		t.Fatal(err)
	}
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
	l2.Close()

	// Capacity restored: the evict record must keep big gone.
	l3 := openTestWAL(t, walDir)
	defer l3.Close()
	d3 := startWALDaemon(t, base, l3, mib(1000))
	defer d3.Close()
	if _, err := d3.Core().Info("big"); err == nil {
		t.Error("evicted session resurrected after capacity restored")
	}
}

// TestWALLeaseExpireDurable: a lease-reaped session must not come back
// on restart — the reaper's close is appended like any other.
func TestWALLeaseExpireDurable(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")

	l1 := openTestWAL(t, walDir)
	d1 := startWALDaemon(t, base, l1, mib(1000))
	ctl := dialControl(t, d1)
	register(t, ctl, "quiet", mib(200))
	// Reap through the same path reapLoop takes.
	if _, err := d1.closeContainerKind("quiet", wal.KindLeaseExpire); err != nil {
		t.Fatal(err)
	}
	d1.Close()
	l1.Close()

	l2 := openTestWAL(t, walDir)
	defer l2.Close()
	d2 := startWALDaemon(t, base, l2, mib(1000))
	defer d2.Close()
	if _, err := d2.Core().Info("quiet"); err == nil {
		t.Error("lease-expired session recovered")
	}
}

// TestSessionsVerbPaging drives the sessions document through its
// cursor at the producer (/v1/sessions serves it): pages of 2 over 5
// sessions, in order, no overlap.
func TestSessionsVerbPaging(t *testing.T) {
	d := startDaemon(t, mib(1000))
	ctl := dialControl(t, d)
	for _, id := range []string{"a1", "a2", "a3", "a4", "a5"} {
		register(t, ctl, id, mib(100))
	}
	var got []string
	after := ""
	for {
		page := d.Sessions(after, 2)
		if page.Total != 5 {
			t.Fatalf("page total = %d, want 5", page.Total)
		}
		for _, s := range page.Sessions {
			got = append(got, s.Container)
			// Live-core pages carry usage detail.
			if s.Limit != int64(mib(100)) {
				t.Errorf("session %s limit = %d", s.Container, s.Limit)
			}
		}
		if !page.More {
			break
		}
		after = page.NextAfter
	}
	if want := []string{"a1", "a2", "a3", "a4", "a5"}; strings.Join(got, ",") != strings.Join(want, ",") {
		t.Errorf("paged sessions = %v, want %v", got, want)
	}
}

// TestOpsVerb covers the operations document at the producer: empty on
// a fresh daemon, nothing under an unknown ID.
func TestOpsVerb(t *testing.T) {
	d := startDaemon(t, mib(100))
	if ops := d.Ops().List(); len(ops) != 0 {
		t.Errorf("fresh daemon lists %d operations", len(ops))
	}
	if op, ok := d.Ops().Get("op-404"); ok {
		t.Errorf("unknown operation id found: %+v", op)
	}
}

// TestTraceVerbPages: with far more events retained than one dump's
// trace tail holds, paging with the cursor retrieves every one of them.
func TestTraceVerbPages(t *testing.T) {
	d := startDaemon(t, mib(4000))
	ctl := dialControl(t, d)
	register(t, ctl, "c1", mib(1))
	// Stuff the ring well past the dump's cap without paying a socket
	// per event.
	tr := d.Obs().Tracer()
	for i := 0; i < 600; i++ {
		tr.RecordAdmin(time.Now(), "test_fill", fmt.Sprintf("req-%d", i), "filler")
	}
	total := tr.Len()
	if total <= maxTraceEvents {
		t.Fatalf("test setup: only %d events retained", total)
	}
	var events int
	after := uint64(0)
	pages := 0
	for {
		data, err := tr.DumpPage("", after, maxTraceEvents)
		if err != nil {
			t.Fatal(err)
		}
		var dump obs.TraceDump
		if err := json.Unmarshal(data, &dump); err != nil {
			t.Fatal(err)
		}
		if len(dump.Events) > maxTraceEvents {
			t.Fatalf("page holds %d events, over the limit %d", len(dump.Events), maxTraceEvents)
		}
		events += len(dump.Events)
		pages++
		if !dump.More {
			break
		}
		after = dump.NextAfter
	}
	if events != total {
		t.Errorf("paged %d events, ring holds %d", events, total)
	}
	if pages < 3 {
		t.Errorf("expected several pages, got %d", pages)
	}
}

// TestWALAdminAccessors drives the daemon methods the HTTP admin plane
// fronts — WAL stats/snapshot/compact, the ops manager and the JSON
// dump — directly.
func TestWALAdminAccessors(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	l := openTestWAL(t, filepath.Join(t.TempDir(), "wal"))
	defer l.Close()
	d := startWALDaemon(t, base, l, mib(1000))
	defer d.Close()
	ctl := dialControl(t, d)
	register(t, ctl, "acc", mib(200))

	if d.Ops() == nil {
		t.Fatal("Ops() is nil on a started daemon")
	}
	if stats := d.WALStats(); stats.LastSeq == 0 || stats.Sessions != 1 {
		t.Fatalf("WALStats = %+v", stats)
	}
	seq, err := d.SnapshotWAL()
	if err != nil || seq == 0 {
		t.Fatalf("SnapshotWAL = %d, %v", seq, err)
	}
	after, err := d.CompactWAL()
	if err != nil || after.Sessions != 1 {
		t.Fatalf("CompactWAL = %+v, %v", after, err)
	}
	data, err := d.DumpJSON(10)
	if err != nil || !json.Valid(data) {
		t.Fatalf("DumpJSON: %v (%.40s)", err, data)
	}

	// A daemon given no log answers the same verbs from its own.
	d2 := startDaemon(t, mib(100))
	register(t, dialControl(t, d2), "own", mib(50))
	if got := d2.WALStats(); got.LastSeq != 1 || got.Sessions != 1 {
		t.Errorf("WALStats on the daemon's own log = %+v, want the one registration", got)
	}
	if seq, err := d2.SnapshotWAL(); err != nil || seq != 1 {
		t.Errorf("SnapshotWAL on the daemon's own log = %d, %v", seq, err)
	}
	if after, err := d2.CompactWAL(); err != nil || after.Sessions != 1 {
		t.Errorf("CompactWAL on the daemon's own log = %+v, %v", after, err)
	}
}

// TestWALCompactsItself: nobody POSTs /v1/wal/compact at a default
// daemon, so the daemon compacts once more than two sealed segments lie
// behind the active one. Over 20k register/close cycles (segments shrunk
// so that is ~190 rotations) the directory and the segment count stay
// flat, and a restart replays the tail, not the history.
func TestWALCompactsItself(t *testing.T) {
	leak.Check(t)
	cycles := 20000
	if testing.Short() {
		cycles = 2000
	}
	const segmentBytes = 8 << 10
	base := filepath.Join(t.TempDir(), "cv")
	walDir := filepath.Join(t.TempDir(), "wal")
	open := func() *wal.Log {
		l, err := wal.Open(wal.Options{Dir: walDir, Sync: wal.SyncNone, SegmentBytes: segmentBytes})
		if err != nil {
			t.Fatal(err)
		}
		return l
	}
	l := open()
	d := startWALDaemon(t, base, l, mib(1000))
	ctl := dialControl(t, d)
	register(t, ctl, "resident", mib(100))
	var maxSegments int
	var maxBytes int64
	for i := 0; i < cycles; i++ {
		id := fmt.Sprintf("c%d", i%8) // eight names in rotation: the containers directory stays small
		if resp := register(t, ctl, id, mib(10)); !resp.OK {
			t.Fatalf("register %s: %s", id, resp.Error)
		}
		if resp := callControl(t, ctl, &protocol.Message{Type: protocol.TypeClose, Container: id}); !resp.OK {
			t.Fatalf("close %s: %s", id, resp.Error)
		}
		st := l.Stats()
		maxSegments = max(maxSegments, st.Segments)
		maxBytes = max(maxBytes, st.SizeBytes)
	}
	ctl.Close()
	d.Close() // drains a compaction still queued
	appended := l.Stats().Appends
	l.Close()
	// One compaction can be running while appends rotate on; two
	// segments of slack over the trigger is flat, 190 would not be.
	t.Logf("max segments %d, max bytes %d, appends %d", maxSegments, maxBytes, appended)
	if maxSegments > 6 || maxBytes > 6*segmentBytes {
		t.Errorf("log grew to %d segments / %d bytes over %d cycles (%d appends), want it flat near the 4-segment trigger", maxSegments, maxBytes, cycles, appended)
	}
	var onDisk int64
	entries, err := os.ReadDir(walDir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if info, err := e.Info(); err == nil {
			onDisk += info.Size()
		}
	}
	if onDisk > 8*segmentBytes { // segments plus the two snapshots Compact keeps
		t.Errorf("%s holds %d bytes in %d files after %d appends", walDir, onDisk, len(entries), appended)
	}

	l2 := open()
	defer l2.Close()
	d2 := startWALDaemon(t, base, l2, mib(1000))
	defer d2.Close()
	// The tail is what the trigger lets pile up: under four segments of
	// records, none of them shorter than 50 bytes.
	if st := l2.Stats(); st.Sessions != 1 || st.Replayed > 4*segmentBytes/50 {
		t.Errorf("restart replayed %d of %d records into %d sessions, want only the tail and the one resident", st.Replayed, appended, st.Sessions)
	}
	if _, err := d2.Core().Info("resident"); err != nil {
		t.Errorf("resident lost across compactions: %v", err)
	}
}

// TestWALAuditTrail is the allocation history's one home: a thousand
// Malloc+Free cycles, a reject, an attach and a suspend/resume against a
// WAL daemon append nothing — the log stays where registration put it —
// and every one of those events is in the ring /v1/trace pages.
func TestWALAuditTrail(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	l := openTestWAL(t, filepath.Join(t.TempDir(), "wal"))
	defer l.Close()
	d := startWALDaemon(t, base, l, mib(1000))
	defer d.Close()
	ctl := dialControl(t, d)
	dev := gpu.New(gpu.K20m())
	hog, _ := wrapperOn(t, register(t, ctl, "hog", mib(900)), dev, 1)
	late := register(t, ctl, "late", mib(600)) // granted the 100 MiB left over
	first, firstCli := wrapperOn(t, late, dev, 2)
	second, _ := wrapperOn(t, late, dev, 3)
	registered := l.Stats()

	for i := 0; i < 1000; i++ {
		ptr, err := hog.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := hog.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := hog.Malloc(mib(950)); !errors.Is(err, errs.ErrRejected) {
		t.Fatalf("over-limit Malloc = %v, want a reject", err)
	}
	if resp, err := firstCli.Call(context.Background(), &protocol.Message{Type: protocol.TypeAttach, PID: 2}); err != nil || !resp.OK {
		t.Fatalf("attach: %v %+v", err, resp)
	}
	held, err := first.Malloc(mib(80))
	if err != nil {
		t.Fatal(err)
	}
	resumed := make(chan error, 1)
	go func() {
		_, err := second.Malloc(mib(60)) // 80 + 60 exceed the grant, the pool is empty: Suspend
		resumed <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
		if info, err := d.Core().Info("late"); err == nil && info.Pending == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the second Malloc was never suspended")
		}
	}
	if err := first.Free(held); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-resumed:
		if err != nil {
			t.Fatalf("resumed Malloc: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("suspended Malloc never resumed")
	}
	if err := errors.Join(hog.Flush(), first.Flush(), second.Flush()); err != nil {
		t.Fatal(err)
	}

	if got := l.Stats(); got != registered {
		t.Errorf("allocation traffic moved the log: %+v, after registration it was %+v", got, registered)
	}
	got := make(map[string]int)
	events, _ := d.Obs().Tracer().Page("", 0, 0)
	for _, e := range events {
		got[e.Kind]++
	}
	want := map[string]int{"register": 2, "accept": 1001, "free": 1001, "reject": 1, "attach": 1, "suspend": 1, "resume": 1}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("ring holds %v, want %v", got, want)
	}
}

// TestWALAppendFailureRefusesRegister: when the log cannot take the
// append, the registration must not be acknowledged and the core must
// not keep the admission — append-before-ack, strictly.
func TestWALAppendFailureRefusesRegister(t *testing.T) {
	leak.Check(t)
	base := filepath.Join(t.TempDir(), "cv")
	l := openTestWAL(t, filepath.Join(t.TempDir(), "wal"))
	d := startWALDaemon(t, base, l, mib(1000))
	defer d.Close()
	ctl := dialControl(t, d)

	// Kill the log underneath the daemon: the next append fails.
	l.Close()
	resp := register(t, ctl, "lost", mib(100))
	if resp.OK {
		t.Fatal("register acknowledged with a dead WAL")
	}
	if resp.Code != errs.CodeUnavailable {
		t.Errorf("refusal code = %q, want %q", resp.Code, errs.CodeUnavailable)
	}
	if _, err := d.Core().Info("lost"); err == nil {
		t.Error("core kept the admission after the append failed")
	}
}
