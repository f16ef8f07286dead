package wal

import (
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"strconv"
	"testing"
	"time"
)

// TestRecoveryConformanceLarge drives the log with a long random stream
// of admission events against an in-memory map oracle, reopening the
// log (with snapshots and compactions sprinkled in) at several
// checkpoints. After every reopen the recovered session set must equal
// the oracle exactly — the ISSUE's restart-recovery-is-lossless
// acceptance check at 10^5-event scale.
func TestRecoveryConformanceLarge(t *testing.T) {
	events := 100_000
	if testing.Short() {
		events = 10_000
	}
	dir := t.TempDir()
	rng := rand.New(rand.NewSource(0xC04F))
	oracle := make(map[string]Session)
	live := make([]string, 0, 4096) // open containers, for targeted closes

	l := open(t, dir, Options{SegmentBytes: 1 << 20})
	checkpoints := 4
	for i := 0; i < events; i++ {
		var rec Record
		switch op := rng.Intn(10); {
		case op < 4 || len(live) == 0: // register
			id := "c" + strconv.Itoa(rng.Intn(events/4))
			rec = Record{Kind: KindRegister, Container: id,
				Amount: int64(1+rng.Intn(1<<20)) * 1024, Device: int32(rng.Intn(8))}
			if _, open := oracle[id]; !open {
				live = append(live, id)
			}
			oracle[id] = Session{Container: id, Limit: rec.Amount, Device: int(rec.Device)}
		case op < 6: // close / lease-expire / evict: all fold to delete
			id := live[rng.Intn(len(live))]
			kinds := []Kind{KindClose, KindLeaseExpire, KindEvict}
			rec = Record{Kind: kinds[rng.Intn(len(kinds))], Container: id}
			delete(oracle, id)
			for j, v := range live {
				if v == id {
					live[j] = live[len(live)-1]
					live = live[:len(live)-1]
					break
				}
			}
		case op < 7: // migrate: re-home an open session
			id := live[rng.Intn(len(live))]
			rec = Record{Kind: KindMigrate, Container: id,
				Amount: oracle[id].Limit, Device: int32(rng.Intn(8)), Meta: "conformance move"}
			oracle[id] = Session{Container: id, Limit: rec.Amount, Device: int(rec.Device)}
		default: // audit traffic: must never change the fold
			id := live[rng.Intn(len(live))]
			kinds := []Kind{KindGrant, KindSuspend, KindResume, KindReject, KindRelease, KindAttach}
			rec = Record{Kind: kinds[rng.Intn(len(kinds))], Container: id,
				Amount: int64(rng.Intn(1 << 20)), PID: int32(rng.Intn(1 << 15))}
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatalf("event %d: Append: %v", i, err)
		}

		if (i+1)%(events/checkpoints) == 0 {
			// Occasionally snapshot or compact before the crash point, so
			// recovery exercises snapshot+tail, not just raw replay.
			switch rng.Intn(3) {
			case 0:
				if _, err := l.Snapshot(); err != nil {
					t.Fatalf("event %d: Snapshot: %v", i, err)
				}
			case 1:
				if err := l.Compact(); err != nil {
					t.Fatalf("event %d: Compact: %v", i, err)
				}
			}
			if err := l.Close(); err != nil {
				t.Fatalf("event %d: Close: %v", i, err)
			}
			l = open(t, dir, Options{SegmentBytes: 1 << 20})
			compare(t, i, l, oracle)
		}
	}
	l.Close()
}

// compare fails the test if the log's folded sessions differ from the
// oracle in any way.
func compare(t *testing.T, event int, l *Log, oracle map[string]Session) {
	t.Helper()
	got := l.Sessions()
	if len(got) != len(oracle) {
		t.Fatalf("after event %d: recovered %d sessions, oracle holds %d", event, len(got), len(oracle))
	}
	for _, s := range got {
		want, ok := oracle[s.Container]
		if !ok {
			t.Fatalf("after event %d: recovered session %q the oracle closed", event, s.Container)
		}
		if s != want {
			t.Fatalf("after event %d: session %q = %+v, oracle %+v", event, s.Container, s, want)
		}
	}
}

// TestRecoverySmoke bounds restart recovery wall time for CI: replaying
// a 50k-event log must finish within CONVGPU_RECOVERY_SMOKE_MS
// (default 5000). The threshold is an env knob so slow CI runners can
// widen it without a code change.
func TestRecoverySmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("recovery smoke is a timing gate; skipped in -short")
	}
	thresholdMS := 5000
	if v := os.Getenv("CONVGPU_RECOVERY_SMOKE_MS"); v != "" {
		n, err := strconv.Atoi(v)
		if err != nil || n <= 0 {
			t.Fatalf("CONVGPU_RECOVERY_SMOKE_MS=%q: want a positive integer", v)
		}
		thresholdMS = n
	}
	dir := t.TempDir()
	l := open(t, dir, Options{})
	const events = 50_000
	for i := 0; i < events; i++ {
		rec := Record{Kind: KindRegister, Container: "c" + strconv.Itoa(i%10_000), Amount: 1 << 20}
		if i%3 == 2 {
			rec = Record{Kind: KindClose, Container: rec.Container}
		}
		if _, err := l.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	r, err := Open(Options{Dir: dir})
	if err != nil {
		t.Fatalf("recovery open: %v", err)
	}
	elapsed := time.Since(start)
	n := len(r.Sessions())
	r.Close()
	t.Logf("recovered %d sessions from %d events in %v", n, events, elapsed)
	if elapsed > time.Duration(thresholdMS)*time.Millisecond {
		t.Fatalf("recovery took %v, threshold %dms (tune CONVGPU_RECOVERY_SMOKE_MS)", elapsed, thresholdMS)
	}
}

// TestAuditEraLogReplays opens a segment written by the daemon of the
// commit before the allocation audit left the log (testdata/audit_era;
// TESTING.md says how it was made): register a, b / tenant gold /
// register c / then a's grant, release, grant, b's suspend, reject,
// attach, close a, b's resume. The audit records among them must still
// decode and be skipped — sessions, sequence and replay count as that
// daemon left them.
func TestAuditEraLogReplays(t *testing.T) {
	const name = "wal-0000000000000001.seg"
	data, err := os.ReadFile(filepath.Join("testdata", "audit_era", name))
	if err != nil {
		t.Fatal(err)
	}
	var kinds []Kind
	for off := 0; off < len(data); {
		var rec Record
		n, err := decodeRecord(data[off:], &rec)
		if err != nil {
			t.Fatalf("golden segment does not decode at offset %d: %v", off, err)
		}
		kinds = append(kinds, rec.Kind)
		off += n
	}
	want := []Kind{KindRegister, KindRegister, KindTenant, KindRegister,
		KindGrant, KindRelease, KindGrant, KindSuspend, KindReject, KindAttach, KindClose, KindResume}
	if !reflect.DeepEqual(kinds, want) {
		t.Fatalf("golden segment holds %v, want %v", kinds, want)
	}

	dir := t.TempDir() // Open writes to the directory it is given
	if err := os.WriteFile(filepath.Join(dir, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	l := open(t, dir, Options{})
	defer l.Close()
	if st := l.Stats(); st.LastSeq != 12 || st.Replayed != 12 || st.TailDropped != 0 {
		t.Fatalf("stats after replay: %+v, want 12 records, nothing dropped", st)
	}
	wantSessions := []Session{
		{Container: "b", Limit: 600 << 20},
		{Container: "c", Limit: 100 << 20, Tenant: "gold"},
	}
	if got := l.Sessions(); !reflect.DeepEqual(got, wantSessions) {
		t.Fatalf("sessions = %+v, want %+v", got, wantSessions)
	}
	if got := l.Tenants(); len(got) != 1 || got[0].Name != "gold" {
		t.Fatalf("tenants = %+v, want gold", got)
	}
}
