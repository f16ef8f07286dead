package wal

import (
	"os"
	"path/filepath"
	"testing"
	"time"
)

func open(t *testing.T, dir string, opts Options) *Log {
	t.Helper()
	opts.Dir = dir
	if opts.Sync == SyncAlways {
		// Tests that don't exercise the sync policy run unsynced: the
		// suite hits the filesystem thousands of times.
		opts.Sync = SyncNone
	}
	l, err := Open(opts)
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return l
}

func mustAppend(t *testing.T, l *Log, rec Record) uint64 {
	t.Helper()
	seq, err := l.Append(rec)
	if err != nil {
		t.Fatalf("Append(%v %s): %v", rec.Kind, rec.Container, err)
	}
	return seq
}

func sessionsMap(l *Log) map[string]Session {
	m := make(map[string]Session)
	for _, s := range l.Sessions() {
		m[s.Container] = s
	}
	return m
}

func TestAppendReplayRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 100, Device: 1})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "b", Amount: 200})
	mustAppend(t, l, Record{Kind: KindGrant, Container: "a", Amount: 50, PID: 7}) // audit: no fold
	mustAppend(t, l, Record{Kind: KindClose, Container: "b"})
	mustAppend(t, l, Record{Kind: KindMigrate, Container: "a", Amount: 90, Device: 3})
	if err := l.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	got := r.Sessions()
	if len(got) != 1 {
		t.Fatalf("recovered %d sessions, want 1: %+v", len(got), got)
	}
	want := Session{Container: "a", Limit: 90, Device: 3}
	if got[0] != want {
		t.Fatalf("recovered session %+v, want %+v", got[0], want)
	}
	if seq := r.LastSeq(); seq != 5 {
		t.Fatalf("LastSeq = %d, want 5", seq)
	}
	// New appends continue the sequence.
	if seq := mustAppend(t, r, Record{Kind: KindRegister, Container: "c", Amount: 10}); seq != 6 {
		t.Fatalf("post-recovery append seq = %d, want 6", seq)
	}
}

func TestSnapshotAndCompact(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{SegmentBytes: 256}) // force rotation
	for i := 0; i < 100; i++ {
		id := string(rune('a' + i%26))
		mustAppend(t, l, Record{Kind: KindRegister, Container: id, Amount: int64(i + 1)})
	}
	before := l.Stats()
	if before.Segments < 3 {
		t.Fatalf("expected rotation to produce several segments, got %d", before.Segments)
	}
	if err := l.Compact(); err != nil {
		t.Fatalf("Compact: %v", err)
	}
	after := l.Stats()
	if after.Segments != 1 {
		t.Fatalf("after compact: %d segments, want 1", after.Segments)
	}
	if after.SnapshotSeq != before.LastSeq {
		t.Fatalf("snapshot seq %d, want last seq %d", after.SnapshotSeq, before.LastSeq)
	}
	// Appends after compaction land in the fresh segment; recovery folds
	// snapshot + tail.
	mustAppend(t, l, Record{Kind: KindClose, Container: "a"})
	wantSessions := sessionsMap(l)
	l.Close()

	r := open(t, dir, Options{})
	defer r.Close()
	got := sessionsMap(r)
	if len(got) != len(wantSessions) {
		t.Fatalf("recovered %d sessions, want %d", len(got), len(wantSessions))
	}
	for id, s := range wantSessions {
		if got[id] != s {
			t.Fatalf("session %s: recovered %+v, want %+v", id, got[id], s)
		}
	}
	if r.Stats().Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the post-snapshot close)", r.Stats().Replayed)
	}
	// Compacting twice in a row (empty active segment) must not fail.
	if err := r.Compact(); err != nil {
		t.Fatalf("second Compact: %v", err)
	}
	if err := r.Compact(); err != nil {
		t.Fatalf("third Compact (empty segment): %v", err)
	}
}

func TestCorruptSnapshotFallsBack(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 1})
	if _, err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	mustAppend(t, l, Record{Kind: KindRegister, Container: "b", Amount: 2})
	if _, err := l.Snapshot(); err != nil {
		t.Fatalf("Snapshot: %v", err)
	}
	l.Close()

	// Corrupt the newest snapshot: recovery must fall back to the older
	// one plus segment replay, losing nothing.
	newest := filepath.Join(dir, snapshotName(2))
	data, err := os.ReadFile(newest)
	if err != nil {
		t.Fatalf("read snapshot: %v", err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(newest, data, 0o644); err != nil {
		t.Fatalf("corrupt snapshot: %v", err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	got := sessionsMap(r)
	if len(got) != 2 || got["a"].Limit != 1 || got["b"].Limit != 2 {
		t.Fatalf("recovered sessions %+v, want a and b", got)
	}
	if _, err := os.Stat(newest); !os.IsNotExist(err) {
		t.Fatalf("corrupt snapshot should have been removed, stat err = %v", err)
	}
}

func TestParseSyncPolicy(t *testing.T) {
	cases := []struct {
		in   string
		mode SyncMode
		d    time.Duration
		err  bool
	}{
		{"always", SyncAlways, 0, false},
		{"", SyncAlways, 0, false},
		{"none", SyncNone, 0, false},
		{"Never", SyncNone, 0, false},
		{"5ms", SyncInterval, 5 * time.Millisecond, false},
		{"1s", SyncInterval, time.Second, false},
		{"-3ms", 0, 0, true},
		{"sometimes", 0, 0, true},
	}
	for _, c := range cases {
		mode, d, err := ParseSyncPolicy(c.in)
		if c.err {
			if err == nil {
				t.Errorf("ParseSyncPolicy(%q): expected error", c.in)
			}
			continue
		}
		if err != nil || mode != c.mode || d != c.d {
			t.Errorf("ParseSyncPolicy(%q) = %v %v %v, want %v %v", c.in, mode, d, err, c.mode, c.d)
		}
	}
}

func TestSyncPolicies(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(Options{Dir: dir, Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	var fsyncs int
	l.SetFsyncObserver(func(time.Duration) { fsyncs++ })
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 1})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "b", Amount: 1})
	if st := l.Stats(); st.Syncs < 2 {
		t.Fatalf("SyncAlways: %d syncs after 2 appends", st.Syncs)
	}
	if fsyncs < 2 {
		t.Fatalf("fsync observer saw %d syncs", fsyncs)
	}
	l.Close()

	li, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: time.Hour})
	if err != nil {
		t.Fatalf("Open interval: %v", err)
	}
	defer li.Close()
	base := li.Stats().Syncs
	mustAppend(t, li, Record{Kind: KindRegister, Container: "a", Amount: 1})
	mustAppend(t, li, Record{Kind: KindRegister, Container: "b", Amount: 1})
	// First append syncs (lastSync is zero); the hour-long interval must
	// swallow the second.
	if got := li.Stats().Syncs - base; got != 1 {
		t.Fatalf("SyncInterval(1h): %d syncs after 2 appends, want 1", got)
	}

	if _, _, err := ParseSyncPolicy("always"); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval}); err == nil {
		t.Fatal("Open with SyncInterval and no interval should fail")
	}
}

func TestClosedLogRefusesWrites(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	l.Close()
	if _, err := l.Append(Record{Kind: KindRegister, Container: "x", Amount: 1}); err == nil {
		t.Fatal("Append on closed log should fail")
	}
	if err := l.Compact(); err == nil {
		t.Fatal("Compact on closed log should fail")
	}
	if err := l.Close(); err != nil {
		t.Fatalf("double Close: %v", err)
	}
}

func TestStatsShape(t *testing.T) {
	l := open(t, t.TempDir(), Options{})
	defer l.Close()
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 42, Device: 2})
	st := l.Stats()
	if st.Segments != 1 || st.Sessions != 1 || st.Appends != 1 || st.LastSeq != 1 {
		t.Fatalf("stats after one append: %+v", st)
	}
	if st.SizeBytes <= 0 {
		t.Fatalf("SizeBytes = %d, want > 0", st.SizeBytes)
	}
}

// TestIntervalSyncWithoutALaterAppend: under SyncInterval the last append
// of a burst is synced one interval later by the log's own timer — with
// the allocation audit stream gone a session record may be followed by
// no append for hours, and "a crash can lose up to one interval" must
// hold all the same.
func TestIntervalSyncWithoutALaterAppend(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncInterval, SyncInterval: 20 * time.Millisecond})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 1}) // syncs: lastSync is zero
	mustAppend(t, l, Record{Kind: KindRegister, Container: "b", Amount: 1}) // inside the interval
	if got := l.Stats().Syncs; got != 1 {
		t.Fatalf("%d syncs right after two back-to-back appends, want 1", got)
	}
	deadline := time.Now().Add(time.Second)
	for l.Stats().Syncs < 2 {
		if time.Now().After(deadline) {
			t.Fatal("the second append was never synced: no third append came, and no timer")
		}
		time.Sleep(5 * time.Millisecond)
	}
	// One pending timer at most, cleared by the sync it made.
	time.Sleep(60 * time.Millisecond)
	if got := l.Stats().Syncs; got != 2 {
		t.Fatalf("%d syncs for two appends, want 2", got)
	}
}
