package wal

import (
	"errors"
	"testing"
)

// faultySegment fails the active segment's next write (after passing a
// prefix of it through, as a disk filling up does) or its next fsync.
type faultySegment struct {
	segment
	shortWrite int // > 0: the next write stores this many bytes, then fails
	failSync   bool
}

var errInjected = errors.New("injected disk fault")

func (s *faultySegment) Write(p []byte) (int, error) {
	if s.shortWrite > 0 {
		n, _ := s.segment.Write(p[:s.shortWrite])
		return n, errInjected
	}
	return s.segment.Write(p)
}

func (s *faultySegment) Sync() error {
	if s.failSync {
		return errInjected
	}
	return s.segment.Sync()
}

// assertFailed checks that every operation but Close refuses with
// ErrFailed carrying the first failure.
func assertFailed(t *testing.T, l *Log) {
	t.Helper()
	_, appendErr := l.Append(Record{Kind: KindRegister, Container: "late", Amount: 1})
	_, snapErr := l.Snapshot()
	for name, err := range map[string]error{
		"Append": appendErr, "Sync": l.Sync(), "Snapshot": snapErr, "Compact": l.Compact(),
	} {
		if !errors.Is(err, ErrFailed) || !errors.Is(err, errInjected) {
			t.Errorf("%s on a failed log = %v, want ErrFailed wrapping the injected fault", name, err)
		}
	}
}

// TestShortWriteFailStops: a write that stores part of a record and fails
// must end the log there. Were the next append to go through, it would
// land behind the torn record, and the next Open — which cuts the log at
// the first record that does not decode — would drop it although it was
// acknowledged. With the log failed the torn record is the tail, which
// replay heals.
func TestShortWriteFailStops(t *testing.T) {
	dir := t.TempDir()
	l := open(t, dir, Options{})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 100})
	mustAppend(t, l, Record{Kind: KindRegister, Container: "b", Amount: 200})
	l.f = &faultySegment{segment: l.f, shortWrite: 11}
	if _, err := l.Append(Record{Kind: KindRegister, Container: "torn", Amount: 300}); !errors.Is(err, ErrFailed) {
		t.Fatalf("Append through a short write = %v, want ErrFailed", err)
	}
	l.f.(*faultySegment).shortWrite = 0 // the disk is fine again; the log must not be
	assertFailed(t, l)
	if st := l.Stats(); st.LastSeq != 2 || st.Appends != 2 || st.Sessions != 2 {
		t.Fatalf("stats after the failed append: %+v, want 2 records", st)
	}
	if err := l.Close(); err != nil {
		t.Fatalf("Close of a failed log: %v", err)
	}

	r := open(t, dir, Options{})
	defer r.Close()
	st := r.Stats()
	if st.Replayed != 2 || st.LastSeq != 2 || st.TailDropped != 11 {
		t.Fatalf("reopen: %+v, want 2 records replayed and the 11 torn bytes dropped", st)
	}
	got := sessionsMap(r)
	if len(got) != 2 || got["a"].Limit != 100 || got["b"].Limit != 200 {
		t.Fatalf("recovered sessions %+v, want a and b", got)
	}
}

// TestFsyncErrorFailStops: after a failed fsync the kernel may have
// dropped the dirty pages and marked them clean, so a second fsync that
// succeeds proves nothing. The log stops instead of trying.
func TestFsyncErrorFailStops(t *testing.T) {
	l, err := Open(Options{Dir: t.TempDir(), Sync: SyncAlways})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	defer l.Close()
	mustAppend(t, l, Record{Kind: KindRegister, Container: "a", Amount: 100})
	syncs := l.Stats().Syncs
	l.f = &faultySegment{segment: l.f, failSync: true}
	if _, err := l.Append(Record{Kind: KindRegister, Container: "b", Amount: 200}); !errors.Is(err, errInjected) {
		t.Fatalf("Append through a failed fsync = %v, want the injected fault", err)
	}
	l.f.(*faultySegment).failSync = false
	assertFailed(t, l)
	if got := l.Stats().Syncs; got != syncs {
		t.Fatalf("Syncs went from %d to %d on a failed log", syncs, got)
	}
}
