// Package wal is the daemon's durable admission store: an embedded
// append-only write-ahead log of session events plus a snapshot store
// that bounds restart time. Every session-changing event the daemon
// acknowledges — register, close, lease expiry, failover migration,
// evict, tenant definition — is appended (and, per the sync policy,
// fsynced) before the acknowledgement leaves, so the set of sessions
// survives any crash. Session state only: what a session allocated and
// freed is the event ring's history (internal/obs, in memory) and is
// rebuilt after a restart by the wrappers' restore replay, so an
// intercepted cudaMalloc/cudaFree never touches the disk. Recovery is
// "load newest snapshot + replay tail". Every daemon runs on one: the
// log an operator names (fsynced per its policy) or, failing that, the
// daemon's own under its base directory at SyncNone (daemon.Config.WAL).
//
// On disk a log directory holds numbered segment files
// (wal-<firstseq>.seg) of CRC-framed records and snapshot files
// (snap-<seq>.snap). A torn tail record — the signature of a crash mid
// append — is truncated silently; a checksum failure anywhere cuts the
// usable log at the last intact record and drops whatever follows,
// which is the only safe reading of a log whose middle is gone. A torn
// record is only ever the tail: the first failed write or fsync stops the
// Log for good (ErrFailed), so nothing lands behind a half-written record
// and pages a failed fsync dropped are not synced again as if still dirty.
package wal

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"
)

// SyncMode selects when appends reach the platter.
type SyncMode int

const (
	// SyncAlways fsyncs every append before it returns: no acknowledged
	// event is ever lost. The default.
	SyncAlways SyncMode = iota
	// SyncInterval fsyncs at most once per Options.SyncInterval: by the
	// append that finds the interval elapsed, else by a timer one interval
	// after the first append left unsynced (plus rotation, snapshot and
	// close). A crash can lose up to one interval of acknowledged events.
	SyncInterval
	// SyncNone never fsyncs explicitly (the OS flushes on its own
	// schedule; Close still syncs): the log survives the process, not the
	// host. The daemon's own log, benchmarks and tests.
	SyncNone
)

// ParseSyncPolicy reads the -fsync knob: "always", "none", or a
// Go duration ("5ms") meaning SyncInterval at that period.
func ParseSyncPolicy(s string) (SyncMode, time.Duration, error) {
	switch strings.ToLower(strings.TrimSpace(s)) {
	case "", "always":
		return SyncAlways, 0, nil
	case "none", "never":
		return SyncNone, 0, nil
	}
	d, err := time.ParseDuration(s)
	if err != nil || d <= 0 {
		return 0, 0, fmt.Errorf("wal: fsync policy %q: want always, none, or a positive duration", s)
	}
	return SyncInterval, d, nil
}

// DefaultSegmentBytes is the segment rotation threshold when
// Options.SegmentBytes is zero. Small enough that compaction reclaims
// space promptly; large enough that a million-record log stays in the
// tens of segments.
const DefaultSegmentBytes = 4 << 20

// Options configures Open.
type Options struct {
	// Dir is the log directory, created if missing. Required.
	Dir string
	// Sync selects the fsync policy (default SyncAlways).
	Sync SyncMode
	// SyncInterval is the max time between fsyncs under SyncInterval.
	SyncInterval time.Duration
	// SegmentBytes rotates the active segment past this size
	// (DefaultSegmentBytes when 0).
	SegmentBytes int64
	// Logf receives recovery diagnostics (torn tails, dropped bytes,
	// discarded snapshots). Nil discards them.
	Logf func(format string, args ...any)
}

// Stats is a point-in-time summary of the store, served by the admin
// plane's /v1/wal and exported as gauges by internal/obs.
type Stats struct {
	Segments    int    `json:"segments"`
	SizeBytes   int64  `json:"size_bytes"`
	LastSeq     uint64 `json:"last_seq"`
	SnapshotSeq uint64 `json:"snapshot_seq"`
	Sessions    int    `json:"sessions"`
	Tenants     int    `json:"tenants,omitempty"`
	Appends     uint64 `json:"appends"`
	Syncs       uint64 `json:"syncs"`
	// Replayed counts records folded at Open; TailDropped counts bytes
	// discarded past the last intact record.
	Replayed    uint64 `json:"replayed"`
	TailDropped int64  `json:"tail_dropped_bytes"`
}

// ErrFailed is in every error of a Log that a failed write or fsync
// stopped, with that first failure. Only Close still works.
var ErrFailed = errors.New("wal: log failed")

// segment is the active segment file; a test swaps it to inject faults.
type segment interface {
	Write(p []byte) (int, error)
	Sync() error
	Close() error
}

// Log is an open write-ahead log. All methods are safe for concurrent
// use.
type Log struct {
	opts Options

	mu       sync.Mutex
	f        segment // active segment
	fsize    int64   // active segment size
	dirSize  int64   // total size of sealed segments (not the active one)
	sealed   int     // number of sealed segments on disk
	nextSeq  uint64
	snapSeq  uint64
	sessions map[string]Session
	tenants  map[string]TenantDef
	buf      []byte
	lastSync time.Time
	flush    *time.Timer // SyncInterval: syncs what no later append came to sync
	refuse   error       // set once closed, or by the first failed write or fsync (ErrFailed)
	appends  uint64
	syncs    uint64
	replayed uint64
	dropped  int64
	fsyncObs func(time.Duration)
	closed   bool
}

// segmentName builds the file name for a segment starting at seq.
func segmentName(seq uint64) string { return fmt.Sprintf("wal-%016x.seg", seq) }

// parseSeqName extracts the sequence number from wal-/snap- file names.
func parseSeqName(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	mid := name[len(prefix) : len(name)-len(suffix)]
	n, err := strconv.ParseUint(mid, 16, 64)
	if err != nil {
		return 0, false
	}
	return n, true
}

// Open loads (or creates) the log in opts.Dir: newest valid snapshot,
// tail replay, torn-tail truncation, and a writable active segment.
func Open(opts Options) (*Log, error) {
	if opts.Dir == "" {
		return nil, fmt.Errorf("wal: Options.Dir is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = DefaultSegmentBytes
	}
	if opts.Sync == SyncInterval && opts.SyncInterval <= 0 {
		return nil, fmt.Errorf("wal: SyncInterval policy needs a positive interval")
	}
	if opts.Logf == nil {
		opts.Logf = func(string, ...any) {}
	}
	if err := os.MkdirAll(opts.Dir, 0o755); err != nil {
		return nil, fmt.Errorf("wal: create dir: %w", err)
	}
	l := &Log{opts: opts, sessions: make(map[string]Session), tenants: make(map[string]TenantDef)}
	if err := l.recover(); err != nil {
		return nil, err
	}
	return l, nil
}

// recover loads the newest valid snapshot and replays the segment tail.
func (l *Log) recover() error {
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: scan dir: %w", err)
	}
	var snapSeqs []uint64
	var segSeqs []uint64
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		if seq, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
		if seq, ok := parseSeqName(e.Name(), "wal-", ".seg"); ok {
			segSeqs = append(segSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] }) // newest first
	sort.Slice(segSeqs, func(i, j int) bool { return segSeqs[i] < segSeqs[j] })    // oldest first

	// Newest snapshot that validates wins; invalid ones are discarded so
	// the next restart does not re-try them.
	for _, seq := range snapSeqs {
		path := filepath.Join(l.opts.Dir, snapshotName(seq))
		snapSeq, sessions, tenants, err := loadSnapshot(path)
		if err != nil {
			l.opts.Logf("wal: discarding unreadable snapshot %s: %v", snapshotName(seq), err)
			os.Remove(path)
			continue
		}
		l.snapSeq = snapSeq
		l.sessions = sessions
		l.tenants = tenants
		break
	}
	l.nextSeq = l.snapSeq + 1

	// Replay segments in order, folding records newer than the snapshot.
	// The first undecodable record ends the usable log: the rest of that
	// segment is truncated away and any later segments are dropped.
	logEnded := false
	var lastSegStart uint64
	for i, start := range segSeqs {
		path := filepath.Join(l.opts.Dir, segmentName(start))
		if logEnded {
			info, _ := os.Stat(path)
			if info != nil {
				l.dropped += info.Size()
			}
			l.opts.Logf("wal: dropping segment %s past the corruption point", segmentName(start))
			os.Remove(path)
			continue
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("wal: read segment: %w", err)
		}
		off := 0
		var rec Record
		for off < len(data) {
			n, err := decodeRecord(data[off:], &rec)
			if err != nil {
				drop := int64(len(data) - off)
				l.dropped += drop
				if err == errTornRecord && i == len(segSeqs)-1 {
					l.opts.Logf("wal: truncating torn tail record in %s (%d bytes)", segmentName(start), drop)
				} else {
					l.opts.Logf("wal: segment %s corrupt at offset %d (%v); log ends at seq %d", segmentName(start), off, err, l.nextSeq-1)
				}
				if terr := os.Truncate(path, int64(off)); terr != nil {
					return fmt.Errorf("wal: truncate corrupt segment: %w", terr)
				}
				logEnded = true
				break
			}
			if rec.Seq >= l.nextSeq {
				l.fold(&rec)
				l.nextSeq = rec.Seq + 1
				l.replayed++
			}
			off += n
		}
		lastSegStart = start
		if info, err := os.Stat(path); err == nil {
			l.dirSize += info.Size()
			l.sealed++
		}
	}

	// Re-open the last segment for append, or start a fresh one.
	if l.sealed > 0 {
		path := filepath.Join(l.opts.Dir, segmentName(lastSegStart))
		f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		if err != nil {
			return fmt.Errorf("wal: reopen segment: %w", err)
		}
		info, err := f.Stat()
		if err != nil {
			f.Close()
			return err
		}
		l.f = f
		l.fsize = info.Size()
		l.dirSize -= info.Size()
		l.sealed--
		return nil
	}
	return l.openSegment()
}

// openSegment starts a fresh active segment at the current sequence.
// Caller holds l.mu (or is inside Open).
func (l *Log) openSegment() error {
	path := filepath.Join(l.opts.Dir, segmentName(l.nextSeq))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_EXCL|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("wal: create segment: %w", err)
	}
	l.f = f
	l.fsize = 0
	return nil
}

// fold applies one record to the in-memory session state.
func (l *Log) fold(rec *Record) {
	if !rec.Kind.sessionKind() || rec.Container == "" {
		return
	}
	switch rec.Kind {
	case KindRegister, KindMigrate:
		l.sessions[rec.Container] = Session{Container: rec.Container, Limit: rec.Amount, Device: int(rec.Device), Tenant: rec.Tenant}
	case KindClose, KindLeaseExpire, KindEvict:
		delete(l.sessions, rec.Container)
	case KindTenant:
		var def TenantDef
		if err := json.Unmarshal([]byte(rec.Meta), &def); err != nil {
			l.opts.Logf("wal: tenant record %q has unreadable definition: %v", rec.Container, err)
			return
		}
		def.Name = rec.Container
		l.tenants[rec.Container] = def
	}
}

// SetFsyncObserver installs a hook timing every fsync (internal/obs
// routes it into the fsync-latency histogram). Pass nil to remove.
func (l *Log) SetFsyncObserver(fn func(time.Duration)) {
	l.mu.Lock()
	l.fsyncObs = fn
	l.mu.Unlock()
}

// Append assigns the record its sequence number, writes it to the
// active segment and applies the sync policy. It returns the assigned
// sequence. The record is folded into the live session view before the
// call returns, so Sessions always reflects every acknowledged event.
func (l *Log) Append(rec Record) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refuse != nil {
		return 0, l.refuse
	}
	if l.fsize >= l.opts.SegmentBytes {
		if err := l.rotateLocked(); err != nil {
			return 0, err
		}
	}
	rec.Seq = l.nextSeq
	var err error
	l.buf, err = appendRecord(l.buf[:0], &rec)
	if err != nil {
		return 0, err
	}
	if _, err := l.f.Write(l.buf); err != nil {
		return 0, l.failLocked(fmt.Errorf("wal: append: %w", err))
	}
	l.fsize += int64(len(l.buf))
	l.nextSeq++
	l.appends++
	l.fold(&rec)
	switch l.opts.Sync {
	case SyncAlways:
		if err := l.syncLocked(); err != nil {
			return 0, err
		}
	case SyncInterval:
		if time.Since(l.lastSync) >= l.opts.SyncInterval {
			if err := l.syncLocked(); err != nil {
				return 0, err
			}
		} else if l.flush == nil {
			// No later append may come to find the interval elapsed.
			l.flush = time.AfterFunc(l.opts.SyncInterval, l.syncPending)
		}
	}
	return rec.Seq, nil
}

// failLocked stops the log at its first failed write or fsync.
func (l *Log) failLocked(err error) error {
	if l.refuse == nil {
		l.refuse = fmt.Errorf("%w: %w", ErrFailed, err)
	}
	return l.refuse
}

func (l *Log) stopFlushLocked() {
	if l.flush != nil {
		l.flush.Stop()
		l.flush = nil
	}
}

// syncPending is the interval timer's; any sync since it was set cleared flush.
func (l *Log) syncPending() {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.flush != nil && l.refuse == nil {
		_ = l.syncLocked() // a failure stops the log; the next Append reports it
	}
}

// syncLocked fsyncs the active segment and feeds the latency observer.
func (l *Log) syncLocked() error {
	start := time.Now()
	if err := l.f.Sync(); err != nil {
		return l.failLocked(fmt.Errorf("wal: fsync: %w", err))
	}
	l.stopFlushLocked()
	l.lastSync = time.Now()
	l.syncs++
	if l.fsyncObs != nil {
		l.fsyncObs(l.lastSync.Sub(start))
	}
	return nil
}

// Sync forces an fsync of the active segment regardless of policy.
func (l *Log) Sync() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.refuse != nil {
		return l.refuse
	}
	return l.syncLocked()
}

// rotateLocked seals the active segment and opens a fresh one.
func (l *Log) rotateLocked() error {
	if err := l.syncLocked(); err != nil {
		return err
	}
	if err := l.f.Close(); err != nil {
		return err
	}
	l.dirSize += l.fsize
	l.sealed++
	return l.openSegment()
}

// Sessions returns the live session set, sorted by container ID — the
// recovered truth a restarted daemon re-admits.
func (l *Log) Sessions() []Session {
	l.mu.Lock()
	out := make([]Session, 0, len(l.sessions))
	for _, s := range l.sessions {
		out = append(out, s)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Container < out[j].Container })
	return out
}

// Tenants returns the folded tenant definitions, sorted by name — the
// recovered tenant table a restarted daemon re-binds sessions against.
func (l *Log) Tenants() []TenantDef {
	l.mu.Lock()
	out := make([]TenantDef, 0, len(l.tenants))
	for _, t := range l.tenants {
		out = append(out, t)
	}
	l.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// TenantRecord builds the KindTenant record persisting one tenant
// definition; the caller appends it (stamping the event time) like any
// other session-changing record.
func TenantRecord(def TenantDef) (Record, error) {
	if def.Name == "" {
		return Record{}, fmt.Errorf("wal: tenant definition without a name")
	}
	meta, err := json.Marshal(def)
	if err != nil {
		return Record{}, fmt.Errorf("wal: encode tenant definition: %w", err)
	}
	return Record{Kind: KindTenant, Container: def.Name, Meta: string(meta)}, nil
}

// LastSeq reports the highest assigned sequence number (0 when empty).
func (l *Log) LastSeq() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.nextSeq - 1
}

// Snapshot writes a snapshot of the live session set at the current
// sequence without removing any segment. Returns the covered sequence.
func (l *Log) Snapshot() (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.snapshotLocked()
}

func (l *Log) snapshotLocked() (uint64, error) {
	if l.refuse != nil {
		return 0, l.refuse
	}
	// The snapshot must not claim coverage of records still in the page
	// cache: sync first so covered == durable.
	if err := l.syncLocked(); err != nil {
		return 0, err
	}
	seq := l.nextSeq - 1
	if _, err := writeSnapshot(l.opts.Dir, seq, l.sessions, l.tenants); err != nil {
		return 0, err
	}
	l.snapSeq = seq
	return seq, nil
}

// Compact is snapshot-then-truncate: write a snapshot at the current
// sequence, seal the active segment, then delete every segment the
// snapshot covers and every snapshot older than the previous one (the
// newest two are kept so a bad platter sector under the new snapshot
// still leaves a recovery path).
func (l *Log) Compact() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if _, err := l.snapshotLocked(); err != nil {
		return err
	}
	// Seal and replace the active segment so every record <= snapSeq
	// lives in a sealed segment eligible for deletion. An empty active
	// segment is already past the snapshot (its first sequence would be
	// nextSeq) — sealing it would collide with its own replacement.
	if l.fsize > 0 {
		if err := l.f.Close(); err != nil {
			return err
		}
		l.dirSize += l.fsize
		l.sealed++
		if err := l.openSegment(); err != nil {
			return err
		}
	}
	entries, err := os.ReadDir(l.opts.Dir)
	if err != nil {
		return fmt.Errorf("wal: scan for compaction: %w", err)
	}
	var snapSeqs []uint64
	for _, e := range entries {
		if seq, ok := parseSeqName(e.Name(), "snap-", ".snap"); ok {
			snapSeqs = append(snapSeqs, seq)
		}
	}
	sort.Slice(snapSeqs, func(i, j int) bool { return snapSeqs[i] > snapSeqs[j] })
	for _, e := range entries {
		if seq, ok := parseSeqName(e.Name(), "wal-", ".seg"); ok && seq <= l.snapSeq && seq != l.nextSeq {
			path := filepath.Join(l.opts.Dir, e.Name())
			if info, err := os.Stat(path); err == nil {
				l.dirSize -= info.Size()
			}
			os.Remove(path)
			l.sealed--
		}
	}
	for i, seq := range snapSeqs {
		if i >= 2 {
			os.Remove(filepath.Join(l.opts.Dir, snapshotName(seq)))
		}
	}
	return nil
}

// Stats reports the store's current shape.
func (l *Log) Stats() Stats {
	l.mu.Lock()
	defer l.mu.Unlock()
	return Stats{
		Segments:    l.sealed + 1,
		SizeBytes:   l.dirSize + l.fsize,
		LastSeq:     l.nextSeq - 1,
		SnapshotSeq: l.snapSeq,
		Sessions:    len(l.sessions),
		Tenants:     len(l.tenants),
		Appends:     l.appends,
		Syncs:       l.syncs,
		Replayed:    l.replayed,
		TailDropped: l.dropped,
	}
}

// Close fsyncs and closes the active segment. Further appends fail. A
// failed log is not synced: its last write is the tail the next Open cuts.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return nil
	}
	l.closed = true
	l.stopFlushLocked()
	if l.refuse == nil {
		l.refuse = errors.New("wal: log closed")
		if err := l.f.Sync(); err != nil {
			l.f.Close()
			return err
		}
	}
	return l.f.Close()
}
