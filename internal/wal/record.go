// Record framing: every session-changing event the daemon acknowledges
// is first appended to the log as one CRC-framed binary record. The frame is
//
//	[payload length : uint32 LE][CRC-32 (IEEE) of payload : uint32 LE][payload]
//
// and the payload is a fixed-field binary encoding (little-endian) of
// the Record struct. The CRC covers only the payload; a torn write —
// the crash landing mid-record — therefore fails either the length
// bound or the checksum, and replay stops exactly at the last intact
// record.

package wal

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
)

// Kind classifies one admission event. The daemon writes session-folding
// kinds only (KindRegister, KindMigrate, KindClose, KindLeaseExpire,
// KindEvict, KindTenant): they change the recovered session set. The
// audit kinds are legacy — earlier builds appended one per allocation
// event, so replay still decodes and skips them; nothing writes them now
// (that history is the event ring's, see internal/obs).
type Kind uint8

const (
	// KindRegister creates a session: Container admitted with Amount
	// (its memory limit) on Device.
	KindRegister Kind = 1
	// KindClose ends a session (the plugin's close signal, or the
	// daemon shutting the container down for any reason in Meta).
	KindClose Kind = 2
	// KindMigrate re-places a live session: a node failover moved
	// Container onto Device with (possibly clamped) limit Amount.
	KindMigrate Kind = 3
	// KindLeaseExpire ends a session whose lease ran out — folds
	// exactly like KindClose, kept distinct for audit.
	KindLeaseExpire Kind = 4
	// KindEvict ends a session a failover could not re-place — folds
	// exactly like KindClose, kept distinct for audit.
	KindEvict Kind = 5
	// KindTenant defines (or redefines) a tenant: Container carries the
	// tenant name and Meta its JSON-encoded TenantDef. Folded so a
	// restarted daemon recovers every tenant's quota/priority attributes
	// alongside the sessions bound to them.
	KindTenant Kind = 6

	// Audit kinds: the allocation plane. Legacy: decoded and skipped by
	// replay, never written by this daemon.
	KindGrant   Kind = 16 // allocation accepted (Amount bytes, PID)
	KindSuspend Kind = 17 // allocation parked
	KindResume  Kind = 18 // parked allocation released (admitted)
	KindReject  Kind = 19 // allocation rejected (over limit)
	KindRelease Kind = 20 // memory returned (free / procexit / abort)
	KindAttach  Kind = 21 // wrapper (re)attached to its session
)

// String names the kind for traces and audit listings.
func (k Kind) String() string {
	switch k {
	case KindRegister:
		return "register"
	case KindClose:
		return "close"
	case KindMigrate:
		return "migrate"
	case KindLeaseExpire:
		return "lease_expire"
	case KindEvict:
		return "evict"
	case KindTenant:
		return "tenant"
	case KindGrant:
		return "grant"
	case KindSuspend:
		return "suspend"
	case KindResume:
		return "resume"
	case KindReject:
		return "reject"
	case KindRelease:
		return "release"
	case KindAttach:
		return "attach"
	default:
		return fmt.Sprintf("kind(%d)", uint8(k))
	}
}

// sessionKind reports whether the kind changes the recovered session
// set (true for register/migrate/close/lease/evict/tenant).
func (k Kind) sessionKind() bool { return k >= KindRegister && k <= KindTenant }

// Record is one appended event. Seq is assigned by the log at append
// time (strictly increasing, never reused); all other fields are the
// caller's.
type Record struct {
	Seq       uint64
	At        int64 // event time, Unix nanoseconds
	Amount    int64 // limit (register/migrate), bytes released (close)
	Device    int32
	PID       int32
	Kind      Kind
	Container string
	// Meta carries audit context: an eviction reason, the request ID of
	// the admin operation that caused the event, a failover's node pair
	// (and, for KindTenant, the JSON-encoded tenant definition).
	Meta string
	// Tenant names the tenant a register/migrate event binds the session
	// to (empty for the default tenant). Encoded as an optional trailer,
	// so tenantless records keep their historical byte layout and old
	// logs replay unchanged.
	Tenant string
}

// Encoded payload layout (after the 8-byte frame header):
//
//	seq    uint64 LE
//	at     int64  LE
//	amount int64  LE
//	device int32  LE
//	pid    int32  LE
//	kind   uint8
//	clen   uint16 LE, container bytes
//	mlen   uint16 LE, meta bytes
//	tlen   uint16 LE, tenant bytes — optional trailer, present only when
//	       the tenant name is non-empty (old records end at the meta)
const (
	frameHeaderSize = 8
	payloadFixed    = 8 + 8 + 8 + 4 + 4 + 1 + 2 + 2

	// maxRecordSize bounds a single record's payload; anything larger in
	// a file is corruption, not data (container IDs and meta strings are
	// both far under 64 KiB).
	maxRecordSize = 1 << 17
)

// appendRecord encodes rec as one frame onto dst.
func appendRecord(dst []byte, rec *Record) ([]byte, error) {
	if len(rec.Container) > 0xFFFF {
		return dst, fmt.Errorf("wal: container id %d bytes exceeds 64 KiB", len(rec.Container))
	}
	if len(rec.Meta) > 0xFFFF {
		return dst, fmt.Errorf("wal: meta %d bytes exceeds 64 KiB", len(rec.Meta))
	}
	if len(rec.Tenant) > 0xFFFF {
		return dst, fmt.Errorf("wal: tenant %d bytes exceeds 64 KiB", len(rec.Tenant))
	}
	plen := payloadFixed + len(rec.Container) + len(rec.Meta)
	if rec.Tenant != "" {
		plen += 2 + len(rec.Tenant)
	}
	if plen > maxRecordSize {
		return dst, fmt.Errorf("wal: record payload %d bytes exceeds cap %d", plen, maxRecordSize)
	}
	base := len(dst)
	dst = append(dst, make([]byte, frameHeaderSize)...)
	dst = binary.LittleEndian.AppendUint64(dst, rec.Seq)
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.At))
	dst = binary.LittleEndian.AppendUint64(dst, uint64(rec.Amount))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.Device))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(rec.PID))
	dst = append(dst, byte(rec.Kind))
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Container)))
	dst = append(dst, rec.Container...)
	dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Meta)))
	dst = append(dst, rec.Meta...)
	if rec.Tenant != "" {
		dst = binary.LittleEndian.AppendUint16(dst, uint16(len(rec.Tenant)))
		dst = append(dst, rec.Tenant...)
	}
	payload := dst[base+frameHeaderSize:]
	binary.LittleEndian.PutUint32(dst[base:], uint32(len(payload)))
	binary.LittleEndian.PutUint32(dst[base+4:], crc32.ChecksumIEEE(payload))
	return dst, nil
}

// decodeRecord reads one frame from buf. It returns the decoded record
// and the number of bytes consumed. A short buffer, an out-of-bounds
// length, or a checksum mismatch returns an error — replay treats any
// of those as the end of the usable log.
func decodeRecord(buf []byte, rec *Record) (int, error) {
	if len(buf) < frameHeaderSize {
		return 0, errTornRecord
	}
	plen := int(binary.LittleEndian.Uint32(buf))
	if plen < payloadFixed || plen > maxRecordSize {
		return 0, fmt.Errorf("wal: record length %d out of bounds", plen)
	}
	if len(buf) < frameHeaderSize+plen {
		return 0, errTornRecord
	}
	payload := buf[frameHeaderSize : frameHeaderSize+plen]
	if crc := crc32.ChecksumIEEE(payload); crc != binary.LittleEndian.Uint32(buf[4:]) {
		return 0, fmt.Errorf("wal: record checksum mismatch")
	}
	rec.Seq = binary.LittleEndian.Uint64(payload)
	rec.At = int64(binary.LittleEndian.Uint64(payload[8:]))
	rec.Amount = int64(binary.LittleEndian.Uint64(payload[16:]))
	rec.Device = int32(binary.LittleEndian.Uint32(payload[24:]))
	rec.PID = int32(binary.LittleEndian.Uint32(payload[28:]))
	rec.Kind = Kind(payload[32])
	rest := payload[33:]
	clen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < clen+2 {
		return 0, fmt.Errorf("wal: record container length %d overruns payload", clen)
	}
	rec.Container = string(rest[:clen])
	rest = rest[clen:]
	mlen := int(binary.LittleEndian.Uint16(rest))
	rest = rest[2:]
	if len(rest) < mlen {
		return 0, fmt.Errorf("wal: record meta length %d overruns payload", mlen)
	}
	rec.Meta = string(rest[:mlen])
	rest = rest[mlen:]
	// Optional tenant trailer: pre-tenant records end at the meta.
	rec.Tenant = ""
	if len(rest) > 0 {
		if len(rest) < 2 {
			return 0, fmt.Errorf("wal: record tenant trailer truncated")
		}
		tlen := int(binary.LittleEndian.Uint16(rest))
		rest = rest[2:]
		if len(rest) != tlen {
			return 0, fmt.Errorf("wal: record tenant length %d does not close payload (%d left)", tlen, len(rest))
		}
		rec.Tenant = string(rest)
	}
	return frameHeaderSize + plen, nil
}

// errTornRecord marks an incomplete trailing frame — the normal shape
// of a crash mid-append, recoverable by truncating the tail.
var errTornRecord = fmt.Errorf("wal: torn record at end of segment")
