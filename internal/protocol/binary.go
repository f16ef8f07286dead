// Binary fast-path codec.
//
// JSON costs the hot path twice per CUDA call on each side of the
// socket: digits rendered and re-parsed, keys scanned, strings walked
// for escapes. The binary codec removes all of that for the verbs that
// matter — alloc/confirm/free and their responses — by framing the same
// Message struct as a length-prefixed record of tagged fixed-width
// fields. It is negotiated per connection (see TypeCodec); the JSON
// line codec remains the universal fallback and the debug format, and
// its wire bytes are untouched.
//
// Frame layout (little-endian):
//
//	offset 0   magic 0xBF     — cannot begin a JSON line, distinct from '\n'
//	offset 1   opcode         — the message Type as a byte; the high bit
//	                            marks a one-way frame (Message.NoReply)
//	offset 2   u16 payload length
//	offset 4   u64 seq
//	offset 12  checksum       — XOR of bytes 0..11
//	offset 13  payload        — tagged fields, omitted when zero
//
// The header checksum is what keeps a corrupted length byte from ever
// blocking a reader on bytes that will not come: any single-byte flip
// in the header fails the XOR and the connection is torn down instead
// of trusting the length. Payload fields are a tag byte followed by a
// fixed 8-byte integer, a u16-length-prefixed string, or a single enum
// byte; a tag the decoder does not know fails the frame, which the
// transport answers with an error response echoing the header's seq —
// the same contract as a malformed JSON line. There is no in-band
// versioning: peers that differ fall back to JSON at negotiation.
package protocol

import (
	"encoding/binary"
	"fmt"

	"convgpu/internal/errs"
)

const (
	// BinaryMagic is the first byte of every binary frame. The dispatch
	// rule on a mixed-codec connection is first byte >= 0x80 = binary
	// frame, anything else = JSON line; a JSON line we emit always
	// starts with '{' (0x7B), so the two framings cannot be confused
	// even when a fault flips a bit in the leading byte.
	BinaryMagic = 0xBF
	// BinaryHeaderSize is the fixed frame header length.
	BinaryHeaderSize = 13
	// MaxBinaryPayload bounds the tagged-field payload (u16 length).
	// Larger messages (pathological error texts) are sent as JSON lines
	// instead — both ends accept either framing per message once binary
	// is negotiated.
	MaxBinaryPayload = 1<<16 - 1
	// noReplyBit in the opcode byte marks a one-way frame. Opcodes stay
	// below it, and the header checksum covers it like any other bit.
	noReplyBit = 0x80
	// BinaryCodecToken is offered in a TypeCodec probe's Data field and
	// echoed by a server that speaks this frame format.
	BinaryCodecToken = "bin1"
)

// Payload field tags. Tag values are stable wire format. Tag 17 (the
// trace page cursor of the retired introspection verbs) is never
// reassigned; a payload carrying it fails like any unknown tag.
const (
	tagContainer = 1  // string
	tagPID       = 2  // i64
	tagSize      = 3  // i64
	tagLimit     = 4  // i64
	tagAddr      = 5  // u64
	tagAPI       = 6  // string (interned on decode)
	tagOK        = 7  // presence = true
	tagError     = 8  // string
	tagCode      = 9  // string
	tagDecision  = 10 // enum byte
	tagGranted   = 11 // i64
	tagSocketDir = 12 // string
	tagDevice    = 13 // i64
	tagFree      = 14 // i64
	tagTotal     = 15 // i64
	tagData      = 16 // string

	// Tenant identity fields (register/attach). New tags extend the
	// format compatibly: zero values are omitted, so single-tenant
	// traffic emits byte-identical frames, and an old decoder only ever
	// sees these tags from a peer that negotiated with a new server.
	tagTenant          = 18 // string
	tagTenantWeight    = 19 // i64
	tagTenantPriority  = 20 // i64
	tagTenantQuota     = 21 // i64
	tagTenantGuarantee = 22 // i64
)

// typeByOpcode maps opcode bytes back to message types. Opcode values
// are stable wire format; 0 stays invalid so a zeroed header never
// aliases a real verb. Opcodes 12, 13, 14 and 17 belonged to the
// control socket's introspection verbs (stats, trace, dump, tenants),
// which /v1 on the admin socket replaced: they are retired, never
// reassigned, and a frame carrying one is an unknown opcode.
var typeByOpcode = [...]Type{
	1:  TypeRegister,
	2:  TypeAlloc,
	3:  TypeConfirm,
	4:  TypeAbort,
	5:  TypeFree,
	6:  TypeProcExit,
	7:  TypeClose,
	8:  TypeMemInfo,
	9:  TypeAttach,
	10: TypeRestore,
	11: TypeHeartbeat,
	15: TypeCodec,
	16: TypeResponse,
}

// opcodeOf returns the opcode for a type, or false for a type with no
// binary form (unknown/empty types — Validate rejects those anyway).
func opcodeOf(t Type) (byte, bool) {
	if t == "" {
		return 0, false // would otherwise match a retired opcode's empty slot
	}
	for op := 1; op < len(typeByOpcode); op++ {
		if typeByOpcode[op] == t {
			return byte(op), true
		}
	}
	return 0, false
}

// typeOfOpcode maps a header's opcode byte, with or without the one-way
// bit, to its message type; "" for a byte that names none.
func typeOfOpcode(op byte) Type {
	if op &^= noReplyBit; int(op) < len(typeByOpcode) {
		return typeByOpcode[op]
	}
	return ""
}

// Decision enum bytes (stable wire format).
const (
	decAccept  = 1
	decReject  = 2
	decSuspend = 3
)

func decisionByte(d Decision) (byte, bool) {
	switch d {
	case DecisionAccept:
		return decAccept, true
	case DecisionReject:
		return decReject, true
	case DecisionSuspend:
		return decSuspend, true
	default:
		return 0, false
	}
}

// AppendEncodeBinary appends m's binary frame to dst and reports
// whether the message was representable. ok=false — an unknown type or
// decision token, a string over 64 KiB, or a payload over
// MaxBinaryPayload — leaves dst unchanged and means the caller must
// send the message as a JSON line instead. Into a buffer with room for
// the frame the encode is allocation-free.
func AppendEncodeBinary(dst []byte, m *Message) (out []byte, ok bool) {
	op, ok := opcodeOf(m.Type)
	if !ok {
		return dst, false
	}
	if m.NoReply {
		op |= noReplyBit
	}
	base := len(dst)
	dst = append(dst, BinaryMagic, op, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0, 0)

	dst, ok = appendBinaryString(dst, tagContainer, m.Container)
	if !ok {
		return dst[:base], false
	}
	dst = appendBinaryInt(dst, tagPID, int64(m.PID))
	dst = appendBinaryInt(dst, tagSize, m.Size)
	dst = appendBinaryInt(dst, tagLimit, m.Limit)
	dst = appendBinaryInt(dst, tagAddr, int64(m.Addr))
	dst, ok = appendBinaryString(dst, tagTenant, m.Tenant)
	if !ok {
		return dst[:base], false
	}
	dst = appendBinaryInt(dst, tagTenantWeight, int64(m.TenantWeight))
	dst = appendBinaryInt(dst, tagTenantPriority, int64(m.TenantPriority))
	dst = appendBinaryInt(dst, tagTenantQuota, m.TenantQuota)
	dst = appendBinaryInt(dst, tagTenantGuarantee, m.TenantGuarantee)
	dst, ok = appendBinaryString(dst, tagAPI, m.API)
	if !ok {
		return dst[:base], false
	}
	if m.OK {
		dst = append(dst, tagOK)
	}
	dst, ok = appendBinaryString(dst, tagError, m.Error)
	if !ok {
		return dst[:base], false
	}
	dst, ok = appendBinaryString(dst, tagCode, m.Code)
	if !ok {
		return dst[:base], false
	}
	if m.Decision != "" {
		d, ok := decisionByte(m.Decision)
		if !ok {
			return dst[:base], false
		}
		dst = append(dst, tagDecision, d)
	}
	dst = appendBinaryInt(dst, tagGranted, m.Granted)
	dst, ok = appendBinaryString(dst, tagSocketDir, m.SocketDir)
	if !ok {
		return dst[:base], false
	}
	dst = appendBinaryInt(dst, tagDevice, int64(m.Device))
	dst = appendBinaryInt(dst, tagFree, m.Free)
	dst = appendBinaryInt(dst, tagTotal, m.Total)
	dst, ok = appendBinaryString(dst, tagData, m.Data)
	if !ok {
		return dst[:base], false
	}

	n := len(dst) - base - BinaryHeaderSize
	if n > MaxBinaryPayload {
		return dst[:base], false
	}
	hdr := dst[base : base+BinaryHeaderSize]
	binary.LittleEndian.PutUint16(hdr[2:4], uint16(n))
	binary.LittleEndian.PutUint64(hdr[4:12], m.Seq)
	hdr[12] = xor12(hdr)
	return dst, true
}

// appendBinaryInt appends tag + 8-byte little-endian value, omitting
// zero values like the JSON encoder omits empty fields.
func appendBinaryInt(dst []byte, tag byte, v int64) []byte {
	if v == 0 {
		return dst
	}
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], uint64(v))
	dst = append(dst, tag)
	return append(dst, buf[:]...)
}

// appendBinaryString appends tag + u16 length + bytes; empty strings
// are omitted. ok=false when the string exceeds the u16 length.
func appendBinaryString(dst []byte, tag byte, s string) ([]byte, bool) {
	if s == "" {
		return dst, true
	}
	if len(s) > MaxBinaryPayload {
		return dst, false
	}
	var l [2]byte
	binary.LittleEndian.PutUint16(l[:], uint16(len(s)))
	dst = append(dst, tag, l[0], l[1])
	return append(dst, s...), true
}

// xor12 folds the first 12 header bytes into the checksum byte, a word at
// a time: bytes 8–11 onto 0–3, then each half onto the other.
func xor12(hdr []byte) byte {
	x := binary.LittleEndian.Uint64(hdr) ^ uint64(binary.LittleEndian.Uint32(hdr[8:12]))
	x ^= x >> 32
	x ^= x >> 16
	return byte(x ^ x>>8)
}

// ParseBinaryHeader validates a frame header and returns its opcode
// byte (one-way bit included, for DecodeBinaryInto to read), payload
// length and sequence number. An error here means the header
// bytes cannot be trusted — in particular the length — so the caller
// must drop the connection rather than attempt to resynchronize; a
// fault that flips any single header byte is always caught by the XOR.
func ParseBinaryHeader(hdr []byte) (op byte, payloadLen int, seq uint64, err error) {
	if len(hdr) < BinaryHeaderSize {
		return 0, 0, 0, fmt.Errorf("protocol: binary header truncated (%d bytes)", len(hdr))
	}
	if hdr[0] != BinaryMagic {
		return 0, 0, 0, fmt.Errorf("protocol: bad frame magic %#02x", hdr[0])
	}
	if xor12(hdr) != hdr[12] {
		return 0, 0, 0, fmt.Errorf("protocol: binary header checksum mismatch")
	}
	op = hdr[1]
	if typeOfOpcode(op) == "" {
		return 0, 0, 0, fmt.Errorf("protocol: unknown opcode %d", op&^noReplyBit)
	}
	payloadLen = int(binary.LittleEndian.Uint16(hdr[2:4]))
	seq = binary.LittleEndian.Uint64(hdr[4:12])
	return op, payloadLen, seq, nil
}

// DecodeBinaryInto parses a frame's payload into m (resetting it
// first), with type and seq taken from the already-validated header.
// Decoding a hot-path message allocates nothing: integers and enums
// are fixed-width, and the API name is interned. An error reports a
// malformed payload, with m still holding what the header said (type,
// seq, one-way marker); the transport answers it with an error response
// echoing seq, matching the JSON path's malformed-line contract.
func DecodeBinaryInto(m *Message, op byte, seq uint64, payload []byte) error {
	m.Reset()
	m.Type = typeOfOpcode(op)
	if m.Type == "" {
		return fmt.Errorf("protocol: unknown opcode %d", op&^noReplyBit)
	}
	m.NoReply = op&noReplyBit != 0
	m.Seq = seq
	i := 0
	for i < len(payload) {
		tag := payload[i]
		i++
		switch tag {
		case tagOK:
			m.OK = true
		case tagDecision:
			if i >= len(payload) {
				return errTruncatedField(tag)
			}
			switch payload[i] {
			case decAccept:
				m.Decision = DecisionAccept
			case decReject:
				m.Decision = DecisionReject
			case decSuspend:
				m.Decision = DecisionSuspend
			default:
				return fmt.Errorf("protocol: unknown decision byte %d", payload[i])
			}
			i++
		case tagPID, tagSize, tagLimit, tagAddr, tagGranted, tagDevice, tagFree, tagTotal,
			tagTenantWeight, tagTenantPriority, tagTenantQuota, tagTenantGuarantee:
			if i+8 > len(payload) {
				return errTruncatedField(tag)
			}
			v := binary.LittleEndian.Uint64(payload[i : i+8])
			i += 8
			switch tag {
			case tagPID:
				m.PID = int(int64(v))
			case tagSize:
				m.Size = int64(v)
			case tagLimit:
				m.Limit = int64(v)
			case tagAddr:
				m.Addr = v
			case tagGranted:
				m.Granted = int64(v)
			case tagDevice:
				m.Device = int(int64(v))
			case tagFree:
				m.Free = int64(v)
			case tagTotal:
				m.Total = int64(v)
			case tagTenantWeight:
				m.TenantWeight = int(int64(v))
			case tagTenantPriority:
				m.TenantPriority = int(int64(v))
			case tagTenantQuota:
				m.TenantQuota = int64(v)
			case tagTenantGuarantee:
				m.TenantGuarantee = int64(v)
			}
		case tagContainer, tagAPI, tagError, tagCode, tagSocketDir, tagData, tagTenant:
			if i+2 > len(payload) {
				return errTruncatedField(tag)
			}
			n := int(binary.LittleEndian.Uint16(payload[i : i+2]))
			i += 2
			if i+n > len(payload) {
				return errTruncatedField(tag)
			}
			s := payload[i : i+n]
			i += n
			switch tag {
			case tagContainer:
				m.Container = string(s)
			case tagAPI:
				m.API = apiToken(s)
			case tagError:
				m.Error = string(s)
			case tagCode:
				m.Code = errs.Intern(s) // known codes decode allocation-free
			case tagSocketDir:
				m.SocketDir = string(s)
			case tagData:
				m.Data = string(s)
			case tagTenant:
				m.Tenant = string(s)
			}
		default:
			return fmt.Errorf("protocol: unknown payload tag %d", tag)
		}
	}
	return m.Validate()
}

func errTruncatedField(tag byte) error {
	return fmt.Errorf("protocol: payload truncated in field tag %d", tag)
}

// apiToken maps the wire bytes of an API name onto a canonical string:
// the wrapper only ever sends the intercepted CUDA API names, so decoding
// any real request allocates nothing. A test in package wrapper
// cross-checks the set against InterceptedAPIs.
func apiToken(s []byte) string {
	switch string(s) {
	case "cudaMalloc":
		return "cudaMalloc"
	case "cudaMallocManaged":
		return "cudaMallocManaged"
	case "cudaMallocPitch":
		return "cudaMallocPitch"
	case "cudaMalloc3D":
		return "cudaMalloc3D"
	case "cudaFree":
		return "cudaFree"
	case "cudaMemGetInfo":
		return "cudaMemGetInfo"
	case "cudaGetDeviceProperties":
		return "cudaGetDeviceProperties"
	case "__cudaUnregisterFatBinary":
		return "__cudaUnregisterFatBinary"
	default:
		return string(s) // unknown API: allocates, off every hot path
	}
}
