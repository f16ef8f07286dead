// JSON line codec and the Message pool both codecs share. Neither codec
// pools buffers: the transport encodes each frame straight into its
// connection's write buffer.
//
// JSON is the control and debug format: the paper's wire (§III-A), what
// an un-negotiated peer speaks, and what CONVGPU_WIRE_JSON pins a
// process to. Allocation traffic rides the binary codec (binary.go),
// negotiated at dial, so JSON is off the per-call path and is served by
// encoding/json over Message's struct tags — there is exactly one JSON
// implementation in this package.
package protocol

import (
	"bytes"
	"encoding/json"
	"fmt"
	"regexp"
	"strconv"
	"sync"
)

// msgPool recycles Messages across the transport read/write loops. The
// ownership rules are documented on AcquireMessage/ReleaseMessage and in
// DESIGN.md §"Hot path".
var msgPool = sync.Pool{New: func() any { return new(Message) }}

// AcquireMessage returns a zeroed Message from the pool. Pair it with
// ReleaseMessage when the message provably has no remaining readers.
func AcquireMessage() *Message { return msgPool.Get().(*Message) }

// ReleaseMessage zeroes m and returns it to the pool. The caller must be
// the last holder: releasing a message that another goroutine still
// reads, or releasing twice, corrupts unrelated traffic. When in doubt,
// don't release — an un-released message is merely garbage-collected.
func ReleaseMessage(m *Message) {
	if m == nil {
		return
	}
	*m = Message{}
	msgPool.Put(m)
}

// Reset zeroes the message in place for reuse.
func (m *Message) Reset() { *m = Message{} }

// Clone returns an independent copy. Handlers that need a message beyond
// the transport's ownership window (see ipc.Handler) clone it first.
func (m *Message) Clone() *Message {
	c := *m
	return &c
}

// AppendEncode appends m's wire form — one JSON line including the
// trailing newline — to dst and returns the extended slice. It never
// fails: Message is a flat struct of strings, integers and a bool, all
// of which encoding/json renders totally (invalid UTF-8 in a string
// becomes U+FFFD).
func AppendEncode(dst []byte, m *Message) []byte {
	buf := bytes.NewBuffer(dst)
	enc := json.NewEncoder(buf)
	enc.SetEscapeHTML(false) // error texts and JSON payloads in Data stay readable
	// Encode a copy: handing m itself to the reflection-based encoder
	// would make every caller's Message escape to the heap, including
	// the ones that go on to send a binary frame.
	if err := enc.Encode(*m); err != nil {
		panic(fmt.Sprintf("protocol: encode: %v", err)) // only a non-scalar field added to Message can get here
	}
	return buf.Bytes()
}

// DecodeInto parses one JSON line into m (resetting it first) and
// validates it. Unknown keys are skipped for forward compatibility.
func DecodeInto(m *Message, line []byte) error {
	m.Reset()
	if err := json.Unmarshal(line, m); err != nil {
		return fmt.Errorf("protocol: decode: %v", err)
	}
	return m.Validate()
}

// seqField matches a "seq" key and its unsigned integer value; the
// second group catches a fraction or exponent, which no sequence number
// carries.
var seqField = regexp.MustCompile(`"seq"[ \t\r\n]*:[ \t\r\n]*([0-9]+)([.eE]?)`)

// ScanSeq best-effort extracts the "seq" field from a line that failed
// to decode, so the transport can still echo the sequence number on its
// error response and the caller can correlate the failure instead of
// timing out. Returns 0 when no sequence number is recoverable.
func ScanSeq(line []byte) uint64 {
	for _, f := range seqField.FindAllSubmatch(line, -1) {
		if len(f[2]) != 0 {
			continue
		}
		if u, err := strconv.ParseUint(string(f[1]), 10, 64); err == nil {
			return u
		}
	}
	return 0
}
