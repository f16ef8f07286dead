package protocol

import (
	"bytes"
	"math/rand"
	"reflect"
	"testing"
)

// binarySampleMessages cover every field and every verb with a binary
// form, including the exact shapes the hot path sends.
func binarySampleMessages() []*Message {
	return []*Message{
		{Type: TypeAlloc, Seq: 7, PID: 41, Size: 4 << 20, API: "cudaMalloc"},
		{Type: TypeConfirm, Seq: 8, PID: 41, Size: 4 << 20, Addr: 0xdeadbeef},
		{Type: TypeFree, Seq: 9, PID: 41, Addr: 0xdeadbeef, API: "cudaFree"},
		{Type: TypeRegister, Seq: 1, Container: "c1", Limit: 512 << 20},
		{Type: TypeClose, Seq: 2, Container: "c1"},
		{Type: TypeProcExit, Seq: 3, PID: 41},
		{Type: TypeMemInfo, Seq: 4},
		{Type: TypeAttach, Seq: 5, PID: 41},
		{Type: TypeRestore, Seq: 6, PID: 41, Addr: 160, Size: 100 << 20},
		{Type: TypeHeartbeat, Seq: 12, PID: 2},
		{Type: TypeCodec, Seq: 1, Data: BinaryCodecToken},
		{Type: TypeResponse, Seq: 7, OK: true, Decision: DecisionAccept},
		{Type: TypeResponse, Seq: 8, OK: true, Free: 1 << 30, Total: 2 << 30},
		{Type: TypeResponse, Seq: 9, Error: "over limit", Code: CodeRejected},
		{Type: TypeResponse, Seq: 10, OK: true, Granted: 256 << 20, SocketDir: "/tmp/convgpu/c1", Device: 3},
		{Type: TypeResponse, Seq: 11, OK: true, Data: `{"k":"v"}`},
		{Type: TypeResponse, Seq: 1<<64 - 1, Error: "a \"quoted\" \\ path\nline é☃😀"},
		{Type: TypeConfirm, Seq: 2, PID: 1, Addr: 1<<64 - 1, Size: 1},
		{Type: TypeAlloc, Seq: 0, PID: 1, Size: 1},
		// One-way frames: the two reports a wrapper posts, and the error
		// frame that comes back when one is refused.
		{Type: TypeConfirm, Seq: 13, PID: 41, Size: 4 << 20, Addr: 0xdeadbeef, NoReply: true},
		{Type: TypeFree, Seq: 14, PID: 41, Addr: 0xdeadbeef, NoReply: true},
		{Type: TypeResponse, Seq: 13, Error: "confirm refused: not charged", Code: CodeUnknownContainer, NoReply: true},
	}
}

// decodeBinaryFrame runs the full receive path on one encoded frame.
func decodeBinaryFrame(t *testing.T, frame []byte) *Message {
	t.Helper()
	op, n, seq, err := ParseBinaryHeader(frame)
	if err != nil {
		t.Fatalf("header: %v (% x)", err, frame)
	}
	if BinaryHeaderSize+n != len(frame) {
		t.Fatalf("length field %d does not frame %d bytes", n, len(frame))
	}
	m := new(Message)
	if err := DecodeBinaryInto(m, op, seq, frame[BinaryHeaderSize:]); err != nil {
		t.Fatalf("payload: %v (% x)", err, frame)
	}
	return m
}

func TestBinaryRoundTrip(t *testing.T) {
	for _, in := range binarySampleMessages() {
		frame, ok := AppendEncodeBinary(nil, in)
		if !ok {
			t.Fatalf("message not representable: %+v", in)
		}
		out := decodeBinaryFrame(t, frame)
		if !reflect.DeepEqual(in, out) {
			t.Fatalf("round trip changed the message:\n in %+v\nout %+v", in, out)
		}
	}
}

// TestBinaryAgreesWithJSON sends each sample through both codecs: the
// framing differs, the message must not.
func TestBinaryAgreesWithJSON(t *testing.T) {
	for _, in := range binarySampleMessages() {
		frame, ok := AppendEncodeBinary(nil, in)
		if !ok {
			t.Fatalf("message not representable: %+v", in)
		}
		viaBinary := decodeBinaryFrame(t, frame)
		viaJSON := new(Message)
		if err := DecodeInto(viaJSON, bytes.TrimSuffix(AppendEncode(nil, in), []byte("\n"))); err != nil {
			t.Fatalf("json round trip: %v", err)
		}
		if viaBinary.NoReply != in.NoReply {
			t.Fatalf("binary lost the one-way marker: %+v", in)
		}
		viaBinary.NoReply = false // JSON has no field for it
		if !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Fatalf("codecs disagree:\nbinary %+v\n  json %+v", viaBinary, viaJSON)
		}
	}
}

// TestBinaryOneWayMarker: the marker is the opcode byte's high bit and
// nothing else — the rest of the frame is the two-way frame's, the
// header checksum covers it, and only the verbs that are answered at
// once may carry it.
func TestBinaryOneWayMarker(t *testing.T) {
	twoWay := &Message{Type: TypeFree, Seq: 9, PID: 41, Addr: 160}
	oneWay := *twoWay
	oneWay.NoReply = true
	a, _ := AppendEncodeBinary(nil, twoWay)
	b, _ := AppendEncodeBinary(nil, &oneWay)
	if len(a) != len(b) || b[1] != a[1]|0x80 || b[12] != a[12]^0x80 {
		t.Fatalf("marked frame is not the plain frame with the opcode's high bit set:\n% x\n% x", a, b)
	}
	a[1], a[12] = b[1], b[12]
	if !bytes.Equal(a, b) {
		t.Fatalf("marker changed bytes beyond opcode and checksum:\n% x\n% x", a, b)
	}
	b[1] &^= 0x80 // the bit flipped in flight
	if _, _, _, err := ParseBinaryHeader(b); err == nil {
		t.Fatal("a flipped one-way bit passed the header checksum")
	}
	for _, typ := range []Type{TypeAlloc, TypeAbort, TypeProcExit, TypeMemInfo, TypeHeartbeat, TypeRegister, TypeClose} {
		m := &Message{Type: typ, Seq: 1, PID: 1, Size: 1, Container: "c", Limit: 1, NoReply: true}
		frame, ok := AppendEncodeBinary(nil, m)
		if !ok {
			t.Fatalf("%s: no binary form", typ)
		}
		op, _, seq, err := ParseBinaryHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		out := new(Message)
		if err := DecodeBinaryInto(out, op, seq, frame[BinaryHeaderSize:]); err == nil {
			t.Errorf("a one-way %s decoded; only confirm, free and the refusal response may be", typ)
		} else if !out.NoReply || out.Seq != 1 {
			t.Errorf("failed decode of a one-way %s lost the header: %+v", typ, out)
		}
	}
	if line := AppendEncode(nil, &oneWay); !bytes.Equal(line, AppendEncode(nil, twoWay)) {
		t.Errorf("JSON carries the marker: %s", line)
	}
}

// TestBinaryWireStability locks the frame bytes of a representative
// request: opcodes, tags, widths and the checksum rule are wire format
// shared across versions, like the JSON golden test next door.
func TestBinaryWireStability(t *testing.T) {
	m := &Message{Type: TypeAlloc, Seq: 0x0102030405060708, PID: 41, Size: 4 << 20, API: "cudaMalloc"}
	frame, ok := AppendEncodeBinary(nil, m)
	if !ok {
		t.Fatal("not representable")
	}
	want := []byte{
		0xBF, 2, // magic, opcode alloc
		31, 0, // payload length
		0x08, 0x07, 0x06, 0x05, 0x04, 0x03, 0x02, 0x01, // seq LE
		0xBF ^ 2 ^ 31 ^ 0x08 ^ 0x07 ^ 0x06 ^ 0x05 ^ 0x04 ^ 0x03 ^ 0x02 ^ 0x01, // checksum
		2, 41, 0, 0, 0, 0, 0, 0, 0, // pid
		3, 0, 0, 0x40, 0, 0, 0, 0, 0, // size 4<<20
		6, 10, 0, 'c', 'u', 'd', 'a', 'M', 'a', 'l', 'l', 'o', 'c', // api
	}
	if !bytes.Equal(frame, want) {
		t.Fatalf("wire bytes drifted:\ngot  % x\nwant % x", frame, want)
	}
}

// TestBinaryHeaderCorruptionDetected flips every header byte the way
// the chaos fault injector does (XOR 0x20) and requires the parse to
// fail: a corrupted length must never send the reader after phantom
// bytes.
func TestBinaryHeaderCorruptionDetected(t *testing.T) {
	m := &Message{Type: TypeAlloc, Seq: 77, PID: 41, Size: 1 << 20}
	frame, _ := AppendEncodeBinary(nil, m)
	for i := 0; i < BinaryHeaderSize; i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x20
		if _, _, _, err := ParseBinaryHeader(bad); err == nil {
			t.Fatalf("single-byte corruption at header offset %d went undetected", i)
		}
	}
}

// TestHeaderChecksumFold: xor12's word-at-a-time fold is the XOR of the
// twelve header bytes, byte by byte, on random headers.
func TestHeaderChecksumFold(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hdr := make([]byte, BinaryHeaderSize)
	for i := 0; i < 100000; i++ {
		rng.Read(hdr)
		var want byte
		for _, b := range hdr[:12] {
			want ^= b
		}
		if got := xor12(hdr); got != want {
			t.Fatalf("header % x: xor12 %#02x, byte loop %#02x", hdr, got, want)
		}
	}
}

// TestBinaryPayloadCorruptionKeepsSeq corrupts payload bytes: the
// header still parses, so the transport can echo the true seq on its
// error response — the binary analogue of ScanSeq on a mangled JSON
// line. The decode itself must either fail cleanly or yield a changed
// message, never panic.
func TestBinaryPayloadCorruptionKeepsSeq(t *testing.T) {
	m := &Message{Type: TypeAlloc, Seq: 77, PID: 41, Size: 1 << 20, API: "cudaMalloc"}
	frame, _ := AppendEncodeBinary(nil, m)
	for i := BinaryHeaderSize; i < len(frame); i++ {
		bad := append([]byte(nil), frame...)
		bad[i] ^= 0x20
		op, n, seq, err := ParseBinaryHeader(bad)
		if err != nil {
			t.Fatalf("payload corruption at %d broke the header: %v", i, err)
		}
		if seq != 77 || n != len(frame)-BinaryHeaderSize {
			t.Fatalf("header fields changed by payload corruption at %d", i)
		}
		out := new(Message)
		_ = DecodeBinaryInto(out, op, seq, bad[BinaryHeaderSize:]) // must not panic
	}
}

func TestBinaryMalformedPayloads(t *testing.T) {
	m := new(Message)
	cases := []struct {
		name    string
		op      byte
		payload []byte
	}{
		{"unknown tag", 2, []byte{99}},
		{"truncated int", 2, []byte{tagPID, 1, 2}},
		{"truncated string length", 2, []byte{tagAPI, 4}},
		{"string past end", 2, []byte{tagAPI, 255, 0, 'x'}},
		{"truncated decision", 16, []byte{tagDecision}},
		{"bad decision byte", 16, []byte{tagDecision, 9}},
		{"bad opcode", 200, nil},
		{"validate fails", 2, nil}, // alloc without pid/size
	}
	for _, c := range cases {
		if err := DecodeBinaryInto(m, c.op, 1, c.payload); err == nil {
			t.Errorf("%s: decode accepted", c.name)
		}
	}
}

func TestBinaryUnrepresentable(t *testing.T) {
	big := string(make([]byte, MaxBinaryPayload+1))
	cases := []*Message{
		{Type: "bogus", Seq: 1},
		{Type: TypeResponse, Seq: 1, Decision: "maybe"},
		{Type: TypeResponse, Seq: 1, Data: big},
	}
	for _, m := range cases {
		prefix := []byte("keep")
		out, ok := AppendEncodeBinary(prefix, m)
		if ok {
			t.Errorf("encoded unrepresentable message %+v", m)
		}
		if !bytes.Equal(out, prefix) {
			t.Errorf("failed encode did not restore dst for %+v", m)
		}
	}
}

// TestBinaryZeroAlloc proves the hot-path contract: encode into a
// buffer with room (a connection's write buffer) and decode into a
// pooled message allocate nothing for
// the verbs the wrapper sends every CUDA call.
func TestBinaryZeroAlloc(t *testing.T) {
	req := &Message{Type: TypeAlloc, Seq: 7, PID: 41, Size: 4 << 20, API: "cudaMalloc"}
	resp := &Message{Type: TypeResponse, Seq: 7, OK: true, Decision: DecisionAccept, Free: 1 << 30}
	for _, m := range []*Message{req, resp} {
		buf := make([]byte, 0, 256)
		frame, _ := AppendEncodeBinary(buf, m)
		op, _, seq, err := ParseBinaryHeader(frame)
		if err != nil {
			t.Fatal(err)
		}
		payload := append([]byte(nil), frame[BinaryHeaderSize:]...)
		out := new(Message)
		if n := testing.AllocsPerRun(200, func() {
			if _, ok := AppendEncodeBinary(buf, m); !ok {
				t.Fatal("encode failed")
			}
		}); n != 0 {
			t.Errorf("encode of %+v allocates %.1f/op", m, n)
		}
		if n := testing.AllocsPerRun(200, func() {
			if err := DecodeBinaryInto(out, op, seq, payload); err != nil {
				t.Fatal(err)
			}
		}); n != 0 {
			t.Errorf("decode of %+v allocates %.1f/op", m, n)
		}
	}
}
