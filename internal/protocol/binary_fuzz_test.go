package protocol

import (
	"reflect"
	"testing"
)

// FuzzBinaryDecode throws arbitrary opcode/payload pairs at the binary
// decoder. It must never panic, and any payload it accepts must
// round-trip through the binary encoder value-for-value — the closed
// loop FuzzDecode proves for the JSON codec.
func FuzzBinaryDecode(f *testing.F) {
	for _, m := range binarySampleMessages() {
		if frame, ok := AppendEncodeBinary(nil, m); ok {
			f.Add(frame[1], frame[BinaryHeaderSize:])
		}
	}
	f.Add(byte(0), []byte(nil))
	f.Add(byte(200), []byte{1, 2, 3})
	f.Fuzz(func(t *testing.T, op byte, payload []byte) {
		m := AcquireMessage()
		defer ReleaseMessage(m)
		if err := DecodeBinaryInto(m, op, 7, payload); err != nil {
			return
		}
		frame, ok := AppendEncodeBinary(nil, m)
		if !ok {
			t.Fatalf("decoder accepted a message the encoder cannot represent: %+v", m)
		}
		op2, n, seq, err := ParseBinaryHeader(frame)
		if err != nil || BinaryHeaderSize+n != len(frame) || seq != 7 {
			t.Fatalf("re-encoded frame malformed: %v (% x)", err, frame)
		}
		m2 := AcquireMessage()
		defer ReleaseMessage(m2)
		if err := DecodeBinaryInto(m2, op2, seq, frame[BinaryHeaderSize:]); err != nil {
			t.Fatalf("re-decode of own encoding failed: %v", err)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode/decode not stable:\n in %+v\nout %+v", m, m2)
		}
	})
}

// FuzzBinaryJSONParity drives both codecs with the same field values.
// Whenever the binary encoder can represent the message, decoding its
// frame must agree with decoding the JSON line (exactly, up to jsonView:
// binary carries string bytes verbatim) — and a
// single-byte corruption anywhere in the frame must keep the seq-echo
// contract: either the header still yields the true seq (so the
// transport can answer a payload error like a mangled JSON line), or
// the header parse fails and the connection is condemned. Never a
// panic, never a silently mis-framed read.
func FuzzBinaryJSONParity(f *testing.F) {
	f.Add("alloc", uint64(7), int64(41), int64(4<<20), int64(0), uint64(0), "", "cudaMalloc", "", true, "accept", -1, false)
	f.Add("register", uint64(1), int64(1), int64(0), int64(512<<20), uint64(0), "c1", "", "", false, "", 0, false)
	f.Add("response", uint64(9), int64(0), int64(0), int64(0), uint64(0), "", "", "a \"quoted\" \\ path\nline", false, "reject", 5, false)
	f.Add("confirm", uint64(2), int64(1), int64(1), int64(0), uint64(1)<<63, "", "", "", false, "", 14, false)
	f.Add("confirm", uint64(3), int64(1), int64(1), int64(0), uint64(160), "", "", "", false, "", 1, true)
	f.Add("free", uint64(4), int64(1), int64(0), int64(0), uint64(160), "", "cudaFree", "", false, "", 12, true)
	f.Add("response", uint64(3), int64(0), int64(0), int64(0), uint64(0), "", "", "confirm refused: not charged", false, "", -1, true)
	f.Add("alloc", uint64(5), int64(1), int64(1), int64(0), uint64(0), "", "", "", false, "", -1, true) // not a verb that may be one-way
	f.Fuzz(func(t *testing.T, typ string, seq uint64, pid, size, limit int64, addr uint64,
		container, api, errText string, ok bool, decision string, corrupt int, oneWay bool) {
		in := AcquireMessage()
		defer ReleaseMessage(in)
		in.Type = Type(typ)
		in.NoReply = oneWay
		in.Seq = seq
		in.Container = container
		in.PID = int(pid)
		in.Size = size
		in.Limit = limit
		in.Addr = addr
		in.API = api
		in.OK = ok
		in.Error = errText
		in.Decision = Decision(decision)

		frame, repr := AppendEncodeBinary(nil, in)
		if !repr {
			return // JSON-only message: the fallback path carries it
		}
		if in.Validate() != nil {
			// The decoder applies Validate, so an invalid message must be
			// rejected coming back — matching the JSON decoder's contract.
			out := AcquireMessage()
			defer ReleaseMessage(out)
			op, _, s, err := ParseBinaryHeader(frame)
			if err == nil && DecodeBinaryInto(out, op, s, frame[BinaryHeaderSize:]) == nil {
				t.Fatalf("binary decoder accepted a message Validate rejects: %+v", in)
			}
			return
		}

		viaBinary := decodeBinaryFrame(t, frame)
		if viaBinary.NoReply != oneWay {
			t.Fatalf("one-way marker changed in flight: sent %v, got %+v", oneWay, viaBinary)
		}
		viaJSON := AcquireMessage()
		defer ReleaseMessage(viaJSON)
		line := AppendEncode(nil, in)
		if err := DecodeInto(viaJSON, line[:len(line)-1]); err != nil {
			t.Fatalf("json decode: %v", err)
		}
		if viaBinary = jsonView(viaBinary); !reflect.DeepEqual(viaBinary, viaJSON) {
			t.Fatalf("codecs disagree:\nbinary %+v\n  json %+v", viaBinary, viaJSON)
		}

		if corrupt >= 0 && corrupt < len(frame) {
			bad := append([]byte(nil), frame...)
			bad[corrupt] ^= 0x20 // the chaos injector's exact mutation
			op, n, s, err := ParseBinaryHeader(bad)
			if err != nil {
				return // condemned connection: safe
			}
			if corrupt < BinaryHeaderSize {
				t.Fatalf("header corruption at %d went undetected", corrupt)
			}
			if s != in.Seq || n != len(bad)-BinaryHeaderSize {
				t.Fatalf("payload corruption at %d changed the header", corrupt)
			}
			out := AcquireMessage()
			defer ReleaseMessage(out)
			_ = DecodeBinaryInto(out, op, s, bad[BinaryHeaderSize:]) // must not panic
		}
	})
}
