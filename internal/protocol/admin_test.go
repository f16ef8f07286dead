package protocol

import (
	"fmt"
	"testing"

	"convgpu/internal/errs"
)

// Short names for the wire codes the codec's message tables use.
const (
	CodeRejected         = errs.CodeRejected
	CodeUnavailable      = errs.CodeUnavailable
	CodeUnknownContainer = errs.CodeUnknownContainer
)

// TestRetiredVerbsRefused pins the retirement of the control socket's
// introspection verbs: their JSON type strings are unknown message
// types (the trace cursor key with them), their binary opcodes and the
// cursor's payload tag fail exactly like never-assigned ones, and no
// message can be encoded onto a retired opcode.
func TestRetiredVerbsRefused(t *testing.T) {
	for _, typ := range []string{"stats", "trace", "dump", "nodes", "drain", "revive", "sessions", "ops", "tenants"} {
		line := []byte(`{"type":"` + typ + `","seq":1,"after":7}`)
		var m Message
		err := DecodeInto(&m, line)
		if want := `protocol: unknown message type "` + typ + `"`; err == nil || err.Error() != want {
			t.Errorf("DecodeInto(%s) = %v, want %s", line, err, want)
		}
		if out, ok := AppendEncodeBinary(nil, &Message{Type: Type(typ), Seq: 1}); ok {
			t.Errorf("%s still has a binary form: % x", typ, out)
		}
	}
	// 18 was never assigned: the retired opcodes get its treatment, with
	// or without the one-way bit.
	for _, op := range []byte{12, 13, 14, 17, 18, 12 | noReplyBit} {
		want := fmt.Sprintf("protocol: unknown opcode %d", op&^noReplyBit)
		hdr := []byte{BinaryMagic, op, 0, 0, 1, 0, 0, 0, 0, 0, 0, 0, 0}
		hdr[12] = xor12(hdr)
		if _, _, _, err := ParseBinaryHeader(hdr); err == nil || err.Error() != want {
			t.Errorf("ParseBinaryHeader(opcode %d) = %v, want %s", op, err, want)
		}
		if err := DecodeBinaryInto(new(Message), op, 1, nil); err == nil || err.Error() != want {
			t.Errorf("DecodeBinaryInto(opcode %d) = %v, want %s", op, err, want)
		}
	}
	if out, ok := AppendEncodeBinary(nil, &Message{Seq: 1}); ok {
		t.Errorf("typeless message encoded onto a retired opcode's empty slot: % x", out)
	}
	// Tag 17 carried the trace cursor; 23 was never assigned.
	for _, tag := range []byte{17, 23} {
		want := fmt.Sprintf("protocol: unknown payload tag %d", tag)
		err := DecodeBinaryInto(new(Message), 8, 1, []byte{tag, 7, 0, 0, 0, 0, 0, 0, 0})
		if err == nil || err.Error() != want {
			t.Errorf("payload tag %d = %v, want %s", tag, err, want)
		}
	}
}
