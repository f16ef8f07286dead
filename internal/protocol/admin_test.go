package protocol

import (
	"errors"
	"testing"

	"convgpu/internal/errs"
)

// TestAfterFieldRoundTrip covers the trace page cursor through both
// codecs: the JSON line and the binary frame must both carry it.
func TestAfterFieldRoundTrip(t *testing.T) {
	m := &Message{Type: TypeTrace, Seq: 9, Container: "c1", After: 12345}
	line, err := Encode(m)
	if err != nil {
		t.Fatal(err)
	}
	var got Message
	if err := DecodeInto(&got, line); err != nil {
		t.Fatal(err)
	}
	if got.After != 12345 {
		t.Fatalf("JSON round trip After = %d, want 12345", got.After)
	}

	frame, ok := AppendEncodeBinary(nil, m)
	if !ok {
		t.Fatal("trace message not binary-representable")
	}
	op, plen, seq, err := ParseBinaryHeader(frame)
	if err != nil {
		t.Fatal(err)
	}
	var bin Message
	if err := DecodeBinaryInto(&bin, op, seq, frame[BinaryHeaderSize:BinaryHeaderSize+plen]); err != nil {
		t.Fatal(err)
	}
	if bin.After != 12345 || bin.Container != "c1" {
		t.Fatalf("binary round trip = %+v", bin)
	}

	// Zero cursor is omitted from the wire entirely.
	line, _ = Encode(&Message{Type: TypeTrace, Seq: 1})
	if string(line) != `{"type":"trace","seq":1}`+"\n" {
		t.Fatalf("zero After leaked onto the wire: %s", line)
	}
}

// TestSessionsOpsValidate covers the new control verbs.
func TestSessionsOpsValidate(t *testing.T) {
	for _, m := range []*Message{
		{Type: TypeSessions, Seq: 1},
		{Type: TypeSessions, Seq: 2, Container: "cursor-id", Size: 100},
		{Type: TypeOps, Seq: 3},
		{Type: TypeOps, Seq: 4, Container: "op-7"},
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("Validate(%s): %v", m.Type, err)
		}
		line, err := Encode(m)
		if err != nil {
			t.Fatal(err)
		}
		var got Message
		if err := DecodeInto(&got, line); err != nil {
			t.Fatalf("decode %s: %v", line, err)
		}
		if got.Type != m.Type || got.Container != m.Container {
			t.Errorf("round trip %s: got %+v", m.Type, got)
		}
	}
}

// TestCodeForInvertsErrFromCode pins the error-code mapping both ways:
// every sentinel the HTTP envelope can carry must survive the trip.
func TestCodeForInvertsErrFromCode(t *testing.T) {
	for _, err := range []error{
		errs.ErrOverCapacity,
		errs.ErrRejected,
		errs.ErrDaemonUnavailable,
		errs.ErrNodeDown,
	} {
		code := CodeFor(err)
		if code == "" {
			t.Errorf("CodeFor(%v) = empty", err)
			continue
		}
		back := ErrFromCode(code)
		if !errors.Is(back, err) {
			t.Errorf("ErrFromCode(CodeFor(%v)) = %v", err, back)
		}
		// Wrapped errors map identically.
		if CodeFor(errors.Join(errors.New("ctx"), err)) != code {
			t.Errorf("CodeFor(wrapped %v) != %s", err, code)
		}
	}
	if CodeFor(nil) != "" || CodeFor(errors.New("misc")) != "" {
		t.Error("CodeFor must return empty for nil/unknown errors")
	}
}
