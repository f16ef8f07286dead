package protocol

import (
	"bytes"
	"errors"
	"reflect"
	"sync"
	"testing"
	"testing/quick"

	"convgpu/internal/bytesize"
)

func TestEncodeDecodeRoundTrip(t *testing.T) {
	msgs := []*Message{
		{Type: TypeRegister, Seq: 1, Container: "c1", Limit: int64(512 * bytesize.MiB)},
		{Type: TypeAlloc, Seq: 2, Container: "c1", PID: 41, Size: 4096, API: "cudaMalloc"},
		{Type: TypeConfirm, Seq: 3, PID: 41, Size: 4096, Addr: 0xdeadbeef},
		{Type: TypeFree, Seq: 4, PID: 41, Addr: 0xdeadbeef},
		{Type: TypeProcExit, Seq: 5, PID: 41},
		{Type: TypeClose, Seq: 6, Container: "c1"},
		{Type: TypeMemInfo, Seq: 7, Container: "c1"},
		{Type: TypeResponse, Seq: 7, OK: true, Free: 100, Total: 200},
		{Type: TypeResponse, Seq: 2, OK: true, Decision: DecisionAccept},
		{Type: TypeResponse, Seq: 9, OK: false, Error: "boom"},
	}
	for _, m := range msgs {
		b, err := Encode(m)
		if err != nil {
			t.Fatalf("Encode(%+v): %v", m, err)
		}
		if b[len(b)-1] != '\n' {
			t.Fatalf("Encode(%s) missing trailing newline", m.Type)
		}
		if bytes.ContainsRune(b[:len(b)-1], '\n') {
			t.Fatalf("Encode(%s) contains interior newline", m.Type)
		}
		got, err := Decode(b)
		if err != nil {
			t.Fatalf("Decode(Encode(%+v)): %v", m, err)
		}
		if !reflect.DeepEqual(got, m) {
			t.Errorf("round trip mismatch:\n got %+v\nwant %+v", got, m)
		}
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"", "{", "null", `"str"`, `{"type":"nope"}`, `{"seq":1}`,
	} {
		if m, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) = %+v, want error", in, m)
		}
	}
}

func TestValidate(t *testing.T) {
	cases := []struct {
		name string
		m    Message
		ok   bool
	}{
		{"register ok", Message{Type: TypeRegister, Container: "c", Limit: 1}, true},
		{"register no container", Message{Type: TypeRegister, Limit: 1}, false},
		{"register zero limit", Message{Type: TypeRegister, Container: "c"}, false},
		{"register negative limit", Message{Type: TypeRegister, Container: "c", Limit: -5}, false},
		{"alloc ok", Message{Type: TypeAlloc, PID: 1, Size: 1}, true},
		{"alloc zero size", Message{Type: TypeAlloc, PID: 1}, false},
		{"alloc no pid", Message{Type: TypeAlloc, Size: 1}, false},
		{"confirm ok", Message{Type: TypeConfirm, PID: 1, Size: 1}, true},
		{"confirm no size", Message{Type: TypeConfirm, PID: 1}, false},
		{"free ok", Message{Type: TypeFree, PID: 1}, true},
		{"free no pid", Message{Type: TypeFree}, false},
		{"procexit ok", Message{Type: TypeProcExit, PID: 9}, true},
		{"procexit no pid", Message{Type: TypeProcExit}, false},
		{"close ok", Message{Type: TypeClose, Container: "c"}, true},
		{"close no container", Message{Type: TypeClose}, false},
		{"meminfo ok", Message{Type: TypeMemInfo}, true},
		{"response ok", Message{Type: TypeResponse}, true},
		{"empty type", Message{}, false},
		{"unknown type", Message{Type: "bogus"}, false},
	}
	for _, c := range cases {
		err := c.m.Validate()
		if (err == nil) != c.ok {
			t.Errorf("%s: Validate() err = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestResponseHelpers(t *testing.T) {
	req := &Message{Type: TypeAlloc, Seq: 99, PID: 1, Size: 10}
	r := Response(req)
	if r.Type != TypeResponse || r.Seq != 99 || !r.OK {
		t.Fatalf("Response(req) = %+v", r)
	}
	e := ErrorResponse(req, "bad %s %d", "thing", 7)
	if e.Type != TypeResponse || e.Seq != 99 || e.OK || e.Error != "bad thing 7" {
		t.Fatalf("ErrorResponse(req) = %+v", e)
	}
}

// TestHeldReturnsEachRefusalOnce: refusals added from many goroutines are
// all returned, joined, by one Take, and none by the next.
func TestHeldReturnsEachRefusalOnce(t *testing.T) {
	var h Held
	if h.Any() || h.Take() != nil {
		t.Fatal("the zero Held holds a refusal")
	}
	rs := make([]*Refusal, 8)
	var wg sync.WaitGroup
	for i := range rs {
		rs[i] = &Refusal{Text: "confirm refused"}
		wg.Add(1)
		go func() { defer wg.Done(); h.Add(rs[i]) }()
	}
	wg.Wait()
	if !h.Any() {
		t.Fatal("Any after Add = false")
	}
	err := h.Take()
	for i, r := range rs {
		if !errors.Is(err, r) {
			t.Errorf("refusal %d missing from %v", i, err)
		}
	}
	if h.Any() || h.Take() != nil {
		t.Fatal("a second Take returned the refusals again")
	}
}

func TestSizeAccessors(t *testing.T) {
	m := &Message{Size: int64(3 * bytesize.MiB), Limit: int64(bytesize.GiB)}
	if m.SizeBytes() != 3*bytesize.MiB {
		t.Errorf("SizeBytes = %v", m.SizeBytes())
	}
	if m.LimitBytes() != bytesize.GiB {
		t.Errorf("LimitBytes = %v", m.LimitBytes())
	}
}

// Property: every structurally valid alloc message survives an
// encode/decode round trip bit-exactly.
func TestAllocRoundTripProperty(t *testing.T) {
	f := func(seq uint64, pid uint16, size uint32, addr uint64, api string) bool {
		m := &Message{
			Type: TypeAlloc,
			Seq:  seq,
			PID:  int(pid) + 1,
			Size: int64(size) + 1,
			Addr: addr,
			API:  api,
		}
		b, err := Encode(m)
		if err != nil {
			// Only non-UTF8 API strings may fail to marshal; treat as pass
			// when the input string is invalid UTF-8.
			return true
		}
		got, err := Decode(b)
		if err != nil {
			return false
		}
		// JSON round-trips invalid UTF-8 lossily; compare the numeric
		// fields which are the protocol-critical part.
		return got.Seq == m.Seq && got.PID == m.PID && got.Size == m.Size && got.Addr == m.Addr
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
