package protocol

import (
	"bytes"
	"reflect"
	"testing"
)

// fuzzSeedLines are wire frames the codec is known to handle — taken
// from the deterministic codec tests plus real daemon traffic shapes —
// so the fuzzer starts from inputs that reach Validate instead of
// bouncing off the '{' check.
var fuzzSeedLines = []string{
	`{"type":"alloc","seq":7,"pid":41,"size":4194304,"api":"cudaMalloc"}`,
	`{"type":"register","seq":1,"container":"c1","limit":536870912}`,
	`{"type":"response","seq":7,"ok":true,"decision":"accept"}`,
	`{"type":"response","seq":9,"error":"a \"quoted\" \\ path\nline"}`,
	`{"type":"response","seq":1,"error":"Aé☃"}`,
	`{"type":"response","seq":1,"error":"😀"}`,
	"  {  \"type\" : \"meminfo\" , \"seq\" : 3 }  ",
	`{"type":"close","container":"c","future_field":"ignored","seq":9}`,
	`{"type":"close","container":"c","n":null,"b":false,"x":3.25}`,
	`{"type":"free","pid":1,"size":-12}`,
	`{"type":"confirm","seq":2,"pid":1,"addr":18446744073709551615,"size":1}`,
	`{"type":"restore","pid":1,"addr":160,"size":104857600}`,
	`{"type":"heartbeat","seq":12,"pid":2}`,
	`{"type":"stats","seq":3}`,
	`{"type":"close","container":"c","extra":{"nested":1}}`,
	`{"type":"meminfo","seq":1e2}`,
	`{"seq":}`,
	`{"type":"close","container":"c","seq":18446744073709551616}`,
	"",
	"{",
	"null",
}

// jsonView is m as a JSON round trip returns it: encoding/json replaces
// each byte of invalid UTF-8 in a string with U+FFFD, on either side,
// and the one-way marker has no JSON form.
func jsonView(m *Message) *Message {
	v := *m
	v.NoReply = false
	v.Type, v.Decision = Type([]rune(v.Type)), Decision([]rune(v.Decision))
	for _, s := range []*string{&v.Container, &v.API, &v.Tenant, &v.Error, &v.Code, &v.SocketDir, &v.Data} {
		*s = string([]rune(*s))
	}
	return &v
}

// FuzzDecode throws arbitrary bytes at the pooled decoder. It must
// never panic, and anything it accepts must survive a re-encode /
// re-decode cycle value-for-value: the encoder and the decoder are a
// closed loop over every message the decoder lets through.
func FuzzDecode(f *testing.F) {
	for _, s := range fuzzSeedLines {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		m, err := Decode(data)
		if err != nil {
			return
		}
		line := AppendEncode(nil, m)
		if len(line) == 0 || line[len(line)-1] != '\n' || bytes.ContainsRune(line[:len(line)-1], '\n') {
			t.Fatalf("bad framing for re-encoded %+v: %q", m, line)
		}
		m2, err := Decode(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatalf("re-decode of own encoding failed: %v (%q)", err, line)
		}
		if !reflect.DeepEqual(m, m2) {
			t.Fatalf("decode/encode/decode not stable:\n in %+v\nout %+v\nline %q", m, m2, line)
		}
	})
}

// FuzzEncodeDecodeRoundTrip drives the encoder with arbitrary field
// values. Valid messages must round-trip through AppendEncode
// (exactly, up to jsonView); messages failing Validate must be rejected
// on decode too — the two ends of the socket apply the same rules.
func FuzzEncodeDecodeRoundTrip(f *testing.F) {
	f.Add("alloc", uint64(7), int64(41), int64(4<<20), int64(0), uint64(0), "", "cudaMalloc", "", true, "accept")
	f.Add("register", uint64(1), int64(1), int64(0), int64(512<<20), uint64(0), "c1", "", "", false, "")
	f.Add("response", uint64(9), int64(0), int64(0), int64(0), uint64(0), "", "", "a \"quoted\" \\ path\nline", false, "reject")
	f.Add("confirm", uint64(2), int64(1), int64(1), int64(0), uint64(1)<<63, "", "", "", false, "")
	f.Add("bogus", uint64(0), int64(-1), int64(-1), int64(-1), uint64(0), "\x00", "\xff\xfe", "é☃😀", true, "suspend")
	f.Fuzz(func(t *testing.T, typ string, seq uint64, pid, size, limit int64, addr uint64,
		container, api, errText string, ok bool, decision string) {
		in := AcquireMessage()
		defer ReleaseMessage(in)
		in.Type = Type(typ)
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

		line := AppendEncode(nil, in)
		if len(line) == 0 || line[len(line)-1] != '\n' || bytes.ContainsRune(line[:len(line)-1], '\n') {
			t.Fatalf("bad framing: %q", line)
		}

		out := AcquireMessage()
		defer ReleaseMessage(out)
		err := DecodeInto(out, bytes.TrimSuffix(line, []byte("\n")))
		if verr := in.Validate(); verr != nil {
			if err == nil {
				t.Fatalf("decoder accepted a message the validator rejects (%v): %+v", verr, in)
			}
			return
		}
		if err != nil {
			t.Fatalf("round trip failed: %v (%q)", err, line)
		}
		if want := jsonView(in); !reflect.DeepEqual(want, out) {
			t.Fatalf("round trip changed the message:\n in %+v\nout %+v\nline %q", want, out, line)
		}
	})
}
