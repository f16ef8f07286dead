package protocol

import (
	"bytes"
	"fmt"
	"reflect"
	"sync"
	"testing"
)

func TestDecodeEscapesAndOddShapes(t *testing.T) {
	cases := []struct {
		in   string
		want Message
	}{
		{`{"type":"response","seq":7,"error":"a \"quoted\" \\ path\nline"}`,
			Message{Type: TypeResponse, Seq: 7, Error: "a \"quoted\" \\ path\nline"}},
		{`{"type":"response","seq":1,"error":"Aé☃"}`,
			Message{Type: TypeResponse, Seq: 1, Error: "Aé☃"}},
		{`{"type":"response","seq":1,"error":"😀"}`,
			Message{Type: TypeResponse, Seq: 1, Error: "😀"}},
		{"  {  \"type\" : \"meminfo\" , \"seq\" : 3 }  ",
			Message{Type: TypeMemInfo, Seq: 3}},
		{`{"type":"close","container":"c","future_field":"ignored","seq":9}`,
			Message{Type: TypeClose, Seq: 9, Container: "c"}},
		{`{"type":"close","container":"c","n":null,"b":false,"x":3.25}`,
			Message{Type: TypeClose, Container: "c"}},
		{`{"type":"free","pid":1,"size":-12}`,
			Message{Type: TypeFree, PID: 1, Size: -12}},
		{`{"type":"confirm","seq":2,"pid":1,"addr":18446744073709551615,"size":1}`,
			Message{Type: TypeConfirm, Seq: 2, PID: 1, Addr: 1<<64 - 1, Size: 1}},
		{`{"type":"alloc","seq":7,"pid":41,"size":4194304,"api":"cudaMalloc","x":[{"y":null}]}`,
			Message{Type: TypeAlloc, Seq: 7, PID: 41, Size: 4194304, API: "cudaMalloc"}},
	}
	for _, c := range cases {
		got, err := Decode([]byte(c.in))
		if err != nil {
			t.Errorf("Decode(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, &c.want) {
			t.Errorf("Decode(%q)\n got %+v\nwant %+v", c.in, got, &c.want)
		}
	}
}

// TestDecodeShapesOutsideTheMessage: values this protocol never emits
// are accepted where JSON allows them under an unknown key, and rejected
// where they cannot fill the field they name.
func TestDecodeShapesOutsideTheMessage(t *testing.T) {
	accept := []string{
		`{"type":"close","container":"c","extra":{"nested":1}}`, // nested unknown value
		`{"type":"close","container":"c","extra":[1,2]}`,        // array unknown value
	}
	for _, in := range accept {
		if _, err := Decode([]byte(in)); err != nil {
			t.Errorf("Decode(%q): %v", in, err)
		}
	}
	reject := []string{
		"", "{", "null", `"str"`, `{"seq":}`, `{"type":"close","container":"c"} trailing`,
		`{"type":"meminfo","seq":1e2}`,                                // exponent into uint64
		`{"type":"close","container":"c","seq":18446744073709551616}`, // uint64 overflow
		`{"type":"close","container":"c","pid":9223372036854775808}`,  // int64 overflow
	}
	for _, in := range reject {
		if m, err := Decode([]byte(in)); err == nil {
			t.Errorf("Decode(%q) = %+v, want error", in, m)
		}
	}
}

// TestScanSeq: lines that fail to decode still give up their seq, which
// is what lets the transport answer them with a correlated error.
func TestScanSeq(t *testing.T) {
	cases := []struct {
		in   string
		want uint64
	}{
		{`{"type":"bogus","seq":42}`, 42},
		{`{"type":"alloc","seq":6,"pid":"x"}`, 6},
		{`{"type":"close","container":"c","seq":18446744073709551616}`, 0},
		{`{"seq": 7 ,"type":`, 7}, // truncated line: seq still recoverable
		{`{"type":"alloc","seq":0}`, 0},
		{`not json at all`, 0},
		{`{"sequence":9}`, 0},
		{`{"seq":"nan"}`, 0},
		{`{  "seq"  :  314  }`, 314},
	}
	for _, c := range cases {
		if m, err := Decode([]byte(c.in)); err == nil {
			t.Errorf("Decode(%q) = %+v, want error", c.in, m)
		}
		if got := ScanSeq([]byte(c.in)); got != c.want {
			t.Errorf("ScanSeq(%q) = %d, want %d", c.in, got, c.want)
		}
	}
}

// TestAppendEncodeKeepsWhatIsThere: both encoders append behind the
// frames already in the buffer — the transport encodes each frame
// straight into its connection's write buffer, behind frames still
// waiting there — and leave those bytes alone, refused or not.
func TestAppendEncodeKeepsWhatIsThere(t *testing.T) {
	waiting := AppendEncode(nil, &Message{Type: TypeConfirm, Seq: 1, PID: 1, Size: 64, Addr: 4})
	buf := append([]byte(nil), waiting...)
	buf = AppendEncode(buf, &Message{Type: TypeMemInfo, Seq: 2})
	buf, ok := AppendEncodeBinary(buf, &Message{Type: TypeAlloc, Seq: 3, PID: 1, Size: 64})
	if !ok {
		t.Fatal("an alloc has no binary frame")
	}
	if !bytes.HasPrefix(buf, waiting) {
		t.Fatalf("the waiting frame was overwritten: %q", buf)
	}
	line := buf[len(waiting):]
	i := bytes.IndexByte(line, '\n')
	if m, err := Decode(line[:i]); err != nil || m.Type != TypeMemInfo || m.Seq != 2 {
		t.Fatalf("second frame decodes to %+v, %v", m, err)
	}
	if got, ok := AppendEncodeBinary(buf, &Message{Type: "bogus"}); ok || !bytes.Equal(got, buf) {
		t.Fatalf("a message without a binary frame changed the buffer: ok=%v", ok)
	}
}

// TestPooledCodecConcurrency is the codec's aliasing stress test: many
// goroutines encode and decode into pooled messages concurrently (run
// under -race). Each goroutine verifies its decoded message still
// matches its own input after a pool round trip — if a released message
// were still aliased by another goroutine, the race detector and the
// value checks would both trip.
func TestPooledCodecConcurrency(t *testing.T) {
	const goroutines = 16
	const iters = 2000
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			var buf []byte
			for i := 0; i < iters; i++ {
				in := AcquireMessage()
				in.Type = TypeAlloc
				in.Seq = uint64(g)<<32 | uint64(i)
				in.PID = g + 1
				in.Size = int64(i + 1)
				in.API = "cudaMalloc"

				buf = AppendEncode(buf[:0], in)

				out := AcquireMessage()
				if err := DecodeInto(out, bytes.TrimSuffix(buf, []byte("\n"))); err != nil {
					errs <- err
					return
				}
				if out.Seq != in.Seq || out.PID != in.PID || out.Size != in.Size || out.API != "cudaMalloc" {
					errs <- fmt.Errorf("goroutine %d iter %d: decoded %+v from %+v", g, i, out, in)
					return
				}
				ReleaseMessage(in)
				// Mutating out after releasing in must be safe: they are
				// distinct objects even when both came from the pool.
				out.Seq++
				ReleaseMessage(out)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func BenchmarkAppendEncode(b *testing.B) {
	m := &Message{Type: TypeAlloc, Seq: 123456, PID: 41, Size: 4 << 20, API: "cudaMalloc"}
	var buf []byte
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = AppendEncode(buf[:0], m)
	}
}

func BenchmarkDecodeIntoPooled(b *testing.B) {
	line := AppendEncode(nil, &Message{Type: TypeResponse, Seq: 123456, OK: true, Decision: DecisionAccept})
	m := AcquireMessage()
	defer ReleaseMessage(m)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := DecodeInto(m, line); err != nil {
			b.Fatal(err)
		}
	}
}
