package ipc

import (
	"bytes"
	"fmt"
	"net"
	"strings"
	"testing"

	"convgpu/internal/protocol"
)

// plainFill makes the helpers below hand out connections whose
// SyscallConn is hidden, so that both ends fill their buffers with
// conn.Read, as over TCP or a fault.Tap. bothFills runs a test each way.
var plainFill bool

// plainConn hides a connection's SyscallConn.
type plainConn struct{ net.Conn }

type plainListener struct{ net.Listener }

func (l plainListener) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return plainConn{c}, nil
}

func bothFills(t *testing.T, test func(*testing.T)) {
	for _, plain := range []bool{false, true} {
		t.Run(map[bool]string{false: "rawconn", true: "read"}[plain], func(t *testing.T) {
			plainFill = plain
			defer func() { plainFill = false }()
			test(t)
		})
	}
}

// wrapFill is c, or c hiding its SyscallConn while plainFill is set.
func wrapFill(c net.Conn) net.Conn {
	if plainFill {
		return plainConn{c}
	}
	return c
}

// listenFill is Listen, its connections wrapped by wrapFill.
func listenFill(path string, h Handler) (*Server, error) {
	ln, err := net.Listen("unix", path)
	if err != nil {
		return nil, err
	}
	return serveFill(ln, h), nil
}

// serveFill is NewServer, its connections wrapped by wrapFill.
func serveFill(ln net.Listener, h Handler) *Server {
	if plainFill {
		ln = plainListener{ln}
	}
	return NewServer(ln, h)
}

// dialConnFill dials a UNIX socket and wraps the connection by wrapFill.
func dialConnFill(path string) (net.Conn, error) {
	c, err := net.Dial("unix", path)
	if err != nil {
		return nil, err
	}
	return wrapFill(c), nil
}

// dialFill is Dial over dialConnFill.
func dialFill(path string) (*Client, error) {
	c, err := dialConnFill(path)
	if err != nil {
		return nil, err
	}
	return NewClient(c), nil
}

// nextFrame reads conn into s until s holds a whole frame, and cuts it:
// how a peer written by hand in a test reads what a client sends.
func nextFrame(conn net.Conn, s *splitter) (frame, error) {
	for {
		if f, ok, err := s.next(); ok || err != nil {
			return f, err
		}
		if err := s.fill(conn); err != nil {
			return frame{}, err
		}
	}
}

// cutAll feeds stream to a splitter in chunks no longer than the sizes
// cuts names in turn (cycling; none means as much as fits) and describes
// every frame cut, the error that stopped it, or the part of a frame
// left at the end of the stream.
func cutAll(stream []byte, cuts []byte) []string {
	s := splitter{buf: make([]byte, readBufSize)}
	var out []string
	for i := 0; ; i++ {
		f, ok, err := s.next()
		switch {
		case err != nil:
			return append(out, "error: "+err.Error())
		case ok && f.binary:
			out = append(out, fmt.Sprintf("binary op=%d seq=%d %q", f.op, f.seq, f.body))
			continue
		case ok:
			out = append(out, fmt.Sprintf("line %q", f.body))
			continue
		case len(stream) == 0:
			if s.r < s.w {
				out = append(out, fmt.Sprintf("partial %q", s.buf[s.r:s.w]))
			}
			return out
		}
		p := s.space()
		if len(cuts) > 0 {
			p = p[:min(len(p), int(cuts[i%len(cuts)])+1)]
		}
		n := copy(p, stream)
		s.w += n
		stream = stream[n:]
	}
}

// FuzzFrameSplit: however the fills cut a stream of binary frames and
// JSON lines, the splitter cuts the same frames from it, and stops at the
// same error, as when the stream comes in as few fills as the buffer
// allows.
func FuzzFrameSplit(f *testing.F) {
	var seed []byte
	for i, m := range []*protocol.Message{
		{Type: protocol.TypeAlloc, Seq: 1, PID: 7, Size: 4096, API: "cudaMalloc"},
		{Type: protocol.TypeConfirm, Seq: 2, PID: 7, Size: 4096, Addr: 1 << 20, NoReply: true},
		{Type: protocol.TypeResponse, Seq: 3, OK: true, Decision: protocol.DecisionAccept},
	} {
		bin, _ := protocol.AppendEncodeBinary(nil, m)
		seed = append(append(seed, bin...), protocol.AppendEncode(nil, m)...)
		f.Add(seed, []byte{byte(i), 12, 0, 200})
	}
	f.Add(append(seed, bytes.Repeat([]byte{'a'}, MaxLine+2)...), []byte{255})
	corrupt := append([]byte(nil), seed...)
	corrupt[0] ^= 0x20 // a binary header that fails its checksum
	f.Add(corrupt, []byte{3})
	f.Add(seed[:len(seed)-1], []byte{})
	f.Fuzz(func(t *testing.T, stream, cuts []byte) {
		whole, cut := cutAll(stream, nil), cutAll(stream, cuts)
		if fmt.Sprint(whole) != fmt.Sprint(cut) {
			t.Fatalf("cut at %v:\n%q\nwhole:\n%q", cuts, cut, whole)
		}
	})
}

// TestSplitterBounds pins the framing bounds the splitter took over from
// the bufio reader: a line may be MaxLine bytes and no more, a binary
// frame may carry the largest payload, and a stream that stops inside a
// frame leaves it partial.
func TestSplitterBounds(t *testing.T) {
	line := append(bytes.Repeat([]byte{'a'}, MaxLine), '\n')
	if got := cutAll(line, nil); len(got) != 1 || got[0] != fmt.Sprintf("line %q", line[:MaxLine]) {
		t.Errorf("a MaxLine line: %.80q", got)
	}
	long := append(bytes.Repeat([]byte{'a'}, MaxLine+1), '\n')
	if got := cutAll(long, nil); len(got) != 1 || got[0] != fmt.Sprintf("error: ipc: message exceeds %d bytes", MaxLine) {
		t.Errorf("a line over MaxLine: %.80q", got)
	}
	big, ok := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeResponse, Seq: 9, Error: string(bytes.Repeat([]byte{'e'}, protocol.MaxBinaryPayload-8))})
	if !ok || len(big) < maxFrame-16 {
		t.Fatalf("sample frame: ok=%v, %d bytes", ok, len(big))
	}
	if got := cutAll(big, []byte{255}); len(got) != 1 || !strings.HasPrefix(got[0], "binary op=") {
		t.Errorf("a binary frame near the payload bound: %.80q", got)
	}
	if got := cutAll(big[:len(big)-1], nil); len(got) != 1 || !strings.HasPrefix(got[0], "partial") {
		t.Errorf("a stream that stops inside a frame: %.80q", got)
	}
}
