package ipc

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"os"
	"syscall"
	"unsafe"

	"convgpu/internal/protocol"
)

// frame is one received message in either framing, pre-parsed just far
// enough to decode it and to echo its seq on failure.
type frame struct {
	binary bool
	op     byte // binary header fields when binary
	seq    uint64
	body   []byte // the JSON line, or the binary payload
}

func (f *frame) decodeInto(m *protocol.Message) error {
	if f.binary {
		return protocol.DecodeBinaryInto(m, f.op, f.seq, f.body)
	}
	return protocol.DecodeInto(m, f.body)
}

// errorSeq is the seq to echo on a response to an undecodable frame: the
// checked binary header's, or a best-effort scan of the JSON line.
func (f *frame) errorSeq() uint64 {
	if f.binary {
		return f.seq
	}
	return protocol.ScanSeq(f.body)
}

// maxFrame is the longest frame (a MaxLine line and its newline is shorter).
const maxFrame = protocol.BinaryHeaderSize + protocol.MaxBinaryPayload

// splitter cuts frames of either framing out of the one buffer an end
// fills from its socket: buf[r:w] is read and not cut yet. Where the
// fills cut the stream changes nothing (FuzzFrameSplit).
type splitter struct {
	buf  []byte
	r, w int
}

// next cuts the next whole frame (aliasing the buffer until the next
// fill), or reports !ok while the buffer holds part of one. A first byte
// >= 0x80 starts a binary frame, its header checksummed, anything else a
// JSON line. An error (a line over MaxLine, a bad header) condemns the stream.
func (s *splitter) next() (f frame, ok bool, err error) {
	p := s.buf[s.r:s.w]
	switch {
	case len(p) == 0:
		return frame{}, false, nil
	case p[0] < 0x80:
		i := bytes.IndexByte(p[:min(len(p), MaxLine+1)], '\n')
		if i < 0 && len(p) > MaxLine {
			return frame{}, false, fmt.Errorf("ipc: message exceeds %d bytes", MaxLine)
		} else if i < 0 {
			return frame{}, false, nil
		}
		s.r += i + 1
		return frame{body: p[:i]}, true, nil
	case len(p) < protocol.BinaryHeaderSize:
		return frame{}, false, nil
	}
	op, n, seq, err := protocol.ParseBinaryHeader(p)
	if err != nil || len(p) < protocol.BinaryHeaderSize+n {
		return frame{}, false, err
	}
	s.r += protocol.BinaryHeaderSize + n
	return frame{binary: true, op: op, seq: seq, body: p[protocol.BinaryHeaderSize : protocol.BinaryHeaderSize+n]}, true, nil
}

// space returns the buffer's free tail for a fill, moving what is not cut
// yet to the front first and growing the buffer when part of one frame
// fills it.
func (s *splitter) space() []byte {
	if s.r > 0 {
		s.w = copy(s.buf, s.buf[s.r:s.w])
		s.r = 0
	}
	if s.w == len(s.buf) {
		s.buf = append(s.buf, make([]byte, min(len(s.buf), maxFrame-len(s.buf)))...)
	}
	return s.buf[s.w:]
}

// fill is one conn.Read into the buffer. Data comes first: an error that
// came with it is the next fill's.
func (s *splitter) fill(conn io.Reader) error {
	p := s.space()
	n, err := conn.Read(p)
	if s.w += n; n > 0 {
		raceRead(p[:n]) // the peer may have written with rawIO
		return nil
	}
	return err
}

// readFD is one read(2) into the buffer, for a RawConn.Read callback: EAGAIN
// comes back as is, the stream's end as io.EOF. short is a read that took
// less than it asked for: on a UNIX stream socket, one that emptied the queue.
func (s *splitter) readFD(fd uintptr) (short bool, err error) {
	p := s.space()
	n, err := rawIO(syscall.SYS_READ, int(fd), p)
	if err == nil {
		raceRead(p[:n])
		if n == 0 {
			err = io.EOF
		}
	} else if err != syscall.EAGAIN {
		err = os.NewSyscallError("read", err)
	}
	s.w += n
	return err == nil && n < len(p), err
}

// rawIO is one read(2) or write(2) (trap) of p on fd, retried on EINTR,
// without the runtime's syscall bookkeeping. Only a RawConn.Read callback
// passes an fd: a poller's, opened O_NONBLOCK, so the call returns at once,
// and held open until the callback returns (DESIGN §7). An error reads 0.
func rawIO(trap uintptr, fd int, p []byte) (int, error) {
	for {
		n, _, e := syscall.RawSyscall(trap, uintptr(fd), uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)))
		if e == 0 {
			return int(n), nil
		} else if e != syscall.EINTR {
			return 0, e
		}
	}
}

// rawConn is conn's RawConn when conn is a UNIX stream socket, the one
// transport whose short reads prove its receive queue empty. Anything else
// (TCP, a fault.Tap, net.Pipe) gets nil and is filled by conn.Read.
func rawConn(conn net.Conn) syscall.RawConn {
	if uc, ok := conn.(*net.UnixConn); ok {
		if a, _ := uc.LocalAddr().(*net.UnixAddr); a != nil && a.Net == "unix" {
			raw, _ := uc.SyscallConn() // nil with the error
			return raw
		}
	}
	return nil
}
