package ipc

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"syscall"
	"testing"
	"time"

	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// readReplies reads n frames off conn, decoded, in the order they came.
func readReplies(t *testing.T, conn net.Conn, n int) []*protocol.Message {
	t.Helper()
	_ = conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	s := splitter{buf: make([]byte, readBufSize)}
	var out []*protocol.Message
	for len(out) < n {
		f, ok, err := s.next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			if err := s.fill(conn); err != nil {
				t.Fatalf("after %d of %d replies: %v", len(out), n, err)
			}
			continue
		}
		m := new(protocol.Message)
		if err := f.decodeInto(m); err != nil {
			t.Fatal(err)
		}
		out = append(out, m)
	}
	return out
}

// TestHeldFDBurstToASlowPeer: the replies to one read's frames are written
// on the read callback's fd in one batch. A batch larger than the socket's
// send buffer, to a peer that does not read yet, is cut short there; the
// rest leaves through the conn, which waits for room, and the peer gets
// every reply whole and in order.
func TestHeldFDBurstToASlowPeer(t *testing.T) {
	leak.Check(t)
	const n, size = 128, 32 << 10 // 4 MiB of replies to one read: far past any send buffer
	srv, err := Listen(sockPath(t), handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		respond(&protocol.Message{OK: true, Data: strings.Repeat(string(rune('a'+m.Seq%26)), size)})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	var out []byte
	for seq := uint64(1); seq <= n; seq++ {
		out, _ = protocol.AppendEncodeBinary(out, &protocol.Message{Type: protocol.TypeMemInfo, Seq: seq})
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the send buffer fills while nobody reads
	for i, m := range readReplies(t, conn, n) {
		seq := uint64(i + 1)
		if m.Seq != seq || !m.OK || m.Data != strings.Repeat(string(rune('a'+seq%26)), size) {
			t.Fatalf("reply %d: seq %d ok %v, %d bytes of data", i, m.Seq, m.OK, len(m.Data))
		}
	}
}

// TestParkedReplyDuringTheReadCallback: a parked reply dispatched from
// another goroutine while the read loop is inside its callback joins the
// batch there, and leaves ahead of the reply the callback is writing.
func TestParkedReplyDuringTheReadCallback(t *testing.T) {
	leak.Check(t)
	parked := make(chan func(*protocol.Message), 1)
	srv, err := Listen(sockPath(t), handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		if m.Type == protocol.TypeAlloc {
			parked <- respond
			return
		}
		done := make(chan struct{})
		go func() { // the dispatch of another container's release
			(<-parked)(&protocol.Message{OK: true, Decision: protocol.DecisionAccept})
			close(done)
		}()
		<-done
		respond(&protocol.Message{OK: true})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	for seq, typ := range []protocol.Type{protocol.TypeAlloc, protocol.TypeMemInfo} {
		out, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: typ, Seq: uint64(seq + 1), PID: 1, Size: 1})
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		if seq == 0 {
			for len(parked) == 0 {
				time.Sleep(time.Millisecond)
			}
		}
	}
	got := readReplies(t, conn, 2)
	if got[0].Seq != 1 || got[0].Decision != protocol.DecisionAccept || got[1].Seq != 2 || !got[1].OK {
		t.Fatalf("replies %+v, %+v: want the parked alloc's, then the meminfo's", got[0], got[1])
	}
}

// TestHeldFDWriteToAClosedPeer: a write on the held fd to a peer that has
// closed fails with EPIPE or ECONNRESET, which closedErr folds into
// ErrClosed, and the process lives on (SIGPIPE is not fatal to it): a
// Call whose staged frame meets the dead peer fails with ErrClosed, and a
// server whose peer left before its reply ends the connection.
func TestHeldFDWriteToAClosedPeer(t *testing.T) {
	leak.Check(t)
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(fds[0])
	syscall.Close(fds[1])
	w := newCoalescer(nil, nil)
	werr := w.send(fds[0], []byte("frame"))
	if !errors.Is(werr, syscall.EPIPE) && !errors.Is(werr, syscall.ECONNRESET) || !errors.Is(closedErr(werr), ErrClosed) {
		t.Fatalf("write to a closed peer: %v (folded: %v)", werr, closedErr(werr))
	}

	ln, err := net.Listen("unix", sockPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		if c, err := ln.Accept(); err == nil {
			c.Close()
		}
	}()
	cli, err := Dial(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call to a closed peer: %v, want ErrClosed", err)
	}

	release, closed := make(chan struct{}), make(chan struct{})
	srv, err := Listen(sockPath(t), closeNotifier{handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		<-release
		respond(&protocol.Message{OK: true})
	}}, closed})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	out, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeMemInfo, Seq: 1})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	time.Sleep(10 * time.Millisecond) // the handler holds the frame
	conn.Close()
	close(release)
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the server kept a connection whose peer left before the reply")
	}
	if _, err := os.Stat(srv.Addr()); err != nil { // still serving
		t.Fatal(err)
	}
}

// closeNotifier is a Handler whose Closed closes a channel.
type closeNotifier struct {
	handlerFunc
	closed chan struct{}
}

func (h closeNotifier) Closed(*ServerConn) { close(h.closed) }
