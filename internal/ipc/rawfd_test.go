package ipc

import (
	"context"
	"syscall"
	"testing"
	"time"

	"convgpu/internal/protocol"
)

// nonBlocking checks the precondition rawIO rests on for the descriptor a
// RawConn.Read callback would hand it: O_NONBLOCK is set, so a raw read on
// an idle connection returns EAGAIN at once instead of holding its thread.
func nonBlocking(t *testing.T, what string, raw syscall.RawConn, idle bool) {
	t.Helper()
	if raw == nil {
		t.Fatalf("%s: no RawConn: its reads and writes would not be raw", what)
	}
	done := make(chan error, 1)
	go func() {
		done <- raw.Control(func(fd uintptr) {
			flags, _, e := syscall.Syscall(syscall.SYS_FCNTL, fd, syscall.F_GETFL, 0)
			if e != 0 {
				t.Errorf("%s: fcntl(F_GETFL): %v", what, e)
			} else if flags&syscall.O_NONBLOCK == 0 {
				t.Errorf("%s: fd %d flags %#x: not O_NONBLOCK", what, fd, flags)
			}
			if !idle {
				return
			}
			var buf [64]byte
			if n, err := rawIO(syscall.SYS_READ, int(fd), buf[:]); err != syscall.EAGAIN {
				t.Errorf("%s: a raw read on an idle connection: %d, %v; want EAGAIN", what, n, err)
			}
		})
	}()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("%s: Control: %v", what, err)
		}
	case <-time.After(10 * time.Second):
		t.Fatalf("%s: a raw read on an idle connection did not return", what)
	}
}

// TestHeldFDIsNonBlocking: every descriptor rawIO can be given — the
// server's accepted connection, a client's after DialNegotiated, and the
// client a Reconnector publishes after a redial — is one the poller opened
// O_NONBLOCK, and an idle one answers a raw read with EAGAIN at once.
func TestHeldFDIsNonBlocking(t *testing.T) {
	conns := make(chan *ServerConn, 4)
	srv, err := Listen(sockPath(t), handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		select {
		case conns <- c:
		default:
		}
		respond(&protocol.Message{OK: true})
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()

	cli, err := DialNegotiated(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.BinaryNegotiated() {
		t.Fatal("the codec offer was not taken")
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	nonBlocking(t, "client after DialNegotiated", cli.raw, true)
	// The server's end is read by its loop: only its flags are looked at.
	nonBlocking(t, "server connection", rawConn((<-conns).conn), false)

	r := NewReconnector(ReconnectConfig{Network: "unix", Addr: srv.Addr(), CallTimeout: 5 * time.Second})
	defer r.Close()
	first, err := r.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	first.Close()
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err == nil {
		t.Fatal("a Call on a closed connection succeeded")
	}
	again, err := r.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if again == first || r.Generation() != 2 {
		t.Fatalf("no redial: generation %d", r.Generation())
	}
	nonBlocking(t, "reconnector after a redial", again.raw, true)
}

// TestRaceEdgesThroughTheSocket: a plain variable written before a frame
// is sent and read after it arrives is ordered by the socket alone, in
// both directions. syscall.Read and syscall.Write tell the race detector
// so; rawIO does not, and race.go does it in their place. Under -race this
// test reports a data race if those annotations are missing.
func TestRaceEdgesThroughTheSocket(t *testing.T) {
	var toCaller, toHandler int // plain, not atomic: only the socket orders them
	seen := make(chan int, 1)
	srv, err := Listen(sockPath(t), handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		switch m.Type {
		case protocol.TypeMemInfo: // written, then replied to
			toCaller = int(m.Seq)
			respond(&protocol.Message{OK: true})
		case protocol.TypeFree: // posted after the caller wrote
			seen <- toHandler
		}
	}})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	cli, err := DialNegotiated(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.BinaryNegotiated() {
		t.Fatal("the codec offer was not taken")
	}
	for i := 1; i <= 50; i++ {
		m := &protocol.Message{Type: protocol.TypeMemInfo}
		resp, err := cli.Call(ctx, m)
		if err != nil {
			t.Fatal(err)
		}
		protocol.ReleaseMessage(resp)
		if toCaller != int(m.Seq) {
			t.Fatalf("call %d: the handler wrote %d before replying to seq %d", i, toCaller, m.Seq)
		}
		toHandler = i
		if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 4096}); err != nil {
			t.Fatal(err)
		}
		if got := <-seen; got != i {
			t.Fatalf("post %d: the handler read %d", i, got)
		}
	}
}
