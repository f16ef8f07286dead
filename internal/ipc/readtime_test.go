package ipc

import (
	"bufio"
	"context"
	"errors"
	"net"
	"os"
	"sync"
	"syscall"
	"testing"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/protocol"
)

// stampHandler answers at once and keeps the ReadTime each request saw.
type stampHandler struct {
	mu    sync.Mutex
	times []time.Time
}

func (h *stampHandler) Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	h.mu.Lock()
	h.times = append(h.times, conn.ReadTime())
	h.mu.Unlock()
	respond(&protocol.Message{OK: true})
}

func (h *stampHandler) Closed(*ServerConn) {}

func (h *stampHandler) take() []time.Time {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := h.times
	h.times = nil
	return out
}

type nopLatency struct{}

func (nopLatency) Observe(time.Duration) {}

// TestReadTimeIsTheReadsStamp pins the stamping rule the daemon's core
// events rely on: every frame of one read sees one ReadTime, a clock.Real
// reading taken when the read began; the next read's is later; and with
// no handler-latency sink no clock is read and ReadTime is zero.
func TestReadTimeIsTheReadsStamp(t *testing.T) {
	if got := (*ServerConn)(nil).ReadTime(); !got.IsZero() {
		t.Fatalf("nil conn ReadTime = %v, want zero", got)
	}
	for _, timed := range []bool{true, false} {
		h := &stampHandler{}
		srv, err := Listen(sockPath(t), h)
		if err != nil {
			t.Fatal(err)
		}
		if timed {
			srv.SetHandlerLatency(nopLatency{})
		}
		conn, err := net.Dial("unix", srv.Addr())
		if err != nil {
			t.Fatal(err)
		}
		replies := bufio.NewReader(conn)
		// Three requests in one write arrive in one read: a UNIX socket
		// queues a write whole.
		burst := func(first uint64) {
			t.Helper()
			var b []byte
			for seq := first; seq < first+3; seq++ {
				b = protocol.AppendEncode(b, &protocol.Message{Type: protocol.TypeMemInfo, Seq: seq})
			}
			if _, err := conn.Write(b); err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if _, err := replies.ReadBytes('\n'); err != nil {
					t.Fatal(err)
				}
			}
		}
		before := clock.Real{}.Now()
		burst(1)
		mid := clock.Real{}.Now()
		first := h.take()
		burst(4)
		second := h.take()
		if !timed {
			for _, at := range append(first, second...) {
				if !at.IsZero() {
					t.Errorf("ReadTime = %v with no latency sink, want zero", at)
				}
			}
		} else {
			for i, at := range first {
				if !at.Equal(first[0]) || at.Before(before) || at.After(mid) {
					t.Errorf("first read, frame %d: ReadTime %v, want %v within [%v, %v]", i, at, first[0], before, mid)
				}
			}
			for i, at := range second {
				if !at.Equal(second[0]) || !at.After(first[0]) {
					t.Errorf("second read, frame %d: ReadTime %v, want %v after %v", i, at, second[0], first[0])
				}
			}
		}
		conn.Close()
		srv.Close()
	}
}

// TestAcceptSurvivesFDExhaustion: a server whose accept fails with EMFILE
// backs off and tries again instead of ending its accept loop for good.
// The test lowers its own process's soft RLIMIT_NOFILE to the descriptors
// open before the listener plus 16 — an odd number are left once the
// listener has its own, so when the table fills a dialed connection is
// waiting that the server cannot accept — dials 20 times, closes what it
// got once the server has failed an accept, and then a fresh client's
// deadline-bounded Call must be answered.
func TestAcceptSurvivesFDExhaustion(t *testing.T) {
	fds, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Skipf("cannot count open descriptors: %v", err)
	}
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_NOFILE, &lim); err != nil {
		t.Skip(err)
	}
	path := sockPath(t)
	srv, err := Listen(path, &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	stats := &WireStats{}
	srv.SetWireStats(stats)

	low := lim
	low.Cur = uint64(len(fds) - 1 + 16) // ReadDir's own descriptor is closed again
	if err := syscall.Setrlimit(syscall.RLIMIT_NOFILE, &low); err != nil {
		t.Skip(err)
	}
	t.Cleanup(func() { _ = syscall.Setrlimit(syscall.RLIMIT_NOFILE, &lim) })
	var conns []net.Conn
	exhausted := false
	dial := func() {
		c, err := net.Dial("unix", path)
		if err == nil {
			conns = append(conns, c)
		}
		exhausted = exhausted || errors.Is(err, syscall.EMFILE)
	}
	for i := 0; i < 20; i++ {
		dial()
	}
	if !exhausted {
		t.Fatalf("20 dials under a limit of %d descriptors never ran out", low.Cur)
	}
	// A descriptor closed meanwhile elsewhere in the process leaves a slot
	// the server may fill with the waiting connection: dial into it again.
	for deadline := time.Now().Add(10 * time.Second); stats.AcceptBackoffs() == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the server never failed an accept with the descriptors gone")
		}
		dial()
	}
	for _, c := range conns {
		c.Close()
	}

	cli, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 7})
	if err != nil || !resp.OK || resp.Free != 7 {
		t.Fatalf("call after the descriptors ran out: %+v %v", resp, err)
	}
}

// TestCloseEndsAnAcceptBackoff: Close does not wait out the back-off of a
// server whose accept keeps failing.
func TestCloseEndsAnAcceptBackoff(t *testing.T) {
	srv := NewServer(failingListener{}, &echoHandler{})
	stats := &WireStats{}
	srv.SetWireStats(stats)
	for deadline := time.Now().Add(10 * time.Second); stats.AcceptBackoffs() < 8; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d back-offs in 10s", stats.AcceptBackoffs())
		}
	}
	// Eight back-offs in, the loop waits 640 ms, then 1 s for each next one.
	start := time.Now()
	srv.Close()
	if d := time.Since(start); d > 500*time.Millisecond {
		t.Errorf("Close took %v: it waited out the back-off", d)
	}
}

// failingListener's Accept always fails as a process out of descriptors does.
type failingListener struct{}

func (failingListener) Accept() (net.Conn, error) {
	return nil, &net.OpError{Op: "accept", Net: "unix", Err: os.NewSyscallError("accept4", syscall.EMFILE)}
}
func (failingListener) Close() error   { return nil }
func (failingListener) Addr() net.Addr { return &net.UnixAddr{Name: "failing", Net: "unix"} }
