package ipc

import (
	"context"
	"errors"
	"net"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"

	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

func waitClosed(t *testing.T, h *echoHandler) {
	t.Helper()
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if atomic.LoadInt32(&h.closed) > 0 {
			return
		}
		time.Sleep(5 * time.Millisecond)
	}
	t.Fatal("handler.Closed never fired")
}

// TestOversizedFrameKillsServerConn: a frame above MaxLine must end the
// connection cleanly — Closed fires, the socket actually closes (the
// peer sees EOF instead of hanging), and no goroutine is left behind.
func TestOversizedFrameKillsServerConn(t *testing.T) { bothFills(t, testOversizedFrameKillsServerConn) }

func testOversizedFrameKillsServerConn(t *testing.T) {
	leak.Check(t)
	h := &echoHandler{}
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	junk := make([]byte, MaxLine+4096)
	for i := range junk {
		junk[i] = 'a'
	}
	junk[len(junk)-1] = '\n'
	if _, err := conn.Write(junk); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, h)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server left the poisoned connection open")
	}
	conn.Close()
	srv.Close()
}

// TestTruncatedFrameServer: a connection dying mid-line must not wedge
// the server — Closed fires and nothing leaks.
func TestTruncatedFrameServer(t *testing.T) { bothFills(t, testTruncatedFrameServer) }

func testTruncatedFrameServer(t *testing.T) {
	leak.Check(t)
	h := &echoHandler{}
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Write([]byte(`{"t":"alloc","seq":1,`)); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	waitClosed(t, h)
	srv.Close()
}

// TestOversizedFrameKillsClient: the client read loop hitting an
// oversized frame must fail in-flight Calls and release the socket.
func TestOversizedFrameKillsClient(t *testing.T) { bothFills(t, testOversizedFrameKillsClient) }

func testOversizedFrameKillsClient(t *testing.T) {
	leak.Check(t)
	ln, err := net.Listen("unix", sockPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		junk := make([]byte, MaxLine+4096)
		for i := range junk {
			junk[i] = 'a'
		}
		junk[len(junk)-1] = '\n'
		c.Write(junk)
		served <- c
	}()

	cli, err := dialFill(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err == nil {
		t.Fatal("Call survived an oversized response frame")
	} else if errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call timed out instead of failing fast: %v", err)
	}
	srvConn := <-served
	srvConn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := srvConn.Read(make([]byte, 64)); !isConnDead(err) {
		// first read may still see the request line; the second must fail
		if _, err := srvConn.Read(make([]byte, 64)); !isConnDead(err) {
			t.Fatalf("client left its dead socket open: %v", err)
		}
	}
	srvConn.Close()
	cli.Close()
	ln.Close()
}

func isConnDead(err error) bool {
	return err != nil && !strings.Contains(err.Error(), "timeout")
}

// TestTruncatedFrameClient: the server dying mid-response line must
// fail the in-flight Call with a connection error, not a hang.
func TestTruncatedFrameClient(t *testing.T) { bothFills(t, testTruncatedFrameClient) }

func testTruncatedFrameClient(t *testing.T) {
	leak.Check(t)
	ln, err := net.Listen("unix", sockPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		c.Write([]byte(`{"t":"resp","seq":1,`)) // truncated: no newline, then close
		c.Close()
	}()

	cli, err := dialFill(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call err = %v, want ErrClosed", err)
	}
	cli.Close()
	ln.Close()
}

// deadPeerConn is a connection whose peer is gone but whose read side has
// not noticed yet: reads block until Close, writes fail with errno.
type deadPeerConn struct {
	net.Conn // nil: only the methods below are reached
	errno    syscall.Errno
	closed   chan struct{}
	once     sync.Once
}

func (c *deadPeerConn) Read([]byte) (int, error) {
	<-c.closed
	return 0, net.ErrClosed
}

func (c *deadPeerConn) Write([]byte) (int, error) {
	return 0, &net.OpError{Op: "write", Net: "unix", Err: os.NewSyscallError("write", c.errno)}
}

func (c *deadPeerConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

// TestPeerDeathOneSentinel pins the write-side half of peer death, the
// one TestTruncatedFrameClient only reaches when the scheduler runs the
// Call before the read loop: a write that hits the dead socket must
// match ErrClosed like the read loop's EOF does, with the OS error kept
// in the text, and so must every Call after it.
func TestPeerDeathOneSentinel(t *testing.T) {
	leak.Check(t)
	for _, errno := range []syscall.Errno{syscall.EPIPE, syscall.ECONNRESET} {
		cli := NewClient(&deadPeerConn{errno: errno, closed: make(chan struct{})})
		_, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
		if !errors.Is(err, ErrClosed) {
			t.Errorf("%v on write: Call err = %v, want ErrClosed", errno, err)
		}
		if err == nil || !strings.Contains(err.Error(), errno.Error()) {
			t.Errorf("%v on write: OS error missing from %q", errno, err)
		}
		cli.Close()
		if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, ErrClosed) {
			t.Errorf("Call on a closed client = %v, want ErrClosed", err)
		}
	}
}

// TestReconnectorRedialsAfterWriteDetectedDeath: the Reconnector treats
// a peer death the write noticed like one the read loop noticed — the
// failed Call surfaces ErrClosed and the next Call redials.
func TestReconnectorRedialsAfterWriteDetectedDeath(t *testing.T) {
	bothFills(t, testReconnectorRedialsAfterWriteDetectedDeath)
}

func testReconnectorRedialsAfterWriteDetectedDeath(t *testing.T) {
	leak.Check(t)
	srv, err := listenFill(sockPath(t), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	dials := 0
	r := NewReconnector(ReconnectConfig{
		Dial: func() (net.Conn, error) {
			if dials++; dials == 1 {
				return &deadPeerConn{errno: syscall.EPIPE, closed: make(chan struct{})}, nil
			}
			return dialConnFill(srv.Addr())
		},
		Backoff: Backoff{Base: time.Millisecond}, Seed: 1,
	})
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, ErrClosed) {
		t.Fatalf("Call over the dead connection = %v, want ErrClosed", err)
	}
	if resp, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 3}); err != nil || resp.Free != 3 {
		t.Fatalf("Call after redial: %+v %v", resp, err)
	}
	if r.Generation() != 2 {
		t.Errorf("generation = %d, want 2", r.Generation())
	}
}

// panicHandler panics on abort requests and serves everything else.
type panicHandler struct{}

func (panicHandler) Handle(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
	if m.Type == protocol.TypeAbort {
		panic("injected handler bug")
	}
	respond(&protocol.Message{OK: true})
}
func (panicHandler) Closed(*ServerConn) {}

// TestHandlerPanicIsRecovered: a panicking handler yields an error
// response on that request and the connection keeps serving others.
func TestHandlerPanicIsRecovered(t *testing.T) { bothFills(t, testHandlerPanicIsRecovered) }

func testHandlerPanicIsRecovered(t *testing.T) {
	srv, err := listenFill(sockPath(t), panicHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := dialFill(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAbort, PID: 1, Size: 1})
	if err != nil {
		t.Fatalf("transport error instead of error response: %v", err)
	}
	if !strings.Contains(resp.Error, "panic") {
		t.Fatalf("resp = %+v, want a panic error", resp)
	}
	// The connection survived: a normal request still round-trips.
	resp, err = cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil || !resp.OK {
		t.Fatalf("post-panic call: %+v %v", resp, err)
	}
}

// TestReconnectorRedialsWithBackoff: dial failures are retried on the
// backoff schedule until one succeeds, transparently to the caller.
func TestReconnectorRedialsWithBackoff(t *testing.T) { bothFills(t, testReconnectorRedialsWithBackoff) }

func testReconnectorRedialsWithBackoff(t *testing.T) {
	h := &echoHandler{}
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	var attempts int32
	r := NewReconnector(ReconnectConfig{
		Dial: func() (net.Conn, error) {
			if atomic.AddInt32(&attempts, 1) <= 2 {
				return nil, errors.New("injected dial failure")
			}
			return dialConnFill(srv.Addr())
		},
		Backoff: Backoff{Base: time.Millisecond, Max: 4 * time.Millisecond},
		Seed:    1,
	})
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 7})
	if err != nil || resp.Free != 7 {
		t.Fatalf("call through reconnector: %+v %v", resp, err)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("dial attempts = %d, want 3", got)
	}
	if r.Generation() != 1 {
		t.Fatalf("generation = %d, want 1", r.Generation())
	}
}

// TestReconnectorMaxAttempts: a bounded dial budget surfaces the last
// error instead of retrying forever.
func TestReconnectorMaxAttempts(t *testing.T) {
	var attempts int32
	r := NewReconnector(ReconnectConfig{
		Dial: func() (net.Conn, error) {
			atomic.AddInt32(&attempts, 1)
			return nil, errors.New("injected dial failure")
		},
		Backoff:     Backoff{Base: time.Millisecond, Max: 2 * time.Millisecond},
		MaxAttempts: 3,
		Seed:        1,
	})
	defer r.Close()
	_, err := r.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
	if err == nil || !strings.Contains(err.Error(), "injected dial failure") {
		t.Fatalf("err = %v", err)
	}
	if got := atomic.LoadInt32(&attempts); got != 3 {
		t.Fatalf("dial attempts = %d, want 3", got)
	}
}

// TestReconnectorSurvivesServerRestart: the failed call after the
// server dies is surfaced (never silently retried — allocations are
// not idempotent), and the next call redials the restarted server,
// running the OnReconnect hook again.
func TestReconnectorSurvivesServerRestart(t *testing.T) {
	bothFills(t, testReconnectorSurvivesServerRestart)
}

func testReconnectorSurvivesServerRestart(t *testing.T) {
	path := sockPath(t)
	h := &echoHandler{}
	srv, err := listenFill(path, h)
	if err != nil {
		t.Fatal(err)
	}

	var hooks int32
	r := NewReconnector(ReconnectConfig{
		Dial:    func() (net.Conn, error) { return dialConnFill(path) },
		Backoff: Backoff{Base: time.Millisecond, Max: 8 * time.Millisecond},
		OnReconnect: func(c *Client) error {
			atomic.AddInt32(&hooks, 1)
			return nil
		},
		Seed: 1,
	})
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	srv.Close()

	// The call that observes the dead connection fails — fail-closed.
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err == nil {
		t.Fatal("call through dead connection succeeded")
	}

	srv2, err := listenFill(path, h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv2.Close()
	// The next call redials (possibly needing a few backoff rounds while
	// the listener comes up) and succeeds.
	var resp *protocol.Message
	for i := 0; i < 50; i++ {
		resp, err = r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 9})
		if err == nil {
			break
		}
	}
	if err != nil || resp.Free != 9 {
		t.Fatalf("call after restart: %+v %v", resp, err)
	}
	if got := atomic.LoadInt32(&hooks); got < 2 {
		t.Fatalf("OnReconnect ran %d times, want ≥2", got)
	}
	if r.Generation() < 2 {
		t.Fatalf("generation = %d, want ≥2", r.Generation())
	}
}

// TestReconnectorCallTimeout: CallTimeout bounds ordinary requests, but
// allocation requests are exempt — a suspended allocation must be able
// to outwait any per-call deadline.
func TestReconnectorCallTimeout(t *testing.T) { bothFills(t, testReconnectorCallTimeout) }

func testReconnectorCallTimeout(t *testing.T) {
	h := &parkHandler{parkAll: true}
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	const callTimeout = 60 * time.Millisecond
	r := NewReconnector(ReconnectConfig{
		Dial:        func() (net.Conn, error) { return dialConnFill(srv.Addr()) },
		Backoff:     Backoff{Base: time.Millisecond},
		CallTimeout: callTimeout,
		Seed:        1,
	})
	defer r.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	start := time.Now()
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("meminfo err = %v, want deadline exceeded", err)
	}
	if elapsed := time.Since(start); elapsed > 3*time.Second {
		t.Fatalf("deadline took %v to fire", elapsed)
	}

	// An alloc parked well past CallTimeout still completes once granted.
	done := make(chan error, 1)
	go func() {
		resp, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
		if err == nil && resp.Decision != protocol.DecisionAccept {
			err = errors.New("unexpected decision")
		}
		done <- err
	}()
	time.Sleep(3 * callTimeout) // suspended far beyond the per-call bound
	for h.Release() == 0 {
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("suspended alloc: %v", err)
	}
}
