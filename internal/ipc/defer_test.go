package ipc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"testing"
	"time"

	"convgpu/internal/fault"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// deferRig is a server recording what it handles and a negotiated client
// whose socket writes are counted.
func deferRig(t *testing.T) (*Client, *fault.Tap, *refuseHandler) {
	t.Helper()
	leak.Check(t)
	h := &refuseHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	raw, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	conn := fault.NewTap(raw)
	cli := NewClient(conn)
	t.Cleanup(func() { cli.Close() })
	if ok, err := cli.NegotiateBinary(context.Background()); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}
	return cli, conn, h
}

func free(addr uint64) *protocol.Message {
	return &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: addr}
}

// TestDeferredPostRidesTheNextFrame: a posted confirm costs no socket
// write of its own, and neither does the free posted while it waits.
// Both leave in the write of the Call after them and reach the handler
// ahead of it, in the order they were posted.
func TestDeferredPostRidesTheNextFrame(t *testing.T) {
	cli, conn, h := deferRig(t)
	cli.w.bound = time.Hour // a deschedule between the posts is no timer expiry: only the Call writes
	ctx := context.Background()
	w0 := conn.Writes()
	if err := cli.Post(ctx, confirm(2)); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 0 {
		t.Fatalf("a posted confirm was written at once (%d writes)", n)
	}
	if err := cli.Post(ctx, free(2)); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 0 {
		t.Fatalf("confirm + free took %d writes, want 0: the free joins the confirm waiting ahead of it", n)
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 1 {
		t.Errorf("three frames took %d writes, want the Call's one", n)
	}
	want := []protocol.Type{protocol.TypeConfirm, protocol.TypeFree, protocol.TypeHeartbeat}
	if got := conn.FrameTypes(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("the write held %v, want %v", got, want)
	}
	if got := h.types(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("handler saw %v, want %v", got, want)
	}
}

// waitSeen waits up to 50 ms for the handler to have seen n frames.
func waitSeen(t *testing.T, h *refuseHandler, n int, what string) {
	t.Helper()
	for deadline := time.Now().Add(50 * time.Millisecond); len(h.types()) < n; time.Sleep(200 * time.Microsecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%s: handler saw %v after 50 ms", what, h.types())
		}
	}
}

// TestFreeJoinsOnlyAWaitingFrame: a free never starts a wait. It is
// written before Post returns unless a confirm is still in the buffer,
// and then it leaves with that confirm, inside the confirm's bound.
func TestFreeJoinsOnlyAWaitingFrame(t *testing.T) {
	ctx := context.Background()

	t.Run("lone", func(t *testing.T) {
		cli, conn, _ := deferRig(t)
		w0 := conn.Writes()
		if err := cli.Post(ctx, free(2)); err != nil {
			t.Fatal(err)
		}
		if n := conn.Writes() - w0; n != 1 {
			t.Errorf("a lone free: %d writes when Post returned, want 1", n)
		}
	})

	t.Run("after the timer took the confirm", func(t *testing.T) {
		cli, conn, h := deferRig(t)
		w0 := conn.Writes()
		if err := cli.Post(ctx, confirm(2)); err != nil {
			t.Fatal(err)
		}
		time.Sleep(5 * deferBound)
		waitSeen(t, h, 1, "lone confirm")
		if err := cli.Post(ctx, free(2)); err != nil {
			t.Fatal(err)
		}
		if n := conn.Writes() - w0; n != 2 {
			t.Errorf("confirm, 5 ms, free: %d writes when Post returned, want the timer's and the free's own", n)
		}
	})

	t.Run("after a call took the confirm", func(t *testing.T) {
		cli, conn, _ := deferRig(t)
		if err := cli.Post(ctx, confirm(2)); err != nil {
			t.Fatal(err)
		}
		if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
			t.Fatal(err)
		}
		w0 := conn.Writes() // the timer is still running, over an empty buffer
		if err := cli.Post(ctx, free(2)); err != nil {
			t.Fatal(err)
		}
		if n := conn.Writes() - w0; n != 1 {
			t.Errorf("a free behind an empty buffer: %d writes when Post returned, want 1", n)
		}
	})

	t.Run("overdue timer", func(t *testing.T) {
		cli, conn, _ := deferRig(t)
		w0 := conn.Writes()
		if err := cli.Post(ctx, confirm(2)); err != nil {
			t.Fatal(err)
		}
		// As a process that computes on every thread leaves it: the bound
		// has passed and the runtime has not run the timer yet.
		cli.w.mu.Lock()
		cli.w.due = time.Now()
		cli.w.mu.Unlock()
		if err := cli.Post(ctx, free(2)); err != nil {
			t.Fatal(err)
		}
		cli.w.mu.Lock()
		left := len(cli.w.buf)
		cli.w.mu.Unlock()
		if n := conn.Writes() - w0; n == 0 || left != 0 {
			t.Errorf("a free behind a confirm whose timer is overdue: %d writes and %d bytes still buffered when Post returned; it does not wait for the runtime", n, left)
		}
	})

	t.Run("leaves by the timer already armed", func(t *testing.T) {
		for attempt := 0; ; attempt++ {
			cli, conn, h := deferRig(t)
			w0 := conn.Writes()
			if err := cli.Post(ctx, confirm(2)); err != nil {
				t.Fatal(err)
			}
			timer := cli.w.timer
			if err := cli.Post(ctx, free(2)); err != nil {
				t.Fatal(err)
			}
			if conn.Writes() != w0 && attempt < 5 {
				continue // the timer fired between the two: the free found nothing waiting
			}
			waitSeen(t, h, 2, "confirm + free, nothing after them")
			if want := []protocol.Type{protocol.TypeConfirm, protocol.TypeFree}; fmt.Sprint(h.types()) != fmt.Sprint(want) {
				t.Errorf("handler saw %v, want %v", h.types(), want)
			}
			time.Sleep(5 * deferBound) // a second expiry would have come by now
			if n := conn.Writes() - w0; n != 1 {
				t.Errorf("confirm + free left in %d writes, want one expiry's one", n)
			}
			cli.w.mu.Lock()
			armed := cli.w.armed
			cli.w.mu.Unlock()
			if cli.w.timer != timer || armed {
				t.Error("the joined free armed a timer: it may only ride the confirm's")
			}
			return
		}
	})

	t.Run("lost with the connection", func(t *testing.T) {
		for attempt := 0; ; attempt++ {
			cli, conn, h := deferRig(t)
			w0 := conn.Writes()
			if err := cli.Post(ctx, confirm(2)); err != nil {
				t.Fatal(err)
			}
			if err := cli.Post(ctx, free(2)); err != nil {
				t.Fatalf("a joined free = %v, want nil: it is only queued", err)
			}
			conn.Conn.Close() // the transport dies under the client
			if conn.Writes() != w0 {
				if attempt < 5 {
					continue // the timer beat the kill: both frames may have left
				}
				t.Fatal("the timer fired inside Post+Post+Close six times running")
			}
			if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); !errors.Is(err, ErrClosed) {
				t.Errorf("the call after the lost pair = %v, want ErrClosed", err)
			}
			if err := cli.Post(ctx, free(4)); !errors.Is(err, ErrClosed) {
				t.Errorf("a free on the failed client = %v, want ErrClosed at once", err)
			}
			time.Sleep(2 * deferBound)
			if got := h.types(); len(got) != 0 {
				t.Errorf("handler saw %v: the lost frames were resent", got)
			}
			return
		}
	})

	t.Run("closed client", func(t *testing.T) {
		cli, conn, _ := deferRig(t)
		if err := cli.Post(ctx, confirm(2)); err != nil {
			t.Fatal(err)
		}
		cli.Close()
		w0 := conn.Writes()
		if err := cli.Post(ctx, free(2)); !errors.Is(err, ErrClosed) {
			t.Errorf("a free on a closed client = %v, want ErrClosed, waiting confirm or not", err)
		}
		if n := conn.Writes() - w0; n != 0 {
			t.Errorf("%d writes on a closed client", n)
		}
	})
}

// TestDeferredPostLeavesWithinTheBound: with nothing to ride, a posted
// confirm is written by the timer — one write, well inside 50 ms, and
// the timer is good for the next one too.
func TestDeferredPostLeavesWithinTheBound(t *testing.T) {
	cli, conn, h := deferRig(t)
	w0 := conn.Writes()
	for i := 1; i <= 2; i++ {
		if err := cli.Post(context.Background(), confirm(uint64(2*i))); err != nil {
			t.Fatal(err)
		}
		waitSeen(t, h, i, "a lone confirm, nothing sent after it")
		if n := conn.Writes() - w0; n != i {
			t.Fatalf("after %d lone confirms: %d writes", i, n)
		}
	}
}

// TestCloseDropsADeferredFrame: Close stops the timer. The frame it
// would have flushed is dropped, nothing is written to the closing
// connection, and no goroutine stays behind (deferRig's leak check).
func TestCloseDropsADeferredFrame(t *testing.T) {
	cli, conn, h := deferRig(t)
	w0 := conn.Writes()
	if err := cli.Post(context.Background(), confirm(2)); err != nil {
		t.Fatal(err)
	}
	cli.Close()
	time.Sleep(5 * deferBound)
	if n := conn.Writes() - w0; n != 0 {
		t.Errorf("%d writes on a closed client", n)
	}
	if got := h.types(); len(got) != 0 {
		t.Errorf("handler saw %v; the deferred frame was flushed by Close or by a timer Close left running", got)
	}
	if err := cli.Post(context.Background(), confirm(4)); err == nil {
		t.Error("a deferred Post on a closed client returned nil")
	}
}
