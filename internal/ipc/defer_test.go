package ipc

import (
	"context"
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

// TestDeferredPostRidesTheNextFrame: a posted confirm costs no socket
// write of its own. It leaves in the write of the frame after it — a
// one-way free here, a Call just as well — and reaches the handler ahead
// of that frame.
func TestDeferredPostRidesTheNextFrame(t *testing.T) {
	cli, conn, h := deferRig(t)
	ctx := context.Background()
	w0 := conn.Writes()
	if err := cli.Post(ctx, confirm(2)); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 0 {
		t.Fatalf("a posted confirm was written at once (%d writes)", n)
	}
	if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 2}); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 1 {
		t.Fatalf("confirm + free took %d writes, want 1: a free is written at once and carries the confirm", n)
	}
	if err := cli.Post(ctx, confirm(4)); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if n := conn.Writes() - w0; n != 2 {
		t.Errorf("four frames took %d writes, want 2", n)
	}
	want := []protocol.Type{protocol.TypeConfirm, protocol.TypeFree, protocol.TypeConfirm, protocol.TypeHeartbeat}
	if got := h.types(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Errorf("handler saw %v, want %v", got, want)
	}
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
		for deadline := time.Now().Add(50 * time.Millisecond); len(h.types()) < i; time.Sleep(200 * time.Microsecond) {
			if time.Now().After(deadline) {
				t.Fatalf("confirm %d not at the handler 50 ms after Post returned, with nothing sent after it", i)
			}
		}
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
