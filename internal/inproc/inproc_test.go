package inproc

import (
	"context"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/protocol"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func newHub(t *testing.T, capMiB int) *Hub {
	t.Helper()
	st, err := core.New(core.Config{Capacity: mib(capMiB), ContextOverhead: 1})
	if err != nil {
		t.Fatal(err)
	}
	return NewHub(st)
}

func call(t *testing.T, c *Caller, m *protocol.Message) *protocol.Message {
	t.Helper()
	resp, err := c.Call(context.Background(), m)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func TestAllocConfirmFreeFlow(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("a", mib(400)); err != nil {
		t.Fatal(err)
	}
	c := h.Caller("a")
	resp := call(t, c, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(100))})
	if !resp.OK || resp.Decision != protocol.DecisionAccept {
		t.Fatalf("alloc resp = %+v", resp)
	}
	resp = call(t, c, &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Size: int64(mib(100)), Addr: 0xA})
	if !resp.OK {
		t.Fatalf("confirm resp = %+v", resp)
	}
	resp = call(t, c, &protocol.Message{Type: protocol.TypeMemInfo})
	if !resp.OK || resp.Total != int64(mib(400)) {
		t.Fatalf("meminfo resp = %+v", resp)
	}
	resp = call(t, c, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 0xA})
	if !resp.OK || resp.Free != int64(mib(100)) {
		t.Fatalf("free resp = %+v", resp)
	}
	resp = call(t, c, &protocol.Message{Type: protocol.TypeProcExit, PID: 1})
	if !resp.OK {
		t.Fatalf("procexit resp = %+v", resp)
	}
	if err := h.Core().CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestRejectAndErrorResponses(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("a", mib(100)); err != nil {
		t.Fatal(err)
	}
	c := h.Caller("a")
	resp := call(t, c, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(200))})
	if resp.Decision != protocol.DecisionReject {
		t.Fatalf("over-limit resp = %+v", resp)
	}
	// Errors come back as !OK responses, not transport errors.
	resp = call(t, c, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 0xDEAD})
	if resp.OK {
		t.Fatalf("free of unknown addr succeeded: %+v", resp)
	}
	ghost := h.Caller("ghost")
	resp = call(t, ghost, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 1})
	if resp.OK {
		t.Fatalf("unknown container alloc succeeded: %+v", resp)
	}
	if _, err := c.Call(context.Background(), &protocol.Message{Type: "bogus"}); err == nil {
		t.Fatal("bogus type accepted")
	}
}

func TestSuspendBlocksUntilHubClose(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("big", mib(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("small", mib(600)); err != nil {
		t.Fatal(err)
	}
	big := h.Caller("big")
	small := h.Caller("small")
	if resp := call(t, big, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); resp.Decision != protocol.DecisionAccept {
		t.Fatalf("big alloc: %+v", resp)
	}
	got := make(chan *protocol.Message, 1)
	go func() {
		resp, err := small.Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
		if err == nil {
			got <- resp
		} else {
			close(got)
		}
	}()
	select {
	case <-got:
		t.Fatal("suspended call returned early")
	case <-time.After(30 * time.Millisecond):
	}
	if _, err := h.Close("big"); err != nil {
		t.Fatal(err)
	}
	select {
	case resp := <-got:
		if resp == nil || resp.Decision != protocol.DecisionAccept {
			t.Fatalf("resumed resp = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("suspended call never resumed")
	}
}

// TestReleaseBetweenDecideAndPark: a release that admits a suspended
// allocation after its Suspend decision but before its channel is parked
// must still wake it. Without the hub's gate the close dispatches into
// that gap, finds no channel, and the allocation waits for good.
func TestReleaseBetweenDecideAndPark(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("big", mib(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("small", mib(600)); err != nil {
		t.Fatal(err)
	}
	if resp := call(t, h.Caller("big"), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))}); resp.Decision != protocol.DecisionAccept {
		t.Fatalf("big alloc: %+v", resp)
	}
	inGap, leaveGap := make(chan struct{}), make(chan struct{})
	h.beforePark = func() {
		close(inGap)
		<-leaveGap
	}
	got := make(chan *protocol.Message, 1)
	go func() {
		resp, _ := h.Caller("small").Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
		got <- resp
	}()
	select {
	case <-inGap:
	case <-time.After(5 * time.Second):
		t.Fatal("the allocation was never suspended")
	}
	closed := make(chan error, 1)
	go func() {
		_, err := h.Close("big")
		closed <- err
	}()
	select {
	case <-closed: // it did not wait for the gap: the admission went nowhere
	case <-time.After(50 * time.Millisecond): // waiting on the gate
	}
	close(leaveGap)
	select {
	case resp := <-got:
		if resp == nil || resp.Decision != protocol.DecisionAccept {
			t.Fatalf("resumed resp = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("the allocation admitted between its decision and its park never returned")
	}
}

func TestSuspendContextCancellation(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("big", mib(700)); err != nil {
		t.Fatal(err)
	}
	if _, err := h.Register("small", mib(600)); err != nil {
		t.Fatal(err)
	}
	call(t, h.Caller("big"), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(600))})
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err := h.Caller("small").Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(mib(500))})
	if err != context.DeadlineExceeded {
		t.Fatalf("err = %v, want deadline exceeded", err)
	}
	// The parked entry must be gone.
	h.mu.Lock()
	n := len(h.parked)
	h.mu.Unlock()
	if n != 0 {
		t.Fatalf("%d parked entries leaked after cancellation", n)
	}
}

func TestAbortDispatchesUpdates(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("a", mib(900)); err != nil {
		t.Fatal(err)
	}
	c := h.Caller("a")
	// Accept a large charge, then abort it; core releases the charge.
	if resp := call(t, c, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib(800))}); resp.Decision != protocol.DecisionAccept {
		t.Fatalf("alloc: %+v", resp)
	}
	if resp := call(t, c, &protocol.Message{Type: protocol.TypeAbort, PID: 1, Size: int64(mib(800))}); !resp.OK {
		t.Fatalf("abort: %+v", resp)
	}
	info, err := h.Core().Info("a")
	if err != nil {
		t.Fatal(err)
	}
	if info.Used != 1 { // the 1-byte overhead stays
		t.Fatalf("used after abort = %v", info.Used)
	}
}

func TestHubCloseReturnsReleased(t *testing.T) {
	h := newHub(t, 1000)
	if _, err := h.Register("a", mib(400)); err != nil {
		t.Fatal(err)
	}
	released, err := h.Close("a")
	if err != nil || released != mib(400) {
		t.Fatalf("Close = (%v,%v)", released, err)
	}
	if _, err := h.Close("zzz"); err == nil {
		t.Fatal("close of unknown container succeeded")
	}
}
