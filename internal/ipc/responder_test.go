package ipc

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// TestReusedResponderKeepsEverySeq: the read loop arms one responder for
// request after request and leaves it to its holder only while it is
// unanswered. A handler that answers one request in sixteen from another
// goroutine — sometimes before the next request is read, sometimes after
// — while the rest are answered inside Handle must still see every reply
// leave under its own request's seq: the client matches replies to calls
// by seq, so each call gets its own size back or the test fails. Run
// under -race, this is also the check on the re-arm's ordering argument.
func TestReusedResponderKeepsEverySeq(t *testing.T) {
	leak.Check(t)
	type late struct {
		respond func(*protocol.Message)
		size    int64
	}
	parked := make(chan late, 64) // more than the callers: the handler never waits on the answerer
	answered := make(chan struct{})
	go func() {
		defer close(answered)
		for p := range parked {
			p.respond(&protocol.Message{OK: true, Free: p.size})
		}
	}()
	h := handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		if m.Size%16 == 0 {
			parked <- late{respond, m.Size}
			return
		}
		respond(&protocol.Message{OK: true, Free: m.Size})
	}}
	cli, _ := oneWayRig(t, h, true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()

	const callers, each = 8, 1250
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for g := 0; g < callers; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				size := int64(g*each + i + 1)
				resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, PID: 1, Size: size})
				if err != nil {
					errc <- fmt.Errorf("call %d: %w", size, err)
					return
				}
				if resp.Free != size {
					errc <- fmt.Errorf("call %d was handed the reply to %d", size, resp.Free)
					return
				}
				protocol.ReleaseMessage(resp)
			}
		}(g)
	}
	wg.Wait()
	close(parked)
	<-answered
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestOneReplyFramePerRequest: whatever a handler does with respond —
// calls it twice inside Handle, panics after it answered, or holds it
// past Handle's return and calls it twice then — one frame leaves per
// request, counted on the server's own wire counters.
func TestOneReplyFramePerRequest(t *testing.T) {
	leak.Check(t)
	lateDone := make(chan struct{}, 1)
	h := handlerFunc{handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
		switch m.Type {
		case protocol.TypeMemInfo:
			respond(&protocol.Message{OK: true, Free: 1})
			respond(&protocol.Message{OK: true, Free: 2})
		case protocol.TypeAbort:
			respond(&protocol.Message{OK: true, Free: 1})
			panic("injected handler bug, after the answer")
		case protocol.TypeAlloc:
			go func() {
				respond(&protocol.Message{OK: true, Free: 1})
				respond(&protocol.Message{OK: true, Free: 2})
				lateDone <- struct{}{}
			}()
		default:
			respond(&protocol.Message{OK: true, Free: 1})
		}
	}}
	cli, stats := oneWayRig(t, h, true)
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	requests := uint64(0)
	for round := 0; round < 50; round++ {
		for _, typ := range []protocol.Type{protocol.TypeMemInfo, protocol.TypeAbort, protocol.TypeAlloc, protocol.TypeHeartbeat} {
			resp, err := cli.Call(ctx, &protocol.Message{Type: typ, PID: 1, Size: 1})
			if err != nil || !resp.OK || resp.Free != 1 {
				t.Fatalf("round %d %s: %+v %v, want the first answer", round, typ, resp, err)
			}
			requests++
			if typ == protocol.TypeAlloc {
				<-lateDone // its second respond has run before the next request re-arms anything
			}
		}
	}
	if got := stats.Frames(true, true); got != requests {
		t.Fatalf("%d binary frames left for %d requests", got, requests)
	}
}

// TestSpentContextDoesNotStrandAReader: the client registers its wake
// with a context once, not per call, and a context ends once. A call
// that comes under a context already ended — its wake spent on an
// earlier call, or on none — must not start a read that nothing will
// end; and the connection still serves a call under a live context.
func TestSpentContextDoesNotStrandAReader(t *testing.T) {
	leak.Check(t)
	h := newHoldHandler()
	cli, _ := oneWayRig(t, h, true)
	ctx, cancel := context.WithCancel(context.Background())
	got := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 1})
		got <- err
	}()
	h.mu.Lock()
	for h.parked[1] == nil { // the call is suspended: it is the reader, or about to be
		h.cond.Wait()
	}
	h.mu.Unlock()
	cancel()
	if err := <-got; !errors.Is(err, context.Canceled) {
		t.Fatalf("suspended Call whose context was cancelled = %v", err)
	}
	for i := int64(0); i < 40; i++ { // a call under the ended context takes the reader's role about every other time
		done := make(chan error, 1)
		go func() {
			_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 100 + i})
			done <- err
		}()
		select {
		case err := <-done:
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("Call %d under an ended context = %v", i, err)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("Call %d under an ended context is stuck reading", i)
		}
	}
	live, cancelLive := context.WithCancel(context.Background())
	defer cancelLive()
	if resp, err := cli.Call(live, &protocol.Message{Type: protocol.TypeMemInfo, Size: 7}); err != nil || resp.Free != 7 {
		t.Fatalf("Call under a live context, after the cancelled ones: %+v %v", resp, err)
	}
}

// TestCloseEndsContextRegistration: the wake registered with a context
// stays after the call that registered it (that is the saving), so
// closing the client must end it — a container's context outlives every
// connection a reconnecting wrapper goes through, and would hold each of
// them, and call into it when it ends.
func TestCloseEndsContextRegistration(t *testing.T) {
	leak.Check(t)
	for _, closeFirst := range []bool{false, true} {
		cli, _ := oneWayRig(t, &echoHandler{}, true)
		var woken atomic.Int32
		cli.wake = func() { woken.Add(1) }
		ctx, cancel := context.WithCancel(context.Background())
		if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 1}); err != nil {
			t.Fatal(err)
		}
		want := int32(1) // kept: the context's end reaches the client between calls too
		if closeFirst {
			cli.Close()
			want = 0
		}
		cancel()
		deadline := time.Now().Add(time.Second)
		for woken.Load() != want && time.Now().Before(deadline) {
			time.Sleep(time.Millisecond)
		}
		if closeFirst {
			time.Sleep(20 * time.Millisecond) // a registration left behind would have fired by now
		}
		if got := woken.Load(); got != want {
			t.Errorf("closed first: %v: the context's end woke the client %d times, want %d", closeFirst, got, want)
		}
		cli.Close()
	}
}
