package ipc

import (
	"context"
	"errors"
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// holdHandler withholds every alloc's answer until release is called for
// its size, and answers everything else at once, echoing the size.
type holdHandler struct {
	mu     sync.Mutex
	parked map[int64]func(*protocol.Message)
	cond   *sync.Cond
}

func newHoldHandler() *holdHandler {
	h := &holdHandler{parked: make(map[int64]func(*protocol.Message))}
	h.cond = sync.NewCond(&h.mu)
	return h
}

func (h *holdHandler) Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	if msg.Type != protocol.TypeAlloc {
		respond(&protocol.Message{OK: true, Free: msg.Size})
		return
	}
	h.mu.Lock()
	h.parked[msg.Size] = respond
	h.cond.Broadcast()
	h.mu.Unlock()
}

func (h *holdHandler) Closed(conn *ServerConn) {}

// release answers the alloc of the given size once it is parked.
func (h *holdHandler) release(size int64) {
	h.mu.Lock()
	for h.parked[size] == nil {
		h.cond.Wait()
	}
	respond := h.parked[size]
	delete(h.parked, size)
	h.mu.Unlock()
	respond(&protocol.Message{OK: true, Free: size})
}

// TestReaderRoleIsHandedOn: of two suspended allocations on one
// connection one reads for both. Whichever is answered first — the reader
// (the other has to take the role over to see its own answer) or the
// other (the reader hands the answer to its slot and reads on) — each
// gets its own reply, and the connection serves a third call afterwards.
func TestReaderRoleIsHandedOn(t *testing.T) { bothFills(t, testReaderRoleIsHandedOn) }

func testReaderRoleIsHandedOn(t *testing.T) {
	for _, order := range [][2]int64{{1, 2}, {2, 1}} {
		leak.Check(t)
		h := newHoldHandler()
		cli, _ := oneWayRig(t, h, true)
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		type result struct {
			size, free int64
			err        error
		}
		results := make(chan result, 2)
		for _, size := range []int64{1, 2} {
			go func() {
				resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: size})
				r := result{size: size, err: err}
				if err == nil {
					r.free = resp.Free
				}
				results <- r
			}()
			// The first caller is reading before the second sends.
			h.mu.Lock()
			for h.parked[size] == nil {
				h.cond.Wait()
			}
			h.mu.Unlock()
		}
		for _, size := range order {
			h.release(size)
			if r := <-results; r.err != nil || r.size != size || r.free != size {
				t.Fatalf("release order %v: released %d, a call returned %+v", order, size, r)
			}
		}
		if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 9}); err != nil || resp.Free != 9 {
			t.Fatalf("release order %v: call after both: %+v %v", order, resp, err)
		}
		cancel()
		cli.Close()
	}
}

// TestCancelledReaderLeavesConnectionUsable: a reading Call whose context
// ends is woken at a frame boundary, where nothing is lost: the
// connection serves the next call, and so it does when the wake-up comes
// late and its deadline is still set when another call starts reading.
func TestCancelledReaderLeavesConnectionUsable(t *testing.T) {
	bothFills(t, testCancelledReaderLeavesConnectionUsable)
}

func testCancelledReaderLeavesConnectionUsable(t *testing.T) {
	leak.Check(t)
	h := newHoldHandler()
	cli, _ := oneWayRig(t, h, true)
	short, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(short, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 1}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("suspended Call past its deadline = %v", err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	for _, bg := range []context.Context{context.Background(), ctx} {
		cli.wake() // a wake-up meant for a call that has left
		if resp, err := cli.Call(bg, &protocol.Message{Type: protocol.TypeMemInfo, Size: 5}); err != nil || resp.Free != 5 {
			t.Fatalf("Call under a stale read deadline: %+v %v", resp, err)
		}
	}
	h.release(1) // the abandoned call's answer: an unknown seq, dropped
	if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 6}); err != nil || resp.Free != 6 {
		t.Fatalf("Call after the abandoned answer arrived: %+v %v", resp, err)
	}
}

// TestReadCutInsideFrameFailsClient: a peer that stops in the middle of
// a frame has left the stream where it cannot be picked up again. The
// Call gives up when its context says so, and the client is failed.
func TestReadCutInsideFrameFailsClient(t *testing.T) { bothFills(t, testReadCutInsideFrameFailsClient) }

func testReadCutInsideFrameFailsClient(t *testing.T) {
	leak.Check(t)
	ln, err := net.Listen("unix", sockPath(t))
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	cliConn, err := net.Dial("unix", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	srvConn, err := ln.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer srvConn.Close()
	cli := NewClient(wrapFill(cliConn))
	defer cli.Close()
	cli.useBinary.Store(true)
	go func() {
		s := splitter{buf: make([]byte, readBufSize)}
		f, err := nextFrame(srvConn, &s)
		if err != nil {
			return
		}
		out, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeResponse, Seq: f.seq, OK: true, Free: 1 << 40})
		srvConn.Write(out[:len(out)-1])
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("Call whose reply stopped inside the frame = %v", err)
	}
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "cut inside a frame") {
		t.Fatalf("Call on the failed client = %v, want ErrClosed naming the cut", err)
	}
}
