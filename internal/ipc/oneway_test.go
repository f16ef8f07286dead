package ipc

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"convgpu/internal/errs"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// refuseHandler answers like a scheduler whose accounting only knows
// even addresses: a confirm or free of an odd one is refused with the
// unavailable code. It records what it saw, in order.
type refuseHandler struct {
	mu   sync.Mutex
	seen []protocol.Message
	// park, when set, withholds the answer to every alloc until it is
	// closed: a suspended allocation, whose Call keeps reading meanwhile.
	park chan struct{}
}

func (h *refuseHandler) Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	h.mu.Lock()
	h.seen = append(h.seen, *msg)
	h.mu.Unlock()
	if (msg.Type == protocol.TypeConfirm || msg.Type == protocol.TypeFree) && msg.Addr%2 == 1 {
		respond(&protocol.Message{Error: fmt.Sprintf("address %#x not charged", msg.Addr), Code: errs.CodeUnavailable})
		return
	}
	if size := msg.Size; h.park != nil && msg.Type == protocol.TypeAlloc {
		go func() {
			<-h.park
			respond(&protocol.Message{OK: true, Free: size})
		}()
		return
	}
	respond(&protocol.Message{OK: true, Free: msg.Size})
}

func (h *refuseHandler) Closed(conn *ServerConn) {}

func (h *refuseHandler) types() []protocol.Type {
	h.mu.Lock()
	defer h.mu.Unlock()
	out := make([]protocol.Type, len(h.seen))
	for i, m := range h.seen {
		out[i] = m.Type
	}
	return out
}

// oneWayRig is a server with its wire counters and one client,
// negotiated or not.
func oneWayRig(t *testing.T, h Handler, negotiate bool) (*Client, *WireStats) {
	t.Helper()
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	stats := &WireStats{}
	srv.SetWireStats(stats)
	cli, err := dialFill(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { cli.Close() })
	if negotiate {
		if ok, err := cli.NegotiateBinary(context.Background()); err != nil || !ok {
			t.Fatalf("negotiate: %v %v", ok, err)
		}
	}
	return cli, stats
}

func confirm(addr uint64) *protocol.Message {
	return &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Size: 64, Addr: addr}
}

// TestPostIsOneFrame: a posted report costs the wire one frame in and
// none out, reaches the handler marked, in order with the calls around
// it, and a Call after it is a barrier.
func TestPostIsOneFrame(t *testing.T) { bothFills(t, testPostIsOneFrame) }

func testPostIsOneFrame(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	cli, stats := oneWayRig(t, h, true)
	ctx := context.Background()
	in0, out0 := stats.Frames(true, false), stats.Frames(true, true)

	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64}); err != nil {
		t.Fatal(err)
	}
	if err := cli.Post(ctx, confirm(2)); err != nil {
		t.Fatal(err)
	}
	if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 2}); err != nil {
		t.Fatal(err)
	}
	if cli.InFlight() != 0 {
		t.Errorf("a Post left %d calls in flight", cli.InFlight())
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	want := []protocol.Type{protocol.TypeAlloc, protocol.TypeConfirm, protocol.TypeFree, protocol.TypeHeartbeat}
	if got := h.types(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("handler saw %v, want %v", got, want)
	}
	h.mu.Lock()
	for _, m := range h.seen {
		if oneWay := m.Type == protocol.TypeConfirm || m.Type == protocol.TypeFree; m.NoReply != oneWay {
			t.Errorf("%s reached the handler with NoReply=%v", m.Type, m.NoReply)
		}
	}
	h.mu.Unlock()
	if in, out := stats.Frames(true, false)-in0, stats.Frames(true, true)-out0; in != 4 || out != 2 {
		t.Errorf("server frames: %d in, %d out; want 4 in and only the two Calls' replies out", in, out)
	}
	if stats.FrameErrors() != 0 {
		t.Errorf("%d frame errors", stats.FrameErrors())
	}
}

// TestRefusedPostFailsTheVeryNextCall is the one-way contract's
// property: over random streams of posts and calls, a refused post is
// returned by the very next Call (or by the Post itself, when the
// refusal is back before it returns) — never by a later one, never
// twice — as a *protocol.Refusal naming the verb, carrying the
// scheduler's text and matching the sentinel of its code; the Call
// after that succeeds.
func TestRefusedPostFailsTheVeryNextCall(t *testing.T) {
	bothFills(t, testRefusedPostFailsTheVeryNextCall)
}

func testRefusedPostFailsTheVeryNextCall(t *testing.T) {
	leak.Check(t)
	cli, stats := oneWayRig(t, &refuseHandler{}, true)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	rng := rand.New(rand.NewSource(20260928))
	refusals, viaCall := 0, 0
	for i := 0; i < 2000; i++ {
		bad := rng.Intn(4) == 0
		addr := uint64(2 * (i + 1))
		if bad {
			addr++
		}
		verb := protocol.TypeConfirm
		m := confirm(addr)
		if rng.Intn(2) == 0 {
			verb = protocol.TypeFree
			m = &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: addr}
		}
		err := cli.Post(ctx, m)
		if err != nil && !bad {
			t.Fatalf("op %d: Post returned %v; nothing refused is outstanding", i, err)
		}
		if err == nil {
			var resp *protocol.Message
			resp, err = cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: int64(i)})
			if !bad {
				if err != nil || resp.Free != int64(i) {
					t.Fatalf("op %d: Call after an accepted %s: %+v %v", i, verb, resp, err)
				}
				continue
			}
			viaCall++
		}
		refusals++
		var ref *protocol.Refusal
		if !errors.As(err, &ref) {
			t.Fatalf("op %d: a refused %s surfaced as %v; want the refusal", i, verb, err)
		}
		if want := fmt.Sprintf("%s refused: address %#x not charged", verb, addr); ref.Text != want {
			t.Fatalf("op %d: refusal text %q, want %q", i, ref.Text, want)
		}
		if !errors.Is(err, errs.ErrDaemonUnavailable) {
			t.Fatalf("op %d: refusal %v does not match its code's sentinel", i, err)
		}
		if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 7}); err != nil || resp.Free != 7 {
			t.Fatalf("op %d: the refusal came back twice: %+v %v", i, resp, err)
		}
	}
	if viaCall == 0 {
		t.Fatalf("%d refusals, none of them surfaced through a Call", refusals)
	}
	if stats.FrameErrors() != 0 {
		t.Errorf("server counted %d frame errors; refusals are the handler's to count", stats.FrameErrors())
	}
}

// TestRefusalDoesNotSwallowTheCall: a Call sent after a refused Post
// reaches the scheduler — it must hear a procexit whatever was refused
// before it — and returns the refusal in place of the reply.
func TestRefusalDoesNotSwallowTheCall(t *testing.T) { bothFills(t, testRefusalDoesNotSwallowTheCall) }

func testRefusalDoesNotSwallowTheCall(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	cli, _ := oneWayRig(t, h, true)
	ctx := context.Background()
	if err := cli.Post(ctx, confirm(1)); err != nil {
		t.Fatalf("Post = %v with nobody reading the connection", err)
	}
	_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeProcExit, PID: 1})
	var ref *protocol.Refusal
	if !errors.As(err, &ref) {
		t.Fatalf("Call after a refused Post = %v, want the refusal", err)
	}
	want := []protocol.Type{protocol.TypeConfirm, protocol.TypeProcExit}
	if got := h.types(); fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("handler saw %v, want %v", got, want)
	}
}

// TestRefusalReachesPostToo: while a suspended allocation's Call reads
// the connection, another thread's refused Post comes back to whichever
// call that thread makes next, a Post included — after writing its own
// frame, which is not the refused one's business.
func TestRefusalReachesPostToo(t *testing.T) { bothFills(t, testRefusalReachesPostToo) }

func testRefusalReachesPostToo(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{park: make(chan struct{})}
	cli, _ := oneWayRig(t, h, true)
	ctx := context.Background()
	release := sync.OnceFunc(func() { close(h.park) })
	defer release()
	suspended := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
		suspended <- err
	}()
	err := cli.Post(ctx, confirm(1))
	if err == nil { // the usual case: not back before the Post returned
		deadline := time.Now().Add(5 * time.Second)
		for stored := false; !stored; time.Sleep(time.Millisecond) {
			stored = cli.refused.Any()
			if time.Now().After(deadline) {
				t.Fatal("the suspended Call never read the refusal")
			}
		}
		err = cli.Post(ctx, confirm(4))
	} else if err := cli.Post(ctx, confirm(4)); err != nil {
		t.Fatalf("refusal returned twice: %v", err)
	}
	var ref *protocol.Refusal
	if !errors.As(err, &ref) {
		t.Fatalf("Post after a refusal arrived = %v, want it", err)
	}
	if err := cli.Post(ctx, confirm(6)); err != nil {
		t.Fatalf("refusal returned twice: %v", err)
	}
	release()
	if err := <-suspended; err != nil {
		t.Fatalf("the suspended Call = %v; the refusal was not its to return", err)
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if got := len(h.types()); got != 5 {
		t.Errorf("handler saw %d messages, want 5: the Post that reported the refusal still sent its frame", got)
	}
}

// TestPostDegradesToCallOnJSON: on a connection that never negotiated,
// Post is a request/response exchange whose refusal is its own error —
// same type, same text — and nothing travels marked.
func TestPostDegradesToCallOnJSON(t *testing.T) { bothFills(t, testPostDegradesToCallOnJSON) }

func testPostDegradesToCallOnJSON(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	cli, stats := oneWayRig(t, h, false)
	ctx := context.Background()
	if err := cli.Post(ctx, confirm(2)); err != nil {
		t.Fatal(err)
	}
	err := cli.Post(ctx, confirm(3))
	var ref *protocol.Refusal
	if !errors.As(err, &ref) || ref.Text != "confirm refused: address 0x3 not charged" || !errors.Is(err, errs.ErrDaemonUnavailable) {
		t.Fatalf("refused Post over JSON = %v", err)
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatalf("the refusal outlived the Post that returned it: %v", err)
	}
	if in, out := stats.Frames(false, false), stats.Frames(false, true); in != 3 || out != 3 {
		t.Errorf("JSON frames %d in, %d out; want 3 and 3", in, out)
	}
	if n := stats.Frames(true, false) + stats.Frames(true, true); n != 0 {
		t.Errorf("%d binary frames on an un-negotiated connection", n)
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for _, m := range h.seen {
		if m.NoReply {
			t.Errorf("%s arrived marked over JSON", m.Type)
		}
	}
}

// TestOldStyleReplyToPostIsDropped: a peer that answers a posted frame
// the two-way way — an unmarked response echoing its seq — is harmless:
// no Call waits on that seq, so the reply is dropped where unknown seqs
// always were, and the connection keeps working.
func TestOldStyleReplyToPostIsDropped(t *testing.T) { bothFills(t, testOldStyleReplyToPostIsDropped) }

func testOldStyleReplyToPostIsDropped(t *testing.T) {
	leak.Check(t)
	// A real socket: nobody reads the client's end until its Call does, and
	// the stray reply has to wait in a buffer meanwhile.
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
	served := make(chan error, 1)
	go func() {
		s := splitter{buf: make([]byte, readBufSize)}
		for i := 0; i < 2; i++ {
			f, err := nextFrame(srvConn, &s)
			if err != nil {
				served <- err
				return
			}
			// Even an error reply: unmarked, it is not a refusal.
			resp := &protocol.Message{Type: protocol.TypeResponse, Seq: f.seq, OK: i == 1, Error: "old peer"}
			out, _ := protocol.AppendEncodeBinary(nil, resp)
			if _, err := srvConn.Write(out); err != nil {
				served <- err
				return
			}
		}
		served <- nil
	}()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := cli.Post(ctx, confirm(1)); err != nil {
		t.Fatal(err)
	}
	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat})
	if err != nil || !resp.OK {
		t.Fatalf("Call after the stray reply: %+v %v", resp, err)
	}
	if err := <-served; err != nil {
		t.Fatal(err)
	}
}

// TestMalformedOneWayFrameComesBackMarked: a one-way frame whose
// payload does not decode is not lost in silence either — the server's
// error goes back marked, so the sender's next call fails on it.
func TestMalformedOneWayFrameComesBackMarked(t *testing.T) {
	bothFills(t, testMalformedOneWayFrameComesBackMarked)
}

func testMalformedOneWayFrameComesBackMarked(t *testing.T) {
	leak.Check(t)
	cli, stats := oneWayRig(t, &echoHandler{}, true)
	ctx := context.Background()
	// An alloc may not travel one-way: Post sends it, Validate refuses it
	// on arrival.
	if err := cli.Post(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 1}); err != nil {
		t.Fatal(err)
	}
	_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat})
	var ref *protocol.Refusal
	if !errors.As(err, &ref) || ref.Text != "protocol: alloc cannot be one-way" {
		t.Fatalf("Call after a malformed one-way frame = %v", err)
	}
	if stats.FrameErrors() != 1 {
		t.Errorf("frame errors = %d, want 1", stats.FrameErrors())
	}
}

// TestReconnectorPost: a refusal leaves the connection alone (the
// scheduler answered); a write failure drops it, nothing is resent, and
// the next Post goes out on a fresh dial. A free's write failure is that
// Post's own error; a confirm's is the error of the frame after it, and
// the redial's replay hook repairs it (see Client.Post).
func TestReconnectorPost(t *testing.T) { bothFills(t, testReconnectorPost) }

func testReconnectorPost(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	srv, err := listenFill(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	var mu sync.Mutex
	var conns []net.Conn
	var unconfirmed []uint64 // what the wrapper's replay would restore
	r := NewReconnector(ReconnectConfig{
		Dial: func() (net.Conn, error) {
			c, err := dialConnFill(srv.Addr())
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			return c, err
		},
		OnReconnect: func(c *Client) error {
			for _, addr := range unconfirmed {
				if _, err := c.Call(ctx, &protocol.Message{Type: protocol.TypeRestore, PID: 1, Size: 64, Addr: addr}); err != nil {
					return err
				}
			}
			return nil
		},
		Backoff: Backoff{Base: time.Millisecond}, Seed: 1, CallTimeout: time.Second,
	})
	defer r.Close()
	kill := func(i int) { // the transport dies under the wrapper
		mu.Lock()
		conns[i].Close()
		mu.Unlock()
	}
	heartbeat := func() error {
		_, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat})
		return err
	}

	err = r.Post(ctx, confirm(1))
	if err == nil { // the refusal was not back yet: the next Call has it
		err = heartbeat()
	}
	var ref *protocol.Refusal
	if !errors.As(err, &ref) {
		t.Fatalf("a refused Post surfaced as %v", err)
	}
	if err := r.Post(ctx, confirm(2)); err != nil || r.Generation() != 1 {
		t.Fatalf("after a refusal: Post = %v on connection %d, want the first connection still up", err, r.Generation())
	}
	if err := heartbeat(); err != nil { // the barrier: 2 has been applied
		t.Fatal(err)
	}

	kill(0)
	if err := r.Post(ctx, &protocol.Message{Type: protocol.TypeFree, PID: 1, Addr: 4}); !errors.Is(err, ErrClosed) {
		t.Fatalf("a free posted over the dead connection = %v, want ErrClosed: it is written at once", err)
	}
	if err := r.Post(ctx, confirm(6)); err != nil || r.Generation() != 2 {
		t.Fatalf("Post after the drop = %v on connection %d, want a redial", err, r.Generation())
	}
	if err := heartbeat(); err != nil {
		t.Fatal(err)
	}

	kill(1)
	if err := r.Post(ctx, confirm(8)); err != nil || r.Generation() != 2 {
		t.Fatalf("a confirm posted over the dead connection = %v on connection %d, want nil: it is only queued", err, r.Generation())
	}
	unconfirmed = append(unconfirmed, 8)
	if err := heartbeat(); !errors.Is(err, ErrClosed) {
		t.Fatalf("the call after the lost confirm = %v, want ErrClosed", err)
	}
	if err := r.Post(ctx, confirm(10)); err != nil || r.Generation() != 3 {
		t.Fatalf("Post after the second drop = %v on connection %d, want a redial", err, r.Generation())
	}
	if err := heartbeat(); err != nil {
		t.Fatal(err)
	}
	var confirms, restores []uint64
	h.mu.Lock()
	for _, m := range h.seen {
		switch m.Type {
		case protocol.TypeConfirm:
			confirms = append(confirms, m.Addr)
		case protocol.TypeRestore:
			restores = append(restores, m.Addr)
		case protocol.TypeFree:
			t.Error("the free that failed was resent")
		}
	}
	h.mu.Unlock()
	if fmt.Sprint(confirms) != "[1 2 6 10]" {
		t.Errorf("handler saw confirms %v, want [1 2 6 10]: nothing that failed is resent", confirms)
	}
	if fmt.Sprint(restores) != "[8]" {
		t.Errorf("handler saw restores %v, want the replay's one for the lost confirm", restores)
	}
}
