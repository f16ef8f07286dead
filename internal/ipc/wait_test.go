package ipc

import (
	"context"
	"errors"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"convgpu/internal/errs"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// The tests in this file pin the edges of the rule by which an end waits
// for its socket without reading it first (package doc, "Reading"). Each
// fails, or hangs into its deadline, where an end waits after any short
// read.

// gate holds the first request its connection brings until open is
// closed, and closes closed when the connection drops.
type gate struct {
	Handler
	got, open, closed chan struct{}
	first             sync.Once
}

func (g *gate) Handle(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
	g.first.Do(func() { close(g.got); <-g.open })
	g.Handler.Handle(c, m, respond)
}

func (g *gate) Closed(*ServerConn) { close(g.closed) }

// closingPeer plays a peer whose last frames and close come in one wake:
// while the server's handler holds its first frame, a one-way free, the
// peer writes frames and closes, and the runtime polls the socket before
// the handler lets go. The event that wakes the server for those frames is
// then the last there will be, and the connection must still end: Closed
// fires and nothing leaks.
func closingPeer(t *testing.T, h Handler, frames ...*protocol.Message) {
	t.Helper()
	leak.Check(t)
	g := &gate{Handler: h, got: make(chan struct{}), open: make(chan struct{}), closed: make(chan struct{})}
	srv, err := listenFill(sockPath(t), g)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	out, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeFree, Seq: 1, PID: 1, Addr: 2, NoReply: true})
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	<-g.got
	out = out[:0]
	for _, m := range frames {
		out, _ = protocol.AppendEncodeBinary(out, m)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	conn.Close()
	time.Sleep(20 * time.Millisecond) // the runtime has polled the socket and taken the event
	close(g.open)
	select {
	case <-g.closed:
	case <-time.After(3 * time.Second):
		t.Fatal("the server waits on a connection whose close came with its last frames")
	}
}

// TestOneWayFrameThenClose: a peer writes one one-way frame and closes at
// once. The frame asks for no reply, so nothing is written after the read
// that takes it, and the close that came with it is only found by reading
// again.
func TestOneWayFrameThenClose(t *testing.T) { bothFills(t, testOneWayFrameThenClose) }

func testOneWayFrameThenClose(t *testing.T) {
	closingPeer(t, &echoHandler{}, &protocol.Message{Type: protocol.TypeConfirm, Seq: 2, PID: 1, Size: 64, Addr: 4, NoReply: true})
}

// TestFramesAndCloseInOneWake: a peer's frames and its close come in one
// wake with no reply due — one-way reports, an allocation the handler
// parks — or with a reply whose write meets the close and fails. No write
// succeeds after the read, so the server reads again and finds the end.
func TestFramesAndCloseInOneWake(t *testing.T) { bothFills(t, testFramesAndCloseInOneWake) }

func testFramesAndCloseInOneWake(t *testing.T) {
	confirm := &protocol.Message{Type: protocol.TypeConfirm, Seq: 2, PID: 1, Size: 64, Addr: 4, NoReply: true}
	free := &protocol.Message{Type: protocol.TypeFree, Seq: 3, PID: 1, Addr: 4, NoReply: true}
	alloc := &protocol.Message{Type: protocol.TypeAlloc, Seq: 4, PID: 1, Size: 64}
	meminfo := &protocol.Message{Type: protocol.TypeMemInfo, Seq: 5, PID: 1}
	t.Run("reports", func(t *testing.T) { closingPeer(t, &echoHandler{}, confirm, free) })
	t.Run("parked", func(t *testing.T) { closingPeer(t, &parkHandler{}, confirm, free, alloc) })
	t.Run("reply to a closed peer", func(t *testing.T) { closingPeer(t, &echoHandler{}, confirm, meminfo) })
}

// TestStaleRefusalAndReplyInOneRead: a Call's write carries a posted
// confirm in front of its own frame; the peer refuses the confirm and
// answers the Call in one write, which the client takes in one read. The
// Call returns the refusal, read ahead of its reply, and does not wait
// for more after that read; the next Call is served.
func TestStaleRefusalAndReplyInOneRead(t *testing.T) {
	bothFills(t, testStaleRefusalAndReplyInOneRead)
}

func testStaleRefusalAndReplyInOneRead(t *testing.T) {
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
	go func() { // answers every request; a refusal waits for the next answer's write
		s := splitter{buf: make([]byte, readBufSize)}
		var out []byte
		for {
			f, err := nextFrame(srvConn, &s)
			if err != nil {
				return
			}
			var m protocol.Message
			if f.decodeInto(&m) != nil {
				return
			}
			resp := &protocol.Message{Type: protocol.TypeResponse, Seq: m.Seq, OK: !m.NoReply, NoReply: m.NoReply}
			if m.NoReply {
				resp.Error, resp.Code = "address 0x1 not charged", errs.CodeUnavailable
			}
			if out, _ = protocol.AppendEncodeBinary(out, resp); m.NoReply {
				continue
			}
			if _, err := srvConn.Write(out); err != nil {
				return
			}
			out = out[:0]
		}
	}()
	heartbeat := func() error {
		return within(t, func() error {
			_, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeHeartbeat})
			return err
		})
	}
	if err := heartbeat(); err != nil { // the connection is known quiet after it
		t.Fatal(err)
	}
	if err := cli.Post(context.Background(), confirm(1)); err != nil {
		t.Fatal(err)
	}
	var ref *protocol.Refusal
	if err := heartbeat(); !errors.As(err, &ref) {
		t.Fatalf("the Call whose write carried the refused confirm = %v, want the refusal", err)
	}
	if err := heartbeat(); err != nil {
		t.Fatalf("the Call after it = %v", err)
	}
}

// TestFrameAheadOfTheWriteIsRead: a frame that reached the client while
// nobody read — an unsolicited frame on a fresh connection, the refusal
// of a free written at once — had its readiness event taken before the
// next Call armed the poller. That Call reads before it waits, so the
// refusal is stored while its own request waits, even behind a peer that
// does not read that request yet: a peer's read of a write raises an event
// on the writer's socket too, and this peer gives none.
func TestFrameAheadOfTheWriteIsRead(t *testing.T) { bothFills(t, testFrameAheadOfTheWriteIsRead) }

func testFrameAheadOfTheWriteIsRead(t *testing.T) {
	for _, fresh := range []bool{true, false} {
		leak.Check(t)
		ln, err := net.Listen("unix", sockPath(t))
		if err != nil {
			t.Fatal(err)
		}
		cliConn, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		srvConn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(wrapFill(cliConn))
		cli.useBinary.Store(true)
		resume := make(chan struct{})
		go func() { // answers in turn: the heartbeat, the free (refused), the alloc once resumed
			s := splitter{buf: make([]byte, readBufSize)}
			reply := func(resp *protocol.Message) bool {
				out, _ := protocol.AppendEncodeBinary(nil, resp)
				_, err := srvConn.Write(out)
				return err == nil
			}
			if fresh {
				if !reply(&protocol.Message{Type: protocol.TypeResponse, Seq: 99, NoReply: true, Error: "unsolicited"}) {
					return
				}
			} else {
				for _, refuse := range []bool{false, true} {
					f, err := nextFrame(srvConn, &s)
					resp := &protocol.Message{Type: protocol.TypeResponse, Seq: f.seq, OK: true}
					if refuse {
						resp.OK, resp.NoReply, resp.Error = false, true, "address 0x3 not charged"
					}
					if err != nil || !reply(resp) {
						return
					}
				}
			}
			<-resume
			if f, err := nextFrame(srvConn, &s); err == nil {
				reply(&protocol.Message{Type: protocol.TypeResponse, Seq: f.seq, OK: true})
			}
		}()
		if !fresh {
			if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
				t.Fatal(err)
			}
			if err := cli.Post(context.Background(), free(3)); err != nil {
				t.Fatal(err)
			}
		}
		time.Sleep(20 * time.Millisecond) // the runtime has polled the socket and taken the event
		done := make(chan error, 1)
		go func() {
			_, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
			done <- err
		}()
		for deadline := time.Now().Add(5 * time.Second); ; time.Sleep(time.Millisecond) {
			if cli.refused.Any() {
				break
			}
			if time.Now().After(deadline) {
				close(resume)
				t.Fatalf("fresh connection: %v: the frame ahead of the Call's write was not read while its request waited", fresh)
			}
		}
		close(resume)
		var ref *protocol.Refusal
		if err := <-done; !errors.As(err, &ref) {
			t.Errorf("fresh connection: %v: the Call = %v, want the refusal read ahead of its reply", fresh, err)
		}
		cli.Close()
		srvConn.Close()
		ln.Close()
	}
}

// TestEndedContextStillSendsItsFrame: a Call whose context ended before it
// became the reader — its wake spent on the Call before it — finds nobody
// reading, sends its frame all the same, and returns ctx.Err() without
// waiting for the reply.
func TestEndedContextStillSendsItsFrame(t *testing.T) {
	bothFills(t, testEndedContextStillSendsItsFrame)
}

func testEndedContextStillSendsItsFrame(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{park: make(chan struct{})}
	cli, _ := oneWayRig(t, h, true)
	release := sync.OnceFunc(func() { close(h.park) })
	defer release()
	ctx, cancel := context.WithCancel(context.Background())
	suspended := make(chan error, 1)
	go func() {
		_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
		suspended <- err
	}()
	for deadline := time.Now().Add(5 * time.Second); len(h.types()) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the alloc never reached the handler")
		}
	}
	cancel()
	if err := <-suspended; !errors.Is(err, context.Canceled) {
		t.Fatalf("the suspended Call = %v", err)
	}
	err := within(t, func() error {
		_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 3})
		return err
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("a Call under the ended context = %v, want context.Canceled", err)
	}
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprint(h.types()), "[alloc meminfo heartbeat]"; got != want {
		t.Errorf("handler saw %s, want %s: the ended Call's frame goes out", got, want)
	}
}

// TestPastDeadlineAtEntry: a wake that came when no Call was reading left
// the read deadline in the past, so the next reader's RawConn.Read fails
// at entry, before its callback has written the Call's frame. The Call
// clears it, writes its frame once and gets its reply — with the
// connection known quiet and without.
func TestPastDeadlineAtEntry(t *testing.T) { bothFills(t, testPastDeadlineAtEntry) }

func testPastDeadlineAtEntry(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	cli, _ := oneWayRig(t, h, true)
	if err := cli.Post(context.Background(), free(2)); err != nil { // written at once: not quiet
		t.Fatal(err)
	}
	for size := int64(1); size <= 2; size++ {
		cli.wake()
		err := within(t, func() error {
			resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo, Size: size})
			if err == nil && resp.Free != size {
				err = fmt.Errorf("reply %+v", resp)
			}
			return err
		})
		if err != nil {
			t.Fatalf("Call %d after a wake nobody took: %v", size, err)
		}
	}
	if got, want := fmt.Sprint(h.types()), "[free meminfo meminfo]"; got != want {
		t.Errorf("handler saw %s, want %s", got, want)
	}
}

// TestStagedFrameCarriedOut: a Call stages its frame and, before it arms
// the poller, another goroutine's Post writes the frame out with its own.
// The reply can then be in the socket, its readiness event taken, before
// the Call reads: the Call's flush writes nothing, so it reads before it
// waits and gets its reply.
func TestStagedFrameCarriedOut(t *testing.T) { bothFills(t, testStagedFrameCarriedOut) }

func testStagedFrameCarriedOut(t *testing.T) {
	leak.Check(t)
	h := &refuseHandler{}
	cli, _ := oneWayRig(t, h, true)
	ctx := context.Background()
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil { // the connection is known quiet after it
		t.Fatal(err)
	}
	// The Call up to its await: a seq, a slot, the frame staged.
	cli.mu.Lock()
	seq, ch := cli.seq.Add(1), make(chan *protocol.Message, 1)
	cli.overflow = map[uint64]chan *protocol.Message{seq: ch}
	cli.mu.Unlock()
	cli.inFlight.Add(1)
	defer cli.inFlight.Add(-1)
	if err := cli.w.stage(&protocol.Message{Type: protocol.TypeMemInfo, Seq: seq, Size: 5}, true); err != nil {
		t.Fatal(err)
	}
	posted := make(chan error, 1)
	go func() { posted <- cli.Post(ctx, free(2)) }() // nothing waits ahead of a free: written at once, the staged frame first
	if err := <-posted; err != nil {
		t.Fatal(err)
	}
	time.Sleep(20 * time.Millisecond) // the reply has come and the runtime has taken its event
	err := within(t, func() error {
		resp, err := cli.await(ctx, seq, ch)
		if err == nil && resp.Free != 5 {
			err = fmt.Errorf("reply %+v", resp)
		}
		return err
	})
	if err != nil {
		t.Fatalf("the Call whose staged frame another writer carried out: %v", err)
	}
	if err := cli.received(seq, false); err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat}); err != nil {
		t.Fatalf("the Call after it: %v", err)
	}
	if got, want := fmt.Sprint(h.types()), "[heartbeat meminfo free heartbeat]"; got != want {
		t.Errorf("handler saw %s, want %s", got, want)
	}
}

// TestCallOnADeadWriter: a Call whose frame meets a dead writer — one a
// failed write stopped, or one whose flush fails behind a confirm still
// waiting in the buffer — returns ErrClosed at once, waiting for no reply.
func TestCallOnADeadWriter(t *testing.T) { bothFills(t, testCallOnADeadWriter) }

func testCallOnADeadWriter(t *testing.T) {
	leak.Check(t)
	for _, waiting := range []bool{false, true} {
		ln, err := net.Listen("unix", sockPath(t))
		if err != nil {
			t.Fatal(err)
		}
		cliConn, err := net.Dial("unix", ln.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		srvConn, err := ln.Accept()
		if err != nil {
			t.Fatal(err)
		}
		cli := NewClient(wrapFill(cliConn))
		cli.useBinary.Store(true)
		srvConn.Close()
		ctx := context.Background()
		if waiting {
			if err := cli.Post(ctx, confirm(2)); err != nil {
				t.Fatal(err)
			}
		} else if err := cli.Post(ctx, free(2)); !errors.Is(err, ErrClosed) {
			t.Fatalf("a free written to a closed peer = %v, want ErrClosed", err)
		}
		err = within(t, func() error {
			_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat})
			return err
		})
		if !errors.Is(err, ErrClosed) {
			t.Errorf("confirm waiting: %v: the Call = %v, want ErrClosed", waiting, err)
		}
		cli.Close()
		ln.Close()
	}
}

// within runs f and fails the test if it takes more than 5 s.
func within(t *testing.T, f func() error) error {
	t.Helper()
	done := make(chan error, 1)
	go func() { done <- f() }()
	select {
	case err := <-done:
		return err
	case <-time.After(5 * time.Second):
		t.Fatal("stuck for 5 s")
		return nil
	}
}
