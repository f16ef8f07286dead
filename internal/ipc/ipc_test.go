package ipc

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"convgpu/internal/protocol"
)

// echoHandler responds immediately, echoing the request's Size.
type echoHandler struct {
	closed int32
}

func (h *echoHandler) Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	respond(&protocol.Message{OK: true, Free: msg.Size})
}

func (h *echoHandler) Closed(conn *ServerConn) { atomic.AddInt32(&h.closed, 1) }

// parkHandler withholds responses until Release is called — the same
// mechanism the scheduler uses to suspend an allocation.
type parkHandler struct {
	parkAll bool // park every request, not just allocations
	mu      sync.Mutex
	parked  []func(*protocol.Message)
}

func (h *parkHandler) Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	if h.parkAll || msg.Type == protocol.TypeAlloc {
		h.mu.Lock()
		h.parked = append(h.parked, respond)
		h.mu.Unlock()
		return
	}
	respond(&protocol.Message{OK: true})
}

func (h *parkHandler) Closed(conn *ServerConn) {}

func (h *parkHandler) Release() int {
	h.mu.Lock()
	parked := h.parked
	h.parked = nil
	h.mu.Unlock()
	for _, r := range parked {
		r(&protocol.Message{OK: true, Decision: protocol.DecisionAccept})
	}
	return len(parked)
}

func sockPath(t *testing.T) string {
	t.Helper()
	// Unix socket paths are length-limited (~104 bytes); keep them short.
	return filepath.Join(t.TempDir(), "s.sock")
}

func TestCallRoundTrip(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo, Size: 1234})
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK || resp.Free != 1234 {
		t.Fatalf("resp = %+v, want OK with Free=1234", resp)
	}
}

func TestConcurrentCallsMultiplex(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const n = 64
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 1; i <= n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo, Size: int64(i)})
			if err != nil {
				errs <- err
				return
			}
			if resp.Free != int64(i) {
				errs <- fmt.Errorf("call %d got Free=%d", i, resp.Free)
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

func TestSuspendedResponseDelivery(t *testing.T) {
	h := &parkHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	got := make(chan *protocol.Message, 1)
	go func() {
		resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
		if err == nil {
			got <- resp
		} else {
			close(got)
		}
	}()

	// While one request is parked, a second request on the same
	// connection must still get through.
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.parked)
		h.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("alloc request never reached the handler")
		}
		time.Sleep(100 * time.Microsecond)
	}
	resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil || !resp.OK {
		t.Fatalf("second call during suspension: resp=%+v err=%v", resp, err)
	}
	select {
	case <-got:
		t.Fatal("suspended call returned before Release")
	default:
	}

	if n := h.Release(); n != 1 {
		t.Fatalf("Release freed %d requests, want 1", n)
	}
	select {
	case resp, ok := <-got:
		if !ok {
			t.Fatal("suspended call failed")
		}
		if resp.Decision != protocol.DecisionAccept {
			t.Fatalf("suspended call resp = %+v", resp)
		}
	case <-time.After(2 * time.Second):
		t.Fatal("suspended call never completed after Release")
	}
}

func TestCallContextCancel(t *testing.T) {
	h := &parkHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	_, err = cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
	if err != context.DeadlineExceeded {
		t.Fatalf("Call err = %v, want DeadlineExceeded", err)
	}
}

func TestClientCloseFailsInflight(t *testing.T) {
	h := &parkHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	errCh := make(chan error, 1)
	go func() {
		_, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
		errCh <- err
	}()
	deadline := time.Now().Add(2 * time.Second)
	for {
		h.mu.Lock()
		n := len(h.parked)
		h.mu.Unlock()
		if n == 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request never parked")
		}
		time.Sleep(100 * time.Microsecond)
	}
	cli.Close()
	select {
	case err := <-errCh:
		if err == nil {
			t.Fatal("in-flight call succeeded after Close")
		}
	case <-time.After(2 * time.Second):
		t.Fatal("in-flight call did not fail after Close")
	}
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); err == nil {
		t.Fatal("Call on closed client succeeded")
	}
}

func TestServerCloseNotifiesHandler(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	srv.Close() // waits for connection goroutines
	if n := atomic.LoadInt32(&h.closed); n != 1 {
		t.Fatalf("Closed called %d times, want 1", n)
	}
	cli.Close()
}

// TestRetireFreesThePath: a retired server's socket file is gone when
// Retire returns, and its connections, closing afterwards, leave alone
// the file of a server that listened on the path since — a container
// closed and registered again under the same ID.
func TestRetireFreesThePath(t *testing.T) {
	path := sockPath(t)
	h := &echoHandler{}
	old, err := Listen(path, h)
	if err != nil {
		t.Fatal(err)
	}
	cli, err := Dial(path)
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	old.Retire()
	if _, err := os.Stat(path); !os.IsNotExist(err) {
		t.Fatalf("socket file after Retire: %v, want it gone", err)
	}
	next, err := Listen(path, &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer next.Close()
	for deadline := time.Now().Add(5 * time.Second); atomic.LoadInt32(&h.closed) == 0; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatal("the retired server never closed its connection")
		}
	}
	cli2, err := Dial(path)
	if err != nil {
		t.Fatalf("dial the new server after the old one closed: %v", err)
	}
	defer cli2.Close()
	if _, err := cli2.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
}

type handlerFunc struct {
	handle func(*ServerConn, *protocol.Message, func(*protocol.Message))
}

func (h handlerFunc) Handle(c *ServerConn, m *protocol.Message, r func(*protocol.Message)) {
	h.handle(c, m, r)
}
func (h handlerFunc) Closed(c *ServerConn) {}

func TestRespondOnceSuppressesDuplicates(t *testing.T) {
	h := handlerFunc{
		handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
			respond(&protocol.Message{OK: true, Free: 1})
			respond(&protocol.Message{OK: true, Free: 2}) // must be dropped
		},
	}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Free != 1 {
		t.Fatalf("got Free=%d, want first response (1)", resp.Free)
	}
	// A second call still works; the duplicate did not corrupt framing.
	resp, err = cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil || resp.Free != 1 {
		t.Fatalf("followup call resp=%+v err=%v", resp, err)
	}
}

func TestMalformedFrameDoesNotKillConnection(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	// Inject garbage directly, then make a normal call.
	if _, err := cli.conn.Write([]byte("this is not json\n")); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 7})
	if err != nil {
		t.Fatalf("call after garbage frame: %v", err)
	}
	if resp.Free != 7 {
		t.Fatalf("resp = %+v", resp)
	}
}

func TestDialMissingSocket(t *testing.T) {
	if _, err := Dial(filepath.Join(t.TempDir(), "absent.sock")); err == nil {
		t.Fatal("Dial on missing socket succeeded")
	}
}

// TestMalformedFrameEchoesSeq: a malformed message whose line still
// carries a recoverable sequence number gets an error response under
// that sequence number, so the caller correlates the failure instead of
// timing out.
func TestMalformedFrameEchoesSeq(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	// Make one good call to learn the client's next seq, then inject a
	// bad line claiming the following seq directly, and wait for its
	// error response through the normal Call plumbing by racing a real
	// Call that will take that seq.
	resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil || !resp.OK {
		t.Fatalf("warmup: %+v %v", resp, err)
	}
	badSeq := resp.Seq + 1
	// Register interest in badSeq as a pending call would.
	ch := make(chan *protocol.Message, 1)
	cli.mu.Lock()
	if cli.overflow == nil {
		cli.overflow = make(map[uint64]chan *protocol.Message)
	}
	cli.overflow[badSeq] = ch
	cli.seq.Store(badSeq)
	cli.mu.Unlock()
	// An alloc with a negative size decodes structurally but fails
	// Validate — exactly the "malformed but seq still extractable" case.
	bad := fmt.Sprintf(`{"type":"alloc","seq":%d,"pid":1,"size":-1}`+"\n", badSeq)
	if _, err := cli.conn.Write([]byte(bad)); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	got, err := cli.await(ctx, badSeq, ch) // as the pending call would
	if err != nil {
		t.Fatalf("no error response for malformed frame with extractable seq: %v", err)
	}
	if got.Seq != badSeq {
		t.Fatalf("error response seq = %d, want %d", got.Seq, badSeq)
	}
	if got.OK || got.Error == "" {
		t.Fatalf("error response = %+v, want !OK with error text", got)
	}
}

// TestLateResponseAfterCancelDoesNotBlockReadLoop is the regression test
// for a response racing forget after a Call context cancellation: the
// reading Call must drop (not block on) responses for forgotten sequence
// numbers, and the connection must stay fully usable.
func TestLateResponseAfterCancelDoesNotBlockReadLoop(t *testing.T) {
	h := &parkHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	for i := 0; i < 50; i++ {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64})
			done <- err
		}()
		// Wait until the request is parked server-side, then release it
		// and cancel the call at the same instant — the response and the
		// forget race.
		deadline := time.Now().Add(2 * time.Second)
		for {
			h.mu.Lock()
			n := len(h.parked)
			h.mu.Unlock()
			if n >= 1 {
				break
			}
			if time.Now().After(deadline) {
				t.Fatal("request never parked")
			}
			time.Sleep(50 * time.Microsecond)
		}
		go h.Release()
		cancel()
		if err := <-done; err != nil && err != context.Canceled {
			t.Fatalf("iteration %d: Call err = %v", i, err)
		}
		// The read loop must still be serving: a fresh call succeeds.
		ctx2, cancel2 := context.WithTimeout(context.Background(), 2*time.Second)
		resp, err := cli.Call(ctx2, &protocol.Message{Type: protocol.TypeMemInfo})
		cancel2()
		if err != nil || !resp.OK {
			t.Fatalf("iteration %d: follow-up call resp=%+v err=%v", i, resp, err)
		}
	}
}

// TestRespondedMessageNotAliased asserts the pool ownership rule end to
// end: after respond returns (and the message goes back to the pool), a
// concurrent burst of traffic reusing pooled messages must never leak
// into an earlier response observed by the client.
func TestRespondedMessageNotAliased(t *testing.T) {
	h := handlerFunc{
		handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
			resp := protocol.AcquireMessage()
			resp.OK = true
			resp.Free = m.Size
			respond(resp)
		},
	}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	const goroutines = 8
	const iters = 400
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < iters; i++ {
				want := int64(g*iters + i + 1)
				resp, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo, Size: want})
				if err != nil {
					errs <- err
					return
				}
				if resp.Free != want {
					errs <- fmt.Errorf("goroutine %d iter %d: Free=%d want %d (pooled message aliased?)", g, i, resp.Free, want)
					return
				}
				protocol.ReleaseMessage(resp)
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
}

// TestBatchedSendsCoalesce verifies BeginBatch/EndBatch delivery: every
// message sent inside a batch arrives after EndBatch.
func TestBatchedSendsCoalesce(t *testing.T) {
	conns := make(chan *ServerConn, 1)
	h := handlerFunc{
		handle: func(c *ServerConn, m *protocol.Message, respond func(*protocol.Message)) {
			select {
			case conns <- c:
			default:
			}
			respond(&protocol.Message{OK: true})
		},
	}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if _, err := cli.Call(context.Background(), &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	sc := <-conns

	// Park interest in 100 unsolicited "responses" the server pushes in
	// one batch (sequence numbers far above the client's counter).
	const n = 100
	chans := make(map[uint64]chan *protocol.Message, n)
	cli.mu.Lock()
	if cli.overflow == nil {
		cli.overflow = make(map[uint64]chan *protocol.Message)
	}
	for i := uint64(1000); i < 1000+n; i++ {
		ch := make(chan *protocol.Message, 1)
		cli.overflow[i] = ch
		chans[i] = ch
	}
	cli.mu.Unlock()

	sc.BeginBatch()
	for i := uint64(1000); i < 1000+n; i++ {
		if err := sc.w.write(&protocol.Message{Type: protocol.TypeResponse, Seq: i, OK: true}, false); err != nil {
			t.Fatal(err)
		}
	}
	if err := sc.EndBatch(); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Second)
	defer cancel()
	for seq, ch := range chans { // the first to wait reads for the rest
		if _, err := cli.await(ctx, seq, ch); err != nil {
			t.Fatalf("batched message seq=%d never delivered: %v", seq, err)
		}
	}
}
