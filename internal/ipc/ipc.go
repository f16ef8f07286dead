// Package ipc implements the UNIX-domain-socket transport ConVGPU uses
// between the host-side scheduler and the per-container wrapper modules
// (paper §III-A). The paper chose UNIX sockets because Docker blocks other
// host<->container IPC and TCP costs more; the scheduler creates one
// socket per container inside a shared volume directory.
//
// Two framings share a connection (package protocol): newline-delimited
// JSON, the control and debug format a bare Dial speaks, and the
// length-prefixed binary frames of the data path, which a client
// negotiates (DialNegotiated and the Reconnector do, with a TypeCodec
// probe answered at this layer). The server answers each request in the
// codec it arrived in. The first byte tells them apart — 0xBF starts a
// binary frame (any byte >= 0x80 is an attempted one, checked by the
// header checksum), '{' a JSON line — so no codec state can desync:
// negotiation only lets the client send binary. A response too large for
// a binary frame goes as a JSON line.
//
// A connection multiplexes concurrent requests: responses are matched
// to requests by sequence number, so the scheduler can withhold the
// response to a suspended allocation while continuing to serve the
// container's other processes. The client has no read loop: the Call
// waiting for a reply reads the connection itself, for the others too
// while it does (see Client).
//
// # Reading
//
// Neither end reads what it knows is empty: on a UNIX socket both read
// inside syscall.RawConn.Read and wait without the read that would only
// return EAGAIN when a write that started after their last read has
// reached the peer (coalescer.wroteSince) — a peer that had closed would
// have failed it. The client's Call stages its frame in the write buffer
// and flushes it from inside RawConn.Read, after the poller was armed, on
// the fd the callback holds; the server's callback writes the replies to
// a read's frames there too (coalescer.send). Another writer may carry a staged frame out first — the deferral timer,
// another goroutine's Post or Call — and the reply can then be in the
// socket before the poller was armed: the Call's flush writes nothing, no
// write started after its mark has succeeded, and the Call reads first.
//
// # Write coalescing
//
// Each connection's writes go through one coalescer: at most one goroutine
// writes at a time, and frames handed in meanwhile leave in its next write
// (BeginBatch/EndBatch hold a burst for one). An uncontended send is
// written at once, except on the client: a Call's frame waits for the Call
// to read (see Reading), a posted confirm for the next frame or deferBound
// (see Client.Post). Messages are pooled and each frame is encoded once,
// into that buffer, so a binary request cycle allocates nothing; Handler
// says what that asks of a handler (DESIGN.md §7).
package ipc

import (
	"cmp"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/protocol"
)

// MaxLine bounds a single message line. A message is a small JSON object;
// anything larger indicates a corrupt or hostile peer.
const MaxLine = 64 * 1024

// readBufSize is a read buffer's first size: a burst of ~100 coalesced lines.
const readBufSize = 16 * 1024

// ErrClosed is returned for operations on a closed client or server. It
// is the one sentinel for peer death: whether a read saw the EOF or a
// write hit the dead socket first, the error matches ErrClosed.
var ErrClosed = errors.New("ipc: connection closed")

// closedErr folds the errors that mean "the peer or this client is gone"
// into ErrClosed, keeping the OS error in the text. Anything else (a
// corrupt frame that condemned the connection) passes through.
func closedErr(err error) error {
	switch {
	case err == io.EOF:
		return ErrClosed
	case errors.Is(err, io.ErrUnexpectedEOF), errors.Is(err, syscall.EPIPE),
		errors.Is(err, syscall.ECONNRESET), errors.Is(err, net.ErrClosed):
		return fmt.Errorf("%w: %v", ErrClosed, err)
	}
	return err
}

// Handler reacts to requests arriving on a server connection.
//
// Handle must eventually call respond exactly once with the response
// message; it may do so after returning (that is how the scheduler
// suspends an allocation: it parks respond until memory is granted).
// The transport drops a second call, except one that comes after Handle
// returned having answered: respond serves the connection's next request
// by then (see responder), and such a call may answer that one.
// Closed is invoked once when the connection drops, letting the scheduler
// release any requests still parked on it.
//
// Ownership: msg is pooled — it is valid only until Handle returns, and
// a handler that needs it afterwards (e.g. to serve it on another
// goroutine) must work on msg.Clone(). The message passed to respond is
// consumed: the transport writes it and returns it to the pool, so the
// caller must not touch it after respond returns.
//
// A one-way request (msg.NoReply) has nobody waiting: a success needs no
// respond at all (respond swallows one), and respond sends a refusal back
// as an unsolicited error frame. For such a request Handle must call
// respond before it returns, if at all — one-way requests cannot be
// parked (protocol.Validate admits the marker only on verbs that are
// answered at once).
type Handler interface {
	Handle(conn *ServerConn, msg *protocol.Message, respond func(*protocol.Message))
	Closed(conn *ServerConn)
}

// Server accepts connections on a UNIX socket and dispatches messages to
// a Handler.
type Server struct {
	ln      net.Listener
	handler Handler
	wg      sync.WaitGroup
	stats   atomic.Pointer[WireStats]
	latency atomic.Pointer[LatencyObserver]

	mu     sync.Mutex
	conns  map[*ServerConn]struct{}
	closed bool
	done   chan struct{} // closed by Close: ends an accept back-off
}

// SetWireStats installs a per-frame counter sink (shared across the
// server's connections; safe to install after Listen). A nil receiver
// or nil stats disables counting.
func (s *Server) SetWireStats(w *WireStats) {
	if s != nil {
		s.stats.Store(w)
	}
}

// SetHandlerLatency installs the sink for one sample per request handed
// to the Handler that wants a reply (safe after Listen; nil disables
// timing): from the previous such request's Handle return, or the read
// that brought it (ServerConn.ReadTime), to its own Handle's return. A one-way frame is no
// sample and reads no clock; it is part of the sample of the request
// after it in the same read, as it is part of the round trip the sender
// waits on. A frame the transport answers itself (a codec probe, one that
// does not decode) is no sample either, and part of the next one's.
func (s *Server) SetHandlerLatency(o LatencyObserver) { s.latency.Store(&o) }

// Listen creates a UNIX socket at path and starts accepting connections.
func Listen(path string, h Handler) (*Server, error) {
	return ListenNet("unix", path, h)
}

// ListenNet is Listen over an arbitrary network ("unix", "tcp"). The
// paper chose UNIX sockets over TCP for complexity and performance
// reasons (§III-A); the TCP path exists so the transport ablation can
// measure that choice.
func ListenNet(network, addr string, h Handler) (*Server, error) {
	ln, err := net.Listen(network, addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: listen %s %s: %w", network, addr, err)
	}
	return NewServer(ln, h), nil
}

// NewServer serves connections accepted from an established listener —
// the seam through which tests and the fault-injection harness
// substitute a wrapped net.Listener.
func NewServer(ln net.Listener, h Handler) *Server {
	s := &Server{ln: ln, handler: h, conns: make(map[*ServerConn]struct{}), done: make(chan struct{})}
	s.wg.Add(1)
	go s.acceptLoop()
	return s
}

// Addr returns the socket path the server listens on.
func (s *Server) Addr() string { return s.ln.Addr().String() }

// acceptLoop ends only when the listener is closed. Any other failure
// (EMFILE, ENFILE, ENOBUFS, ENOMEM) waits 5 ms, doubling to 1 s, and tries
// again, as net/http.Server.Serve does; WireStats counts each wait.
func (s *Server) acceptLoop() {
	defer s.wg.Done()
	var backoff time.Duration
	for {
		c, err := s.ln.Accept()
		if errors.Is(err, net.ErrClosed) {
			return
		} else if err != nil {
			backoff = min(max(2*backoff, 5*time.Millisecond), time.Second)
			if w := s.stats.Load(); w != nil {
				w.backoffs.Add(1)
			}
			select {
			case <-time.After(backoff):
			case <-s.done:
				return
			}
			continue
		}
		backoff = 0
		sc := &ServerConn{conn: c, server: s, w: newCoalescer(c, &s.stats)}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[sc] = struct{}{}
		s.mu.Unlock()
		s.wg.Add(1)
		go func() {
			defer s.wg.Done()
			sc.readLoop(s.handler)
			// A poisoned frame (oversized, unreadable) leaves the socket
			// open: close it, or the peer waits for a reply that never comes.
			sc.conn.Close()
			s.mu.Lock()
			delete(s.conns, sc)
			s.mu.Unlock()
			s.handler.Closed(sc)
		}()
	}
}

// Close shuts the listener and all live connections down and waits for
// the handler goroutines to drain.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.done)
	conns := make([]*ServerConn, 0, len(s.conns))
	for c := range s.conns {
		conns = append(conns, c)
	}
	s.mu.Unlock()
	err := s.ln.Close()
	for _, c := range conns {
		c.conn.Close()
	}
	s.wg.Wait()
	return err
}

// Retire stops accepting at once (a UNIX socket's file is unlinked before
// it returns) and closes the live connections in the background.
func (s *Server) Retire() {
	s.ln.Close()
	go s.Close()
}

// ServerConn is one accepted connection.
type ServerConn struct {
	conn   net.Conn
	server *Server
	w      *coalescer

	// The one-way request being handled, for respondOneWay to name in a
	// refusal. Owned by the read loop: requests on a connection are
	// handled one at a time, and a one-way request is answered inside
	// Handle.
	oneWaySeq  uint64
	oneWayType protocol.Type
	readAt     time.Duration // clock.Elapsed at the current read; 0 without a latency sink
}

// ReadTime is the clock.Real stamp of the read that brought the request
// being handled, the same for each of its frames (Handle's to call). It is
// zero on a nil conn and when the server keeps no handler-latency sink.
func (c *ServerConn) ReadTime() time.Time {
	if c == nil || c.readAt == 0 {
		return time.Time{}
	}
	return clock.At(c.readAt)
}

// BeginBatch suspends flushing until its EndBatch, so a burst of responses
// (the ones one scheduler Update releases) leaves in one write.
func (c *ServerConn) BeginBatch() { c.w.beginBatch() }

// EndBatch re-enables flushing and flushes what the batch buffered.
func (c *ServerConn) EndBatch() error { return c.w.endBatch(noFD) }

func (c *ServerConn) readLoop(h Handler) {
	s := splitter{buf: make([]byte, readBufSize)}
	msg := protocol.AcquireMessage()
	defer protocol.ReleaseMessage(msg)
	oneWay := c.respondOneWay // built once: a one-way frame costs no closure
	rsp := newResponder(c)
	var err error     // what ended the stream
	serve := func() { // every whole frame in the buffer, in order
		var lat LatencyObserver
		c.readAt = 0 // the read's one reading (ReadTime), taken only for a sample
		if p := c.server.latency.Load(); p != nil && *p != nil {
			lat, c.readAt = *p, clock.Elapsed()
		}
		stamp := c.readAt // where the next request's sample starts
		stats := c.server.stats.Load()
		var frames [2]uint64 // [binary]: counted once per read
		for {
			f, ok, ferr := s.next()
			if !ok { // ferr condemns the connection: the caller closes it
				stats.countFrames(false, false, frames[0])
				stats.countFrames(true, false, frames[1])
				err = ferr
				return
			}
			frames[b2i(f.binary)]++
			sampled := false
			if derr := f.decodeInto(msg); derr != nil {
				stats.CountFrameError()
				c.answerUndecodable(f, msg.NoReply, derr)
			} else if msg.Type == protocol.TypeCodec {
				c.answerCodec(f.binary, msg, stats)
			} else {
				respond := oneWay
				if msg.NoReply {
					c.oneWaySeq, c.oneWayType = msg.Seq, msg.Type
				} else {
					if rsp.pending.Load() { // parked: it is its holder's now
						rsp = newResponder(c)
					}
					rsp.seq, rsp.binary = msg.Seq, f.binary
					rsp.pending.Store(true)
					respond = rsp.fn
					sampled = lat != nil
				}
				safeHandle(h, c, msg, respond)
			}
			msg.Reset()
			if sampled {
				now := clock.Elapsed()
				lat.Observe(now - stamp)
				stamp = now
			}
		}
	}
	// readable is the RawConn.Read callback: one read, its frames' replies
	// batched onto fd; it waits without reading again once one reached the peer.
	readable := func(fd uintptr) bool {
		mark := c.w.mark()
		short, rerr := s.readFD(fd)
		if rerr == syscall.EAGAIN {
			return false
		}
		if err = rerr; err == nil {
			c.w.beginBatch()
			serve()
			_ = c.w.endBatch(int(fd)) // kept in w.err: the next write fails, the next read ends the loop
		}
		return err != nil || !short || !c.w.wroteSince(mark)
	}
	raw := rawConn(c.conn)
	for err == nil {
		if raw != nil {
			if rerr := raw.Read(readable); rerr != nil {
				err = rerr
			}
		} else if err = s.fill(c.conn); err == nil {
			serve()
		}
	}
}

// answerUndecodable answers a malformed frame with an error echoing its
// sequence number when one can still be extracted — from the validated
// binary header, or scanned out of the bad JSON line — so the caller can
// correlate the failure instead of timing out. A one-way frame's sender
// waits on no seq, so its error goes back marked, like a refusal (the
// message keeps what the header said even when the payload did not decode).
func (c *ServerConn) answerUndecodable(f frame, noReply bool, err error) {
	resp := protocol.AcquireMessage()
	resp.Type = protocol.TypeResponse
	resp.Seq = f.errorSeq()
	resp.Error = err.Error()
	resp.NoReply = noReply
	c.w.write(resp, f.binary)
	protocol.ReleaseMessage(resp)
}

// answerCodec answers a codec probe. Negotiation is transport business:
// answered here, every server (control and per-container) supports it
// with no handler involvement, echoing the token a client must see before
// it starts sending binary frames.
func (c *ServerConn) answerCodec(binary bool, msg *protocol.Message, stats *WireStats) {
	resp := protocol.AcquireMessage()
	resp.Type = protocol.TypeResponse
	resp.Seq = msg.Seq
	if msg.Data == protocol.BinaryCodecToken {
		resp.OK = true
		resp.Data = protocol.BinaryCodecToken
		stats.countNegotiation()
	} else {
		resp.Error = fmt.Sprintf("ipc: unknown codec %q", msg.Data)
	}
	c.w.write(resp, binary)
	protocol.ReleaseMessage(resp)
}

// respondOneWay is respond for a one-way request: nobody waits for the
// answer, so a success ends here and a refusal goes back as an error
// frame carrying the request's seq and the one-way marker, which the
// client holds for its next call. Allocation-free on the success path —
// one-way frames are two of the four an allocation cycle sends.
func (c *ServerConn) respondOneWay(resp *protocol.Message) {
	if !resp.OK {
		resp.Type = protocol.TypeResponse
		resp.Seq = c.oneWaySeq
		resp.NoReply = true
		resp.Error = protocol.NewRefusal(c.oneWayType, resp).Text
		c.w.write(resp, true)
	}
	protocol.ReleaseMessage(resp)
}

// safeHandle runs Handle with panic recovery, so one request tripping a bug
// does not take the daemon down: it gets an error response (a no-op if the
// handler had responded) and the connection keeps serving.
func safeHandle(h Handler, c *ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	defer func() {
		if r := recover(); r != nil {
			resp := protocol.AcquireMessage()
			resp.Error = fmt.Sprintf("ipc: handler panic: %v", r)
			respond(resp)
		}
	}()
	h.Handle(c, msg, respond)
}

// responder is respond for a request that wants a reply: it answers in
// the request's codec under its seq — hours later, for a parked
// allocation — and once only, so a handler that calls respond again (a
// bug) puts no duplicate on the wire. The read loop arms one for request
// after request, so answering at once allocates nothing; one still
// pending when the next request comes is left to its holder and replaced.
// Arming cannot race a late answer: respond reads seq and binary before
// it gives pending up, the loop writes them only after it saw pending
// false (requests are handled one at a time, as respondOneWay assumes).
type responder struct {
	c       *ServerConn
	seq     uint64
	binary  bool
	pending atomic.Bool                  // armed and not answered yet
	fn      func(resp *protocol.Message) // respond, bound once
}

func newResponder(c *ServerConn) *responder {
	r := &responder{c: c}
	r.fn = r.respond
	return r
}

func (r *responder) respond(resp *protocol.Message) {
	seq, binary := r.seq, r.binary
	if r.pending.CompareAndSwap(true, false) {
		resp.Seq, resp.Type = seq, protocol.TypeResponse
		r.c.w.write(resp, binary)
	}
	// The transport consumes the response whether or not it was the
	// winning call; see Handler's ownership contract.
	protocol.ReleaseMessage(resp)
}

// callRingSize is how many in-flight calls the client's ring tracks (a
// power of two: seqs index it by mask). Its channels are reused; calls
// beyond it (a 65th parked allocation) spill to a map, a channel each.
const callRingSize = 64

// callSlot is one ring entry: the seq currently owning the slot (0 =
// free) and its reusable buffered response channel.
type callSlot struct {
	seq uint64
	ch  chan *protocol.Message
}

// Client is the wrapper-module side of a connection.
//
// It has no read loop. The Call that waits for a reply reads the
// connection itself, so a reply wakes the goroutine that wants it and no
// other: one park in the network poller per round trip, as in a bare
// blocking read, where a reader goroutine handing replies over a channel
// made it two. While several Calls are in flight one of them reads for
// all (the holder of readTok), hands the others their replies through
// their ring slots, and passes the role on when its own reply has come.
// Nothing is read while no Call waits: a refusal of a one-way request
// stays in the socket until the next Call, which reads it ahead of its
// own reply, and a dead peer is found by the next write or read.
type Client struct {
	conn  net.Conn
	w     *coalescer
	stats atomic.Pointer[WireStats]

	// useBinary flips to true after a successful NegotiateBinary; it
	// only ever gates what this side sends — reads always dispatch per
	// frame — so there is no state to desync.
	useBinary atomic.Bool
	inFlight  atomic.Int64
	seq       atomic.Uint64 // the last sequence number a Call or Post took
	// refused holds one-way requests' refusals (*protocol.Refusal) from
	// the moment a reading Call takes them off the wire until the next
	// Call or Post returns them, once.
	refused protocol.Held

	mu       sync.Mutex
	ring     [callRingSize]callSlot
	overflow map[uint64]chan *protocol.Message
	closed   bool
	readErr  error

	// readTok holds its one token while nobody reads; the Call that takes
	// it owns rd and the fields after it until it puts the token back.
	readTok  chan struct{}
	rd       splitter
	raw      syscall.RawConn    // nil: rd is filled by conn.Read
	readable func(uintptr) bool // onReadable, bound once
	staged   bool               // the reading Call's frame waits in the write buffer, for readable to flush
	sent     uint64             // the generation of the write that flushed it
	quiet    uint64             // see onReadable
	rerr     error              // what readable's last read or write returned
	wake     func()             // ends a blocked read: the read deadline goes into the past
	// wake stays registered (an AfterFunc) with the context of the last
	// Call that read, whose Done channel is watched: a container's calls
	// all come under one context. unwatch, under mu, ends it (fail does too).
	watched <-chan struct{}
	unwatch func() bool
}

// SetWireStats installs a per-frame counter sink. Nil disables.
func (c *Client) SetWireStats(w *WireStats) { c.stats.Store(w) }

// InFlight reports the number of Calls currently outstanding — the
// pipeline depth on this connection.
func (c *Client) InFlight() int64 { return c.inFlight.Load() }

// BinaryNegotiated reports whether this connection sends binary frames.
func (c *Client) BinaryNegotiated() bool { return c.useBinary.Load() }

// NegotiateBinary offers the binary codec with a JSON TypeCodec probe.
// Only an echo of the token switches this client's sends to binary; any
// other outcome (an older server's error, a transport failure, ctx) leaves
// it on JSON. The server keeps no codec state, so a lost probe is safe.
func (c *Client) NegotiateBinary(ctx context.Context) (bool, error) {
	m := protocol.AcquireMessage()
	defer protocol.ReleaseMessage(m)
	m.Type = protocol.TypeCodec
	m.Data = protocol.BinaryCodecToken
	resp, err := c.Call(ctx, m)
	if err != nil {
		return false, err
	}
	ok := resp.OK && resp.Data == protocol.BinaryCodecToken
	protocol.ReleaseMessage(resp)
	if ok {
		c.useBinary.Store(true)
		c.stats.Load().countNegotiation()
	}
	return ok, nil
}

// Dial connects to the scheduler's UNIX socket at path. The connection
// speaks JSON; DialNegotiated is the dial for anything that carries
// allocation traffic.
func Dial(path string) (*Client, error) {
	return DialNet("unix", path)
}

// DialNegotiated is Dial followed by the codec offer every wrapper and
// control channel makes: the connection comes back on binary frames
// when the server echoes the probe and on JSON otherwise.
func DialNegotiated(ctx context.Context, path string) (*Client, error) {
	c, err := Dial(path)
	if err != nil {
		return nil, err
	}
	c.offerBinary(ctx, 0)
	return c, nil
}

// defaultNegotiateTimeout bounds the codec handshake: negotiation must
// never hang a connect, it just falls back to JSON.
const defaultNegotiateTimeout = 2 * time.Second

// offerBinary runs NegotiateBinary bounded by timeout (non-positive: the
// default), so a lost handshake costs a timeout and a JSON connection. Its
// errors are dropped: a connection it killed fails its first Call. Setting
// CONVGPU_WIRE_JSON skips the offer, to read the wire with standard tools.
func (c *Client) offerBinary(ctx context.Context, timeout time.Duration) {
	if os.Getenv("CONVGPU_WIRE_JSON") != "" {
		return
	}
	if timeout <= 0 {
		timeout = defaultNegotiateTimeout
	}
	ctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	_, _ = c.NegotiateBinary(ctx)
}

// DialNet is Dial over an arbitrary network ("unix", "tcp").
func DialNet(network, addr string) (*Client, error) {
	conn, err := net.Dial(network, addr)
	if err != nil {
		return nil, fmt.Errorf("ipc: dial %s %s: %w", network, addr, err)
	}
	return NewClient(conn), nil
}

// NewClient runs the wrapper-side protocol over an established
// connection — the seam the Reconnector and the fault-injection harness
// dial through.
func NewClient(conn net.Conn) *Client {
	c := &Client{
		conn:    conn,
		readTok: make(chan struct{}, 1),
		rd:      splitter{buf: make([]byte, readBufSize)},
		unwatch: func() bool { return false },
	}
	c.w = newCoalescer(conn, &c.stats)
	c.raw = rawConn(conn)
	c.readable = c.onReadable
	// On a connection that takes no deadline (or is closed already) a
	// cancelled reader stays until a frame or the end of the stream comes.
	c.wake = func() { _ = conn.SetReadDeadline(time.Unix(1, 0)) }
	c.readTok <- struct{}{}
	return c
}

// await sends the frame a Call staged in the write buffer and returns the
// reply to seq, which arrives on ch when another Call is reading and off
// the connection when this one is (read flushes the frame then).
func (c *Client) await(ctx context.Context, seq uint64, ch chan *protocol.Message) (*protocol.Message, error) {
	staged := true
	select {
	case <-c.readTok:
	default:
		if err := c.w.flush(noFD); err != nil {
			return nil, fmt.Errorf("ipc: write: %w", closedErr(err))
		}
		staged = false
		select {
		case resp, ok := <-ch:
			if !ok {
				return nil, ErrClosed
			}
			return resp, nil
		case <-ctx.Done():
			return nil, ctx.Err()
		case <-c.readTok:
		}
	}
	defer func() { c.readTok <- struct{}{} }()
	select {
	case resp, ok := <-ch: // delivered before the last reader left
		if !ok {
			return nil, ErrClosed
		}
		return resp, nil
	default:
	}
	return c.read(ctx, seq, staged)
}

// read is the reading Call's: it reads frames until the reply to seq,
// storing refusals and handing other calls' replies to their ring slots.
// On a UNIX socket onReadable flushes the staged frame, after RawConn.Read
// armed the poller.
func (c *Client) read(ctx context.Context, seq uint64, staged bool) (*protocol.Message, error) {
	c.sent = 0
	done := ctx.Done()
	if c.raw != nil && !protocol.Ended(done) {
		c.staged = staged
	} else if staged {
		if err := c.w.flush(noFD); err != nil {
			return nil, fmt.Errorf("ipc: write: %w", closedErr(err))
		}
	}
	if protocol.Ended(done) { // ended before this read: its wake may have been and gone
		return nil, ctx.Err()
	}
	if done != c.watched { // wake's registration moves to this context
		c.mu.Lock()
		c.unwatch() // one that stays is called again later: harmless
		if done != nil && !c.closed {
			c.unwatch = context.AfterFunc(ctx, c.wake)
		}
		c.mu.Unlock()
		c.watched = done
	}
	for {
		msg, err := c.readMessage(ctx)
		if c.staged { // came back before onReadable flushed it: it goes out all the same
			c.staged, _ = false, c.w.flush(noFD)
		}
		if err != nil {
			if cerr := ctx.Err(); cerr != nil && errors.Is(err, os.ErrDeadlineExceeded) {
				if c.rd.r < c.rd.w {
					// The caller gave up inside a frame whose peer stopped
					// sending: fail the client, as for a frame cut short.
					c.fail(fmt.Errorf("%w: read cut inside a frame (%v)", ErrClosed, cerr))
				}
				return nil, cerr
			}
			c.fail(closedErr(err)) // includes a condemned binary header (checksum)
			return nil, ErrClosed
		}
		switch {
		case msg.NoReply:
			c.refuse(msg)
		case msg.Seq == seq:
			if c.quiet = c.sent; c.w.mark() != c.sent {
				c.quiet = 0
			}
			return msg, nil
		default:
			c.deliver(msg)
		}
	}
}

// onReadable is the reading Call's RawConn.Read callback: one read, after
// flushing the Call's staged frame if it has one. When that flush reached
// the peer it waits without reading (coalescer.wroteSince) if nothing came
// before the poller was armed: no other Call is in flight, and quiet is its
// mark — no write since the last reader's own, answered in short reads. A
// flush that wrote nothing — another writer carried the frame out, maybe
// before the poller was armed — leaves it to read (package doc, Reading).
func (c *Client) onReadable(fd uintptr) bool {
	if c.staged {
		c.staged = false
		mark := c.w.mark()
		if c.rerr = c.w.flush(int(fd)); c.rerr != nil {
			return true
		}
		c.sent = mark + 1
		if mark == c.quiet && mark != 0 && c.w.wroteSince(mark) && c.inFlight.Load() == 1 {
			return false
		}
	}
	short, err := c.rd.readFD(fd)
	if err == syscall.EAGAIN {
		return false
	}
	if c.rerr = err; !short {
		c.sent = 0 // more may be waiting: not quiet
	}
	return true
}

// fill reads more of the stream into the buffer. A read deadline in the
// past is a wake (Client.wake) and can outlive the Call it was meant for:
// it is cleared — before ctx is looked at, or a wake of this Call's own
// landing in between would be lost — and ends the fill only if ctx has.
func (c *Client) fill(ctx context.Context) error {
	for {
		var err error
		if c.raw == nil {
			err = c.rd.fill(c.conn)
		} else if err = c.raw.Read(c.readable); err == nil {
			err = c.rerr
		}
		if !errors.Is(err, os.ErrDeadlineExceeded) {
			return err
		}
		if cerr := c.conn.SetReadDeadline(time.Time{}); cerr != nil || ctx.Err() != nil {
			return cmp.Or(cerr, err)
		}
	}
}

// readMessage returns the next message that decodes, filling the buffer
// as it needs to.
func (c *Client) readMessage(ctx context.Context) (*protocol.Message, error) {
	for {
		f, ok, err := c.rd.next()
		if err == nil && !ok {
			if err = c.fill(ctx); err == nil {
				continue
			}
		}
		if err != nil {
			return nil, err
		}
		stats := c.stats.Load()
		stats.countFrames(f.binary, false, 1)
		msg := protocol.AcquireMessage()
		if derr := f.decodeInto(msg); derr != nil {
			protocol.ReleaseMessage(msg)
			stats.CountFrameError()
			continue // skip unparseable frames; Call timeouts surface it
		}
		return msg, nil
	}
}

// fail ends the client: the transport is unusable once a read failed (a
// response could never be matched), so the writer is poisoned for late
// sends to fail fast, the socket closed for the peer's read loop to end
// too, and every Call in flight released with ErrClosed.
func (c *Client) fail(err error) error {
	c.w.stop()
	cerr := c.conn.Close()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed {
		return cerr
	}
	c.closed = true
	c.readErr = err
	c.unwatch() // or the context would hold this client until it ends
	for i := range c.ring {
		if c.ring[i].seq != 0 {
			close(c.ring[i].ch)
			c.ring[i].ch = nil // a closed channel must never be reused
			c.ring[i].seq = 0
		}
	}
	for seq, ch := range c.overflow {
		close(ch)
		delete(c.overflow, seq)
	}
	return cerr
}

// refuse records the scheduler's unsolicited error frame for a one-way
// request (Post) it refused, for the next Call or Post to return. Frames
// are read in order, so it is stored before the reply to any Call sent
// after the refused Post: the very next Call returns it.
func (c *Client) refuse(msg *protocol.Message) {
	if msg.Type == protocol.TypeResponse && !msg.OK {
		c.refused.Add(&protocol.Refusal{Text: msg.Error, Code: msg.Code})
	} else {
		c.stats.Load().CountFrameError() // only refusals travel marked towards a client
	}
	protocol.ReleaseMessage(msg)
}

// deliver hands a response the reading Call found not to be its own to
// the Call waiting on its seq. Under mu, atomic with forget: a response
// racing a cancellation lands in the buffered channel, where forget drains
// it, or is dropped here; the reader never blocks. The slot stays owned
// until its Call clears it, so no new claimant sees the response.
func (c *Client) deliver(msg *protocol.Message) {
	c.mu.Lock()
	var ch chan *protocol.Message
	if slot := &c.ring[msg.Seq&(callRingSize-1)]; slot.seq == msg.Seq {
		ch = slot.ch
	} else if och, ok := c.overflow[msg.Seq]; ok {
		ch = och
		delete(c.overflow, msg.Seq)
	}
	delivered := false
	if ch != nil {
		select {
		case ch <- msg:
			delivered = true
		default: // duplicate response for a seq: drop it
		}
	}
	c.mu.Unlock()
	if !delivered {
		protocol.ReleaseMessage(msg) // unknown/forgotten seq: drop, don't block
	}
}

// Call sends m (assigning a fresh sequence number) and blocks until the
// matching response arrives, the context is done, or the connection
// fails. A suspended allocation simply blocks here — that is the
// mechanism by which ConVGPU pauses a container's allocation call.
// Concurrent Calls pipeline: each claims its own ring slot (or spills
// to the overflow map), so issuing a request never waits on another
// call's round trip.
//
// The caller owns the response; protocol.ReleaseMessage hands it back.
//
// A refusal of an earlier Post is returned in place of this call's
// reply, which is dropped. The request is sent and applied all the same
// — a procexit or an abort must reach the scheduler whatever went wrong
// before it — so the error says nothing about this call's own outcome.
// Only a dead connection hands the refusal back without sending.
func (c *Client) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	c.mu.Lock()
	if c.closed {
		err := c.refused.Take()
		if err == nil {
			if err = c.readErr; err == nil {
				err = ErrClosed
			}
		}
		c.mu.Unlock()
		return nil, err
	}
	seq := c.seq.Add(1)
	m.Seq = seq
	var ch chan *protocol.Message
	ringSlot := false
	if slot := &c.ring[seq&(callRingSize-1)]; slot.seq == 0 {
		if slot.ch == nil {
			slot.ch = make(chan *protocol.Message, 1)
		} else { // a duplicate reply to the slot's last owner may wait there
			select {
			case stale := <-slot.ch:
				protocol.ReleaseMessage(stale)
			default:
			}
		}
		slot.seq = seq
		ch = slot.ch
		ringSlot = true
	} else { // held by an older call (a parked allocation): spill
		ch = make(chan *protocol.Message, 1)
		if c.overflow == nil {
			c.overflow = make(map[uint64]chan *protocol.Message)
		}
		c.overflow[seq] = ch
	}
	c.mu.Unlock()
	c.inFlight.Add(1)
	defer c.inFlight.Add(-1)

	if err := c.w.stage(m, c.useBinary.Load()); err != nil { // a dead writer: at once
		c.forget(seq, ch, ringSlot)
		return nil, fmt.Errorf("ipc: write: %w", closedErr(err))
	}
	resp, err := c.await(ctx, seq, ch)
	if err != nil {
		c.forget(seq, ch, ringSlot)
		return nil, err
	}
	if err := c.received(seq, ringSlot); err != nil {
		protocol.ReleaseMessage(resp)
		return nil, err
	}
	return resp, nil
}

// Post sends m one-way: it assigns a sequence number, hands the frame
// marked no-reply to the connection's writer and returns without waiting
// — no ring slot, no channel, no wake-up. The scheduler applies one-way
// frames in the order they were posted on the connection.
//
// What a nil return means — the one place that says it; Caller,
// Reconnector.Post and the wrapper point here. The frame is queued on
// the connection behind every frame sent before it; it has not been
// applied, and it may not have been written. Which of three things
// happened to it is the coalescer's one rule (coalescer.post):
//
//   - It starts a wait. A verb nobody can be waiting on
//     (protocol.Type.Deferrable: confirm) stays in the write buffer and
//     leaves in the same socket write as the next Call on this
//     connection, or after deferBound (1 ms) when none comes.
//   - It joins one. Any other one-way verb (free) never starts a wait,
//     but posted while such a frame is still in the buffer it is left
//     behind it and leaves with it: in that next Call's write, or when
//     the timer already running fires — it is not re-armed, so the free
//     is applied no later than deferBound after the confirm it joined
//     was posted. A free is late, then, only when a thread of this
//     process reported an allocation less than a millisecond ago, its
//     own or another thread's. (A timer past due that the runtime has
//     not run yet counts as fired: that free flushes the buffer.)
//   - It is written before Post returns: every one-way frame that may not
//     start a wait and finds nothing waiting — a lone free, a free after
//     the timer or a Call took the confirm away — and a dead connection is
//     then that Post's error.
//
// A failure to write a frame that stayed in the buffer is the error of
// the Call or Post whose write takes it — as a refusal already is: if
// the scheduler refuses a one-way frame, the refusal comes back as the
// error of the next Call or Post (a *protocol.Refusal), exactly once.
// Either way a blocking Call afterwards is the barrier: when it returns,
// everything posted before it has been applied.
//
// One-way frames exist only in the binary codec. On a connection that
// did not negotiate it, Post is a Call that checks the reply, so callers
// never choose between the two.
func (c *Client) Post(ctx context.Context, m *protocol.Message) error {
	if c.useBinary.Load() {
		m.Seq = c.seq.Add(1)
		m.NoReply = true
		if binary, err := c.w.post(m, m.Type.Deferrable()); binary {
			if err != nil { // at once on a closed client, waiting or not
				return fmt.Errorf("ipc: post %s: %w", m.Type, closedErr(err))
			}
			// Reported after the write, not in place of it: this frame has
			// nothing to do with the refused one, and its sender could not
			// tell "an earlier frame was refused" from "not sent".
			return c.refused.Take()
		}
		m.NoReply = false // no binary form: send it as a JSON request
	}
	resp, err := c.Call(ctx, m)
	if err != nil {
		return err
	}
	defer protocol.ReleaseMessage(resp)
	if !resp.OK {
		return protocol.NewRefusal(m.Type, resp)
	}
	return nil
}

// received closes a Call whose response arrived: it frees the ring slot or
// the overflow entry and returns the refusals that arrived ahead of it.
func (c *Client) received(seq uint64, ringSlot bool) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if !ringSlot {
		delete(c.overflow, seq)
	} else if slot := &c.ring[seq&(callRingSize-1)]; slot.seq == seq {
		slot.seq = 0
	}
	return c.refused.Take()
}

// forget abandons a failed or cancelled Call's seq. A response already in
// its channel is drained under mu, with the slot freed, so it never
// reaches the slot's next occupant.
func (c *Client) forget(seq uint64, ch chan *protocol.Message, ringSlot bool) {
	c.mu.Lock()
	if ringSlot {
		if slot := &c.ring[seq&(callRingSize-1)]; slot.seq == seq {
			slot.seq = 0
		}
	} else {
		delete(c.overflow, seq)
	}
	select {
	case resp, ok := <-ch:
		if ok && resp != nil {
			protocol.ReleaseMessage(resp)
		}
	default:
	}
	c.mu.Unlock()
}

// Close tears the connection down; in-flight Calls fail with ErrClosed.
// Frames Post left in the buffer that nothing has carried away yet (a
// confirm, a free that joined it) are dropped, not flushed: Close may be
// running because the socket is dead, and whatever a closing process
// still holds is released by its procexit, its container's close or the
// session lease, confirmed or not, reported freed or not.
func (c *Client) Close() error { return c.fail(ErrClosed) }

// deferBound is the longest a frame that started a wait (coalescer.post)
// stays in the buffer, and so the longest the frames that joined it do:
// far above a 7 µs allocation cycle, so in a busy process the wait is
// never served out, and far below anything an operator or a session
// lease can see.
const deferBound = time.Millisecond

// coalescer serializes and batches writes to one connection. Writers
// append under the mutex; the first writer to find no flush in progress
// becomes the leader and writes the accumulated buffer to the socket
// outside the lock, re-checking for bytes that arrived during the
// syscall. Two buffers alternate between the accumulating and the
// in-flight role, so steady-state writing allocates nothing.
type coalescer struct {
	dst   io.Writer
	stats *atomic.Pointer[WireStats] // the owner's: each frame is counted as it is encoded

	mu       sync.Mutex
	buf      []byte // accumulating
	spare    []byte // last flushed, reused for the next swap
	flushing bool
	batch    atomic.Int32 // nested BeginBatch depth: defer flushing while > 0; opened without mu
	err      error
	// timer flushes what post left in buf and nothing carried away
	// since; armed from the post that started the wait until it fires or
	// a post finds it past due.
	timer *time.Timer
	armed bool
	due   time.Time
	bound time.Duration // deferBound; a test holds the timer off by raising it
	// started numbers the socket writes (under mu, before each); wrote is
	// the last that succeeded: writes run one at a time.
	started, wrote atomic.Uint64
}

func newCoalescer(dst io.Writer, stats *atomic.Pointer[WireStats]) *coalescer {
	return &coalescer{dst: dst, stats: stats, bound: deferBound}
}

// wroteSince reports whether a socket write that started after mark
// returned mark has succeeded: a reader's licence to wait without reading
// after a short read, for a peer that had closed would have failed it with
// EPIPE (DESIGN.md §7, "Pipelined IPC, and who reads").
func (w *coalescer) mark() uint64                { return w.started.Load() }
func (w *coalescer) wroteSince(mark uint64) bool { return w.wrote.Load() > mark }

// appendLocked encodes m onto the buffer — a binary frame when binary and
// m has one, a JSON line otherwise (the peer dispatches per frame, so
// mixing framings on one connection is always safe) — and counts it,
// before its write: a peer that reads the counters after receiving the
// frame must find it there. Caller holds mu.
func (w *coalescer) appendLocked(m *protocol.Message, binary bool) {
	if binary {
		if out, ok := protocol.AppendEncodeBinary(w.buf, m); ok {
			w.buf = out
			w.stats.Load().countFrames(true, true, 1)
			return
		}
	}
	w.buf = protocol.AppendEncode(w.buf, m)
	w.stats.Load().countFrames(false, true, 1)
}

// write encodes m and flushes unless another writer already took the
// leader role (or a batch is open) — in which case the frame rides along
// with the leader's (or EndBatch's) flush.
func (w *coalescer) write(m *protocol.Message, binary bool) error {
	w.mu.Lock()
	if w.err == nil {
		w.appendLocked(m, binary)
	}
	return w.flushLocked(noFD)
}

// stage encodes a Call's frame without writing it: the Call flushes it
// when it is ready to read the reply, unless another writer carries it
// out first (package doc, Reading).
func (w *coalescer) stage(m *protocol.Message, binary bool) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == nil {
		w.appendLocked(m, binary)
	}
	return w.err
}

// flush writes what the buffer holds, as write's flush does, on fd unless
// noFD (see send); with nothing there it writes nothing.
func (w *coalescer) flush(fd int) error {
	w.mu.Lock()
	return w.flushLocked(fd)
}

// post encodes the one-way frame m and decides, by the one rule Client.Post
// spells out, whether it also leaves: a frame that mayWait
// (protocol.Type.Deferrable) stays in the buffer and arms the timer unless
// it is running; any other is left behind deferred bytes already waiting
// (timer armed, buffer not empty) and otherwise written before post
// returns. m without a binary form is not taken (binary false). A timer
// past its due time counts as fired: the runtime runs timers late in a
// process whose threads are busy (6 to 12 ms measured in a two-thread
// Malloc+Free loop), and a frame somebody may be waiting on does not wait.
func (w *coalescer) post(m *protocol.Message, mayWait bool) (binary bool, err error) {
	w.mu.Lock()
	out, ok := protocol.AppendEncodeBinary(w.buf, m)
	if !ok || w.err != nil {
		err := w.err
		w.mu.Unlock()
		return ok, err
	}
	joins := !mayWait && w.armed && len(w.buf) > 0
	if joins && time.Until(w.due) <= 0 {
		w.armed, joins = false, false // the next deferral re-arms the timer
	}
	w.buf = out
	w.stats.Load().countFrames(true, true, 1)
	if mayWait && !w.armed {
		w.armed = true
		w.due = time.Now().Add(w.bound)
		if w.timer == nil {
			w.timer = time.AfterFunc(w.bound, w.flushDeferred)
		} else {
			w.timer.Reset(w.bound) // fired, or overdue and still to fire: either way one expiry from now
		}
	}
	if mayWait || joins {
		w.mu.Unlock()
		return true, nil
	}
	return true, w.flushLocked(noFD)
}

// flushDeferred is the timer's callback: it writes what is still
// buffered, unless a leader is about to.
func (w *coalescer) flushDeferred() {
	w.mu.Lock()
	w.armed = false
	_ = w.flushLocked(noFD) // kept in w.err for the next write to return
}

// flushLocked drains the buffer as the leader — unless another writer
// leads already, whose next pass takes what is there, or a batch is open.
// Called with mu held; returns with mu released.
func (w *coalescer) flushLocked(fd int) error {
	if !w.flushing {
		w.flushing = true
		for w.err == nil && len(w.buf) > 0 && w.batch.Load() == 0 {
			out := w.buf
			w.buf = w.spare[:0]
			gen := w.started.Add(1)
			w.mu.Unlock()
			err := w.send(fd, out)
			w.mu.Lock()
			w.spare = out[:0]
			if err == nil {
				w.wrote.Store(gen)
			} else if w.err == nil {
				w.err = err
			}
		}
		w.flushing = false
	}
	err := w.err
	w.mu.Unlock()
	return err
}

func (w *coalescer) beginBatch() { w.batch.Add(1) }

func (w *coalescer) endBatch(fd int) error {
	w.mu.Lock()
	if w.batch.Load() > 0 {
		w.batch.Add(-1)
	}
	return w.flushLocked(fd)
}

// noFD is the fd of a flush outside a RawConn.Read callback.
const noFD = -1

// send writes p: on fd, pinned by the RawConn.Read callback flushing, with
// no write lock or poller preparation (rawIO), and what the socket does not
// take at once (EAGAIN, a short write) through dst, which waits for room.
func (w *coalescer) send(fd int, p []byte) error {
	raceWriting(p)
	if fd != noFD {
		n, err := rawIO(syscall.SYS_WRITE, fd, p)
		if err == nil && n == len(p) {
			return nil
		} else if err != nil && err != syscall.EAGAIN {
			return os.NewSyscallError("write", err)
		}
		p = p[n:]
	}
	_, err := w.dst.Write(p)
	return err
}

// stop marks the writer closed so late writes fail fast instead of
// accumulating against a dead connection, and ends the deferral timer:
// what it would have flushed is dropped.
func (w *coalescer) stop() {
	w.mu.Lock()
	if w.err == nil {
		w.err = ErrClosed
	}
	if w.timer != nil {
		w.timer.Stop()
	}
	w.mu.Unlock()
}
