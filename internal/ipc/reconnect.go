package ipc

import (
	"context"
	"fmt"
	"math/rand"
	"net"
	"sync"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/protocol"
)

// Backoff shapes the reconnect retry schedule: delays start at Base and
// multiply by Factor up to Max, each randomized by ±Jitter/2 so a fleet
// of wrappers that lost the daemon together does not redial in
// lockstep. Zero fields take the Default* values below.
type Backoff struct {
	Base   time.Duration
	Max    time.Duration
	Factor float64
	Jitter float64 // fraction of the delay to randomize over, in [0,1]
}

// Default backoff parameters (see DESIGN.md §"Failure domains").
const (
	DefaultBackoffBase   = 20 * time.Millisecond
	DefaultBackoffMax    = 2 * time.Second
	DefaultBackoffFactor = 2.0
	DefaultBackoffJitter = 0.5
)

func (b Backoff) withDefaults() Backoff {
	if b.Base <= 0 {
		b.Base = DefaultBackoffBase
	}
	if b.Max <= 0 {
		b.Max = DefaultBackoffMax
	}
	if b.Factor < 1 {
		b.Factor = DefaultBackoffFactor
	}
	if b.Jitter < 0 || b.Jitter > 1 {
		b.Jitter = DefaultBackoffJitter
	}
	return b
}

// ReconnectConfig configures a Reconnector.
type ReconnectConfig struct {
	// Network and Addr are passed to net.Dial ("unix", socket path).
	Network string
	Addr    string
	// Dial overrides net.Dial when set — the seam for tests and the
	// fault-injection harness to hand out wrapped connections.
	Dial func() (net.Conn, error)
	// Backoff shapes the redial schedule; zero fields take defaults.
	Backoff Backoff
	// MaxAttempts bounds one connect's dial attempts; 0 retries until
	// the context expires or the Reconnector is closed.
	MaxAttempts int
	// CallTimeout bounds each Call. Allocation requests are exempt: a
	// suspended allocation legitimately blocks until memory is granted
	// (the paper's core mechanism), so its liveness comes from
	// connection failure and the daemon's session lease, not a
	// deadline. Zero disables the per-call bound.
	CallTimeout time.Duration
	// OnReconnect runs on each freshly dialed client before it is
	// published — the wrapper re-attaches its session and replays live
	// allocations here. An error discards the connection and counts as
	// a failed attempt. The hook must use the *Client it is given and
	// never call back into the Reconnector (deadlock).
	OnReconnect func(*Client) error
	// Clock paces the backoff sleeps; nil uses the real clock.
	Clock clock.Clock
	// Seed makes the jitter deterministic for tests; 0 self-seeds.
	Seed int64
	// RTT, when set, observes each successful Call's round-trip time.
	// The interface is satisfied by obs.Histogram without this package
	// importing the observability layer.
	RTT LatencyObserver
	// Reconnects, when set, is incremented each time a dial publishes a
	// fresh connection after the first (i.e. true reconnects).
	Reconnects CountObserver
	// Wire, when set, counts frames by codec across every connection
	// this Reconnector publishes (totals survive redials).
	Wire *WireStats
}

// LatencyObserver receives call round-trip durations (obs.Histogram).
type LatencyObserver interface{ Observe(time.Duration) }

// CountObserver receives occurrence ticks (obs.Counter).
type CountObserver interface{ Inc() }

// Reconnector is a Client that survives connection loss: every Call
// dials on demand, applies the configured per-call deadline, and — on a
// transport failure — discards the dead connection so the next Call
// redials under exponential backoff.
//
// A failed Call is NOT retried automatically: an allocation request is
// not idempotent (the response may have been sent, and acted on, just
// before the connection died), so the transport refuses to guess and
// surfaces the error for the wrapper to map fail-closed.
type Reconnector struct {
	cfg ReconnectConfig
	clk clock.Clock

	dialMu sync.Mutex // single-flight: at most one backoff loop at a time

	mu     sync.Mutex
	cur    *Client
	closed bool
	gen    uint64 // bumped on each published connection

	rngMu sync.Mutex
	rng   *rand.Rand

	done chan struct{}
}

// NewReconnector returns a Reconnector; no connection is made until the
// first Call or Connect.
func NewReconnector(cfg ReconnectConfig) *Reconnector {
	cfg.Backoff = cfg.Backoff.withDefaults()
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = rand.Int63()
	}
	return &Reconnector{
		cfg:  cfg,
		clk:  clk,
		rng:  rand.New(rand.NewSource(seed)),
		done: make(chan struct{}),
	}
}

// Generation counts published connections: it increments each time a
// dial succeeds, so a test can assert "reconnected exactly once".
func (r *Reconnector) Generation() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.gen
}

// Connect returns the live client, dialing (with backoff) if there is
// none. Concurrent callers share one dial loop.
func (r *Reconnector) Connect(ctx context.Context) (*Client, error) {
	r.dialMu.Lock()
	defer r.dialMu.Unlock()
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil, ErrClosed
	}
	if c := r.cur; c != nil {
		r.mu.Unlock()
		return c, nil
	}
	r.mu.Unlock()

	delay := r.cfg.Backoff.Base
	var lastErr error
	for attempt := 1; ; attempt++ {
		conn, err := r.dial()
		if err == nil {
			c := NewClient(conn)
			c.SetWireStats(r.cfg.Wire)
			// A connection the handshake killed fails the OnReconnect
			// replay (or the first Call) and redials.
			c.offerBinary(ctx, r.cfg.CallTimeout)
			if r.cfg.OnReconnect != nil {
				if herr := r.cfg.OnReconnect(c); herr != nil {
					c.Close()
					err = fmt.Errorf("reconnect hook: %w", herr)
				}
			}
			if err == nil {
				r.mu.Lock()
				if r.closed {
					r.mu.Unlock()
					c.Close()
					return nil, ErrClosed
				}
				r.cur = c
				r.gen++
				reconnected := r.gen > 1
				r.mu.Unlock()
				if reconnected && r.cfg.Reconnects != nil {
					r.cfg.Reconnects.Inc()
				}
				return c, nil
			}
		}
		lastErr = err
		if r.cfg.MaxAttempts > 0 && attempt >= r.cfg.MaxAttempts {
			return nil, fmt.Errorf("ipc: reconnect gave up after %d attempts: %w", attempt, lastErr)
		}
		select {
		case <-r.clk.After(r.jittered(delay)):
		case <-ctx.Done():
			return nil, fmt.Errorf("ipc: reconnect: %w", ctx.Err())
		case <-r.done:
			return nil, ErrClosed
		}
		delay = min(time.Duration(float64(delay)*r.cfg.Backoff.Factor), r.cfg.Backoff.Max)
	}
}

// Call implements wrapper.Caller over the self-healing connection. See
// the type comment for the no-retry rationale; CallTimeout bounds every
// message type except allocation requests.
func (r *Reconnector) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	c, err := r.Connect(ctx)
	if err != nil {
		return nil, err
	}
	callCtx := ctx
	if r.cfg.CallTimeout > 0 && m.Type != protocol.TypeAlloc {
		var cancel context.CancelFunc
		callCtx, cancel = context.WithTimeout(ctx, r.cfg.CallTimeout)
		defer cancel()
	}
	var start time.Time
	if r.cfg.RTT != nil {
		start = time.Now()
	}
	resp, err := c.Call(callCtx, m)
	if err == nil && r.cfg.RTT != nil {
		r.cfg.RTT.Observe(time.Since(start))
	}
	if err != nil {
		r.failed(ctx, c, err)
		return nil, err
	}
	return resp, nil
}

// Post is Client.Post over the self-healing connection — see there for
// what a nil return means — under Call's rules: an error that is the
// transport's drops the connection and nothing is resent. The OnReconnect
// replay repairs a lost confirm (the wrapper restores every live
// allocation); a lost free, which usually takes its confirm with it,
// leaves a charge the process no longer holds until procexit, close or
// the lease.
func (r *Reconnector) Post(ctx context.Context, m *protocol.Message) error {
	c, err := r.Connect(ctx)
	if err != nil {
		return err
	}
	callCtx := ctx
	if r.cfg.CallTimeout > 0 && !c.BinaryNegotiated() { // a JSON connection makes a Call of it
		var cancel context.CancelFunc
		callCtx, cancel = context.WithTimeout(ctx, r.cfg.CallTimeout)
		defer cancel()
	}
	if err = c.Post(callCtx, m); err != nil {
		r.failed(ctx, c, err)
	}
	return err
}

// failed drops the connection a Call or Post failed on when the failure
// is the transport's or a per-call timeout (an unresponsive peer). It
// stays when only the caller's own context ended, or when the error is a
// one-way request's refusal — the scheduler answered, and said no.
func (r *Reconnector) failed(ctx context.Context, c *Client, err error) {
	if ctx.Err() == nil && !protocol.IsRefusal(err) {
		r.drop(c)
	}
}

// InFlight reports the pipeline depth of the current connection — the
// number of Calls outstanding — or 0 while disconnected. The facade
// exposes it as a gauge.
func (r *Reconnector) InFlight() int64 {
	r.mu.Lock()
	c := r.cur
	r.mu.Unlock()
	if c == nil {
		return 0
	}
	return c.InFlight()
}

// drop discards a connection observed failing, if it is still the
// published one, so the next Call redials.
func (r *Reconnector) drop(c *Client) {
	r.mu.Lock()
	if r.cur == c {
		r.cur = nil
	}
	r.mu.Unlock()
	c.Close()
}

// Close tears down the current connection and wakes any backoff sleep;
// subsequent Calls fail with ErrClosed.
func (r *Reconnector) Close() error {
	r.mu.Lock()
	if r.closed {
		r.mu.Unlock()
		return nil
	}
	r.closed = true
	c := r.cur
	r.cur = nil
	close(r.done)
	r.mu.Unlock()
	if c != nil {
		return c.Close()
	}
	return nil
}

func (r *Reconnector) dial() (net.Conn, error) {
	if r.cfg.Dial != nil {
		return r.cfg.Dial()
	}
	return net.Dial(r.cfg.Network, r.cfg.Addr)
}

// jittered spreads d over [d·(1−J/2), d·(1+J/2)].
func (r *Reconnector) jittered(d time.Duration) time.Duration {
	j := r.cfg.Backoff.Jitter
	if j <= 0 {
		return d
	}
	r.rngMu.Lock()
	f := 1 - j/2 + j*r.rng.Float64()
	r.rngMu.Unlock()
	return time.Duration(float64(d) * f)
}
