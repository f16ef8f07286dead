// Package fault is a deterministic fault-injection layer for the IPC
// transport: it wraps a net.Conn and, driven by a seeded
// RNG, drops, delays, corrupts, truncates, or hard-closes frames on
// their way through. The chaos suite replays seeded schedules against
// the full daemon↔wrapper stack and asserts the scheduler's core
// invariants survive every injected fault; the same seed replays the
// same fault schedule (modulo goroutine interleaving), which is what
// makes a chaos failure debuggable.
package fault

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"convgpu/internal/clock"
)

// Config sets the per-operation fault probabilities. Each Read and
// Write on a wrapped connection draws once; the probabilities are
// cumulative and their sum must be ≤ 1, with the remainder passing the
// operation through untouched.
type Config struct {
	DropProb     float64 // write silently discarded (reported as success)
	DelayProb    float64 // operation delayed by up to MaxDelay
	CorruptProb  float64 // one byte flipped in flight
	TruncateProb float64 // write cut mid-frame, then the conn is closed
	CloseProb    float64 // conn hard-closed under the operation
	// MaxDelay bounds injected delays (default 2ms — enough to reorder
	// goroutines without slowing the suite).
	MaxDelay time.Duration
	// Clock provides the delay sleeps; nil uses the real clock.
	Clock clock.Clock
}

// ErrInjected marks transport errors this package fabricated.
var ErrInjected = errors.New("fault: injected failure")

type action int

const (
	actPass action = iota
	actDrop
	actDelay
	actCorrupt
	actTruncate
	actClose
)

// Plan is one seeded fault schedule, shared by every connection of one
// chaos scenario. Draws are serialized under a mutex so a seed's draw
// sequence is reproducible.
type Plan struct {
	cfg    Config
	clk    clock.Clock
	healed atomic.Bool

	mu  sync.Mutex
	rng *rand.Rand
}

// NewPlan builds a schedule from a seed and fault probabilities.
func NewPlan(seed int64, cfg Config) *Plan {
	if cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 2 * time.Millisecond
	}
	clk := cfg.Clock
	if clk == nil {
		clk = clock.Real{}
	}
	return &Plan{cfg: cfg, clk: clk, rng: rand.New(rand.NewSource(seed))}
}

// Heal disables all fault injection — the chaos driver calls it before
// the cleanup phase so teardown runs over a reliable transport.
func (p *Plan) Heal() { p.healed.Store(true) }

// decide draws the next action; reads cannot be dropped or truncated
// (there is no "pretend we read" that preserves stream framing), so
// those draws pass through on the read side.
func (p *Plan) decide(isRead bool) (action, time.Duration) {
	if p.healed.Load() {
		return actPass, 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	x := p.rng.Float64()
	delay := time.Duration(p.rng.Int63n(int64(p.cfg.MaxDelay) + 1))
	c := p.cfg
	switch {
	case x < c.DropProb:
		if isRead {
			return actPass, 0
		}
		return actDrop, 0
	case x < c.DropProb+c.DelayProb:
		return actDelay, delay
	case x < c.DropProb+c.DelayProb+c.CorruptProb:
		return actCorrupt, 0
	case x < c.DropProb+c.DelayProb+c.CorruptProb+c.TruncateProb:
		if isRead {
			return actPass, 0
		}
		return actTruncate, 0
	case x < c.DropProb+c.DelayProb+c.CorruptProb+c.TruncateProb+c.CloseProb:
		return actClose, 0
	}
	return actPass, 0
}

// Wrap puts a connection under the plan's fault schedule.
func (p *Plan) Wrap(c net.Conn) *Conn { return &Conn{Conn: c, plan: p} }

// Conn is a net.Conn that misbehaves on schedule.
type Conn struct {
	net.Conn
	plan *Plan
}

// Write injects write-side faults. A dropped write reports success —
// the bytes vanish, exactly like a kernel buffer lost to a dying peer.
// A truncated write delivers a prefix and kills the connection, so the
// reader sees a mid-line cut.
func (c *Conn) Write(b []byte) (int, error) {
	act, delay := c.plan.decide(false)
	switch act {
	case actDrop:
		return len(b), nil
	case actDelay:
		c.plan.clk.Sleep(delay)
	case actCorrupt:
		if i := corruptIndex(b); i >= 0 {
			mangled := make([]byte, len(b))
			copy(mangled, b)
			mangled[i] ^= 0x20
			return c.Conn.Write(mangled)
		}
	case actTruncate:
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, ErrInjected
	case actClose:
		c.Conn.Close()
		return 0, ErrInjected
	}
	return c.Conn.Write(b)
}

// Read injects read-side faults: delays, corruption of the bytes just
// read, or a hard close.
func (c *Conn) Read(b []byte) (int, error) {
	act, delay := c.plan.decide(true)
	switch act {
	case actDelay:
		c.plan.clk.Sleep(delay)
	case actClose:
		c.Conn.Close()
		return 0, ErrInjected
	}
	n, err := c.Conn.Read(b)
	if act == actCorrupt && n > 0 {
		if i := corruptIndex(b[:n]); i >= 0 {
			b[i] ^= 0x20
		}
	}
	return n, err
}

// corruptIndex picks a byte safe to flip: never a newline (flipping
// framing would merge frames, which is a different fault — truncate and
// drop already cover broken framing).
func corruptIndex(b []byte) int {
	for i := range b {
		if b[i] != '\n' && b[i]^0x20 != '\n' {
			return i
		}
	}
	return -1
}
