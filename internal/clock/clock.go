// Package clock abstracts time for ConVGPU.
//
// The live daemon, the IPC layer and the examples run on the real clock.
// The experiment harness that regenerates the paper's Figure 7/8 sweeps
// (4–38 containers x 4 algorithms x 6 repetitions, several hundred
// simulated seconds each) runs on a manual clock advanced by the
// discrete-event simulator, so a ten-minute experiment replays in
// microseconds with identical event ordering.
//
// Real and Coarse read one clock per Now: the monotonic one, added to an
// anchor holding a wall and a monotonic reading taken once, when the
// process starts. time.Now reads both clocks every call; the scheduler
// stamps an event per allocation, so Now costs one vDSO read instead of
// two. The stamps still carry a monotonic reading (Sub and Since stay
// monotonic) and a wall time, which is the wall clock at start plus the
// monotonic time elapsed since. So a stamp is off real wall time by
// whatever the wall clock did after start, for the life of the process:
// a step (an operator's date, or NTP's first sync after a daemon that
// started at boot: its stamps keep the unsynced offset until it exits),
// and every suspend of a Linux host, whose monotonic clock stops while it
// sleeps — each WAL record's, trace event's and lease's stamp then trails
// wall time by the length of the suspend. Durations (Sub, Since, lease
// expiry) are not affected.
package clock

import (
	"container/heap"
	"sync"
	"time"
)

// Clock is the time source used throughout ConVGPU.
type Clock interface {
	// Now returns the current time.
	Now() time.Time
	// Sleep blocks the calling goroutine for d.
	Sleep(d time.Duration)
	// After returns a channel that delivers the clock's time once d has
	// elapsed.
	After(d time.Duration) <-chan time.Time
	// Since returns the elapsed time from t to Now.
	Since(t time.Time) time.Duration
}

// anchor is the process's one reading of both clocks; see the package doc.
var anchor = time.Now()

// now is time.Now from one monotonic reading.
func now() time.Time { return anchor.Add(time.Since(anchor)) }

// Real is the wall clock. The zero value is ready to use.
type Real struct{}

// Now implements Clock.
func (Real) Now() time.Time { return now() }

// Sleep implements Clock. Sub-millisecond waits are completed by
// spinning: the simulated GPU models microsecond-scale CUDA latencies
// (cudaMalloc ≈ 35 µs) that OS timers round up to milliseconds, which
// would erase the very overheads the Figure 4 experiment measures.
func (Real) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	deadline := time.Now().Add(d)
	if d > 2*time.Millisecond {
		time.Sleep(d - time.Millisecond)
	}
	for time.Now().Before(deadline) {
	}
}

// After implements Clock.
func (Real) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Real) Since(t time.Time) time.Duration { return time.Since(t) }

// Coarse is the wall clock with plain time.Sleep semantics: waits are
// handed to the OS timer and may round up to a few milliseconds. The
// load harness's wire path runs hundreds of concurrent containers whose
// service times all sleep at once; Real's sub-millisecond spin-wait
// would turn that fan-out into a CPU-bound stampede, while Coarse keeps
// the sleepers off the run queue. Use Real where microsecond fidelity
// matters (the Figure 4 latency rig), Coarse where only throughput does.
type Coarse struct{}

// Now implements Clock.
func (Coarse) Now() time.Time { return now() }

// Sleep implements Clock.
func (Coarse) Sleep(d time.Duration) {
	if d > 0 {
		time.Sleep(d)
	}
}

// After implements Clock.
func (Coarse) After(d time.Duration) <-chan time.Time { return time.After(d) }

// Since implements Clock.
func (Coarse) Since(t time.Time) time.Duration { return time.Since(t) }

// Epoch is the instant a Manual clock starts at. A fixed epoch keeps
// simulated traces reproducible across runs and machines.
var Epoch = time.Date(2017, time.May, 10, 0, 0, 0, 0, time.UTC)

// Manual is a virtual clock driven explicitly by Advance. Sleepers and
// After channels fire when Advance moves the clock past their deadline,
// in deadline order. Manual is safe for concurrent use.
type Manual struct {
	mu      sync.Mutex
	now     time.Time
	waiters waiterHeap
	seq     uint64
}

// NewManual returns a virtual clock positioned at Epoch.
func NewManual() *Manual {
	return &Manual{now: Epoch}
}

type waiter struct {
	at  time.Time
	seq uint64 // FIFO tie-break for equal deadlines
	ch  chan time.Time
}

type waiterHeap []*waiter

func (h waiterHeap) Len() int { return len(h) }
func (h waiterHeap) Less(i, j int) bool {
	if !h[i].at.Equal(h[j].at) {
		return h[i].at.Before(h[j].at)
	}
	return h[i].seq < h[j].seq
}
func (h waiterHeap) Swap(i, j int)       { h[i], h[j] = h[j], h[i] }
func (h *waiterHeap) Push(x interface{}) { *h = append(*h, x.(*waiter)) }
func (h *waiterHeap) Pop() interface{} {
	old := *h
	n := len(old)
	w := old[n-1]
	old[n-1] = nil
	*h = old[:n-1]
	return w
}

// Now implements Clock.
func (m *Manual) Now() time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.now
}

// Since implements Clock.
func (m *Manual) Since(t time.Time) time.Duration {
	return m.Now().Sub(t)
}

// After implements Clock. The returned channel has capacity one, so the
// firing Advance never blocks.
func (m *Manual) After(d time.Duration) <-chan time.Time {
	m.mu.Lock()
	defer m.mu.Unlock()
	ch := make(chan time.Time, 1)
	if d <= 0 {
		ch <- m.now
		return ch
	}
	m.seq++
	heap.Push(&m.waiters, &waiter{at: m.now.Add(d), seq: m.seq, ch: ch})
	return ch
}

// Sleep implements Clock. It blocks until another goroutine advances the
// clock past the deadline. Sleeping with d <= 0 returns immediately.
func (m *Manual) Sleep(d time.Duration) {
	if d <= 0 {
		return
	}
	<-m.After(d)
}

// Advance moves the clock forward by d, firing every waiter whose deadline
// is reached, in deadline order. Negative d is ignored: virtual time, like
// real time, never runs backward.
func (m *Manual) Advance(d time.Duration) {
	if d < 0 {
		return
	}
	m.mu.Lock()
	target := m.now.Add(d)
	var fired []*waiter
	for len(m.waiters) > 0 && !m.waiters[0].at.After(target) {
		w := heap.Pop(&m.waiters).(*waiter)
		fired = append(fired, w)
	}
	m.now = target
	m.mu.Unlock()
	for _, w := range fired {
		w.ch <- w.at
	}
}

// AdvanceTo moves the clock to t if t is in the future.
func (m *Manual) AdvanceTo(t time.Time) {
	m.Advance(t.Sub(m.Now()))
}

// Pending reports how many sleepers and After channels are waiting.
func (m *Manual) Pending() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return len(m.waiters)
}

var (
	_ Clock = Real{}
	_ Clock = Coarse{}
	_ Clock = (*Manual)(nil)
)
