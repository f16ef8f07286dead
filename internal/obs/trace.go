package obs

import (
	"encoding/json"
	"fmt"
	"sync"
	"time"

	"convgpu/internal/bytesize"
)

// DefaultTraceCapacity is the event ring size used when a Tracer is
// built with capacity 0.
const DefaultTraceCapacity = 4096

// TraceEvent is one scheduler event in the trace ring. Seq totally
// orders events across the whole scheduler; CSeq is the per-container
// causal sequence (1, 2, 3, ... within one container lifetime), so a
// consumer can reconstruct each container's history even after the
// ring has dropped interleaved events from other containers.
type TraceEvent struct {
	Seq       uint64 `json:"seq"`
	CSeq      uint64 `json:"cseq,omitempty"`
	At        int64  `json:"at_unix_nano"`
	Kind      string `json:"kind"`
	Container string `json:"container,omitempty"`
	PID       int    `json:"pid,omitempty"`
	Amount    int64  `json:"amount,omitempty"`
	Device    int    `json:"device,omitempty"`
	Ticket    uint64 `json:"ticket,omitempty"`
	// RequestID ties admin-plane events to the HTTP request that caused
	// them; Detail carries the verb's free-form context (a node number,
	// an operation ID). Both empty for scheduler events.
	RequestID string `json:"request_id,omitempty"`
	Detail    string `json:"detail,omitempty"`
}

// String renders the event for logs (the daemon's -status tail).
func (e TraceEvent) String() string {
	switch {
	case e.Container == "":
		return fmt.Sprintf("#%d %s %s %s", e.Seq, e.Kind, e.Detail, e.RequestID)
	case e.PID != 0:
		return fmt.Sprintf("#%d %s %s pid=%d %v", e.Seq, e.Kind, e.Container, e.PID, bytesize.Size(e.Amount))
	default:
		return fmt.Sprintf("#%d %s %s %v", e.Seq, e.Kind, e.Container, bytesize.Size(e.Amount))
	}
}

// Tracer is a fixed-capacity ring buffer of TraceEvents. Recording
// writes the event's ring slot in place under a short mutex — no
// allocation in steady state (a container's causal counter is allocated
// on its first event) — and looks the container up once: the map holds
// each counter by pointer. A capacity < 0 disables retention entirely
// while still assigning causal sequence numbers.
type Tracer struct {
	mu   sync.Mutex
	ring []TraceEvent
	next int    // ring write cursor
	n    int    // number of valid entries (≤ len(ring))
	seq  uint64 // total events ever recorded
	cseq map[string]*uint64
}

// NewTracer returns a tracer holding the last capacity events
// (DefaultTraceCapacity if capacity is 0, retention disabled if < 0).
func NewTracer(capacity int) *Tracer {
	if capacity == 0 {
		capacity = DefaultTraceCapacity
	}
	t := &Tracer{cseq: make(map[string]*uint64)}
	if capacity > 0 {
		t.ring = make([]TraceEvent, capacity)
	}
	return t
}

// Record appends one event. Seq and CSeq are assigned here, under the
// tracer's own ordering, from the fields the caller provides. ticket is
// the parked-request ticket for suspend/resume/drop kinds (0 otherwise).
func (t *Tracer) Record(at time.Time, kind, container string, pid int, amount int64, device int, ticket uint64) {
	t.mu.Lock()
	t.seq++
	var cseq uint64
	if container != "" {
		p := t.cseq[container]
		if p == nil {
			p = new(uint64)
			t.cseq[container] = p
		}
		*p++
		cseq = *p
	}
	if len(t.ring) > 0 {
		e := &t.ring[t.next] // every field is written: the slot may hold an admin event
		e.Seq, e.CSeq, e.At = t.seq, cseq, at.UnixNano()
		e.Kind, e.Container, e.PID = kind, container, pid
		e.Amount, e.Device, e.Ticket = amount, device, ticket
		e.RequestID, e.Detail = "", ""
		t.advance()
	}
	t.mu.Unlock()
}

// advance moves the write cursor past the slot just written. Caller
// holds mu; the ring is not empty.
func (t *Tracer) advance() {
	if t.next++; t.next == len(t.ring) {
		t.next = 0
	}
	if t.n < len(t.ring) {
		t.n++
	}
}

// RecordAdmin appends one admin-plane event: kind names the verb
// ("admin_drain", "admin_compact"), requestID the X-Request-Id of the
// HTTP call, detail the target. Admin events share the ring and the
// total order with scheduler events, so an operator sees the drain
// between the grants it interleaved with.
func (t *Tracer) RecordAdmin(at time.Time, kind, requestID, detail string) {
	t.mu.Lock()
	t.seq++
	e := TraceEvent{
		Seq:       t.seq,
		At:        at.UnixNano(),
		Kind:      kind,
		RequestID: requestID,
		Detail:    detail,
	}
	if len(t.ring) > 0 {
		t.ring[t.next] = e
		t.advance()
	}
	t.mu.Unlock()
}

// EndContainer forgets a container's causal counter — called when its
// lifetime ends (close), so the cseq map does not grow with container
// churn and a re-registered ID restarts its causal order at 1.
func (t *Tracer) EndContainer(container string) {
	t.mu.Lock()
	delete(t.cseq, container)
	t.mu.Unlock()
}

// Len returns the number of retained events.
func (t *Tracer) Len() int {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.n
}

// Events returns the retained events, oldest first. An empty container
// filter returns everything; otherwise only that container's events.
func (t *Tracer) Events(container string) []TraceEvent {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]TraceEvent, 0, t.n)
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		e := t.ring[(start+i)%len(t.ring)]
		if container == "" || e.Container == container {
			out = append(out, e)
		}
	}
	return out
}

// Page returns up to limit retained events with Seq > after, oldest
// first (limit <= 0 means no bound), plus whether more remain. This is
// the cursor shape long trace retrieval pages over: a consumer replays
// the whole ring in bounded pages by passing the last Seq it saw.
func (t *Tracer) Page(container string, after uint64, limit int) (events []TraceEvent, more bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	start := t.next - t.n
	if start < 0 {
		start += len(t.ring)
	}
	for i := 0; i < t.n; i++ {
		e := t.ring[(start+i)%len(t.ring)]
		if e.Seq <= after {
			continue
		}
		if container != "" && e.Container != container {
			continue
		}
		if limit > 0 && len(events) == limit {
			return events, true
		}
		events = append(events, e)
	}
	return events, false
}

// TraceDump is the JSON shape of a trace request's payload. NextAfter
// and More describe the page cursor: when More is true the consumer
// re-requests with after=NextAfter for the next page.
type TraceDump struct {
	Capacity  int          `json:"capacity"`
	Total     uint64       `json:"total_events"`
	Dropped   uint64       `json:"dropped_events"`
	Events    []TraceEvent `json:"events"`
	NextAfter uint64       `json:"next_after,omitempty"`
	More      bool         `json:"more,omitempty"`
}

// Dump renders the retained trace (optionally filtered by container)
// as JSON, oldest event first, with drop accounting so a consumer can
// tell whether the ring wrapped.
func (t *Tracer) Dump(container string) ([]byte, error) {
	return t.DumpLimit(container, 0)
}

// DumpLimit is Dump keeping only the newest limit events (0 = all).
// The daemon uses it for the dump document's trace tail.
func (t *Tracer) DumpLimit(container string, limit int) ([]byte, error) {
	events := t.Events(container)
	if limit > 0 && len(events) > limit {
		events = events[len(events)-limit:]
	}
	t.mu.Lock()
	d := TraceDump{Capacity: len(t.ring), Total: t.seq, Events: events}
	if t.seq > uint64(t.n) {
		d.Dropped = t.seq - uint64(t.n)
	}
	t.mu.Unlock()
	return json.Marshal(d)
}

// DumpPage renders one page of the trace (events with Seq > after,
// oldest first, at most limit of them) with the cursor fields set, so
// a long trace is retrieved whole across several bounded responses
// instead of silently truncated to the newest window.
func (t *Tracer) DumpPage(container string, after uint64, limit int) ([]byte, error) {
	events, more := t.Page(container, after, limit)
	t.mu.Lock()
	d := TraceDump{Capacity: len(t.ring), Total: t.seq, Events: events, More: more}
	if t.seq > uint64(t.n) {
		d.Dropped = t.seq - uint64(t.n)
	}
	t.mu.Unlock()
	if more && len(events) > 0 {
		d.NextAfter = events[len(events)-1].Seq
	}
	return json.Marshal(d)
}
