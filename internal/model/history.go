package model

import (
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

// History captures a scheduler's event stream for structural checking.
// Unlike the exact-conformance harness it makes no predictions, so it
// stays sound when the stack is driven concurrently or through a faulty
// transport: it only demands that whatever happened was safe. Install
// Observer() via SetObserver, then Check the capture.
type History struct {
	mu      sync.Mutex
	entries []core.EventRecord
}

// Observer returns the capture hook for core's SetObserver. Safe for
// concurrent use (leaf events from different devices race to it).
func (h *History) Observer() func(core.EventRecord) {
	return func(e core.EventRecord) {
		h.mu.Lock()
		h.entries = append(h.entries, e)
		h.mu.Unlock()
	}
}

// Len reports the number of captured events.
func (h *History) Len() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return len(h.entries)
}

// Check validates the capture against capacity (a func
// so multi-device topologies can vary per device index).
func (h *History) Check(capacity func(device int) bytesize.Size) error {
	return h.check(capacity, false)
}

// CheckDrained is Check plus quiescence: the capture
// must end with no request still parked. For tests that close every
// session before stopping.
func (h *History) CheckDrained(capacity func(device int) bytesize.Size) error {
	return h.check(capacity, true)
}

func (h *History) check(capacity func(device int) bytesize.Size, drained bool) error {
	h.mu.Lock()
	events := append([]core.EventRecord(nil), h.entries...)
	h.mu.Unlock()
	if drained {
		return CheckHistoryDrained(events, capacity)
	}
	return CheckHistory(events, capacity)
}

// CheckHistory validates one scheduler's (no restarts) event
// stream against the structural safety invariants that hold regardless
// of algorithm, topology or fault schedule:
//
//   - conservation: per-container usage derived from the event amounts
//     never goes negative, and the per-device sum never exceeds the
//     device capacity;
//   - ticket discipline: suspend tickets are strictly increasing per
//     device, a ticket resumes at most once, and only while parked;
//   - FIFO within a container: a resume always releases the oldest
//     still-parked request of that container on that device.
//
// Cross-container ordering is deliberately not checked here — it
// depends on the algorithm and on grant reclamation that emits no
// events — that is the exact-conformance harness's job.
func CheckHistory(events []core.EventRecord, capacity func(device int) bytesize.Size) error {
	type ckey struct {
		dev int
		id  core.ContainerID
	}
	type parked struct {
		ticket core.Ticket
		pid    int
	}
	used := make(map[ckey]bytesize.Size)
	pend := make(map[ckey][]parked)
	lastTicket := make(map[int]core.Ticket)

	devUsed := func(dev int) bytesize.Size {
		var sum bytesize.Size
		for k, u := range used {
			if k.dev == dev {
				sum += u
			}
		}
		return sum
	}

	for i, e := range events {
		k := ckey{dev: e.Device, id: e.Container}
		fail := func(format string, args ...any) error {
			return fmt.Errorf("event %d (%s): %s", i, e, fmt.Sprintf(format, args...))
		}
		switch e.Kind {
		case core.EvRegister:
			used[k] = 0
			pend[k] = nil
		case core.EvAccept, core.EvRestore:
			used[k] += e.Amount
		case core.EvResume:
			q := pend[k]
			if len(q) == 0 {
				return fail("resume with no parked request")
			}
			if q[0].ticket != e.Ticket {
				return fail("resume ticket %d but oldest parked is %d (FIFO violation)", e.Ticket, q[0].ticket)
			}
			pend[k] = q[1:]
			used[k] += e.Amount
		case core.EvSuspend:
			if last, ok := lastTicket[e.Device]; ok && e.Ticket <= last {
				return fail("suspend ticket %d not above previous %d on device %d", e.Ticket, last, e.Device)
			}
			lastTicket[e.Device] = e.Ticket
			pend[k] = append(pend[k], parked{ticket: e.Ticket, pid: e.PID})
		case core.EvDrop:
			q := pend[k]
			found := false
			for j, p := range q {
				if p.ticket == e.Ticket {
					pend[k] = append(append([]parked(nil), q[:j]...), q[j+1:]...)
					found = true
					break
				}
			}
			if !found {
				return fail("drop of ticket %d that is not parked", e.Ticket)
			}
		case core.EvFree, core.EvAbort:
			used[k] -= e.Amount
			if used[k] < 0 {
				return fail("usage of %s on device %d went negative (%v)", e.Container, e.Device, used[k])
			}
		case core.EvProcExit:
			used[k] -= e.Amount
			if used[k] < 0 {
				return fail("usage of %s on device %d went negative (%v)", e.Container, e.Device, used[k])
			}
			// The exit cancels the pid's parked requests without
			// per-ticket events.
			q := pend[k][:0]
			for _, p := range pend[k] {
				if p.pid != e.PID {
					q = append(q, p)
				}
			}
			pend[k] = q
		case core.EvClose:
			delete(used, k)
			delete(pend, k)
		case core.EvReject, core.EvGrant, core.EvRescue:
			// No usage movement.
		}
		if cap := capacity(e.Device); devUsed(e.Device) > cap {
			return fail("device %d usage %v exceeds capacity %v", e.Device, devUsed(e.Device), cap)
		}
	}
	return nil
}

// CheckHistoryDrained is CheckHistory plus the quiescence condition
// that no request is still parked at the end of the stream — for tests
// that drain the scheduler before stopping.
func CheckHistoryDrained(events []core.EventRecord, capacity func(device int) bytesize.Size) error {
	if err := CheckHistory(events, capacity); err != nil {
		return err
	}
	type tkey struct {
		dev int
		t   core.Ticket
	}
	type park struct {
		id  core.ContainerID
		pid int
	}
	live := make(map[tkey]park)
	for _, e := range events {
		switch e.Kind {
		case core.EvSuspend:
			live[tkey{e.Device, e.Ticket}] = park{id: e.Container, pid: e.PID}
		case core.EvResume, core.EvDrop:
			delete(live, tkey{e.Device, e.Ticket})
		case core.EvClose:
			for t, p := range live {
				if t.dev == e.Device && p.id == e.Container {
					delete(live, t)
				}
			}
		case core.EvProcExit:
			for t, p := range live {
				if t.dev == e.Device && p.id == e.Container && p.pid == e.PID {
					delete(live, t)
				}
			}
		}
	}
	if len(live) > 0 {
		return fmt.Errorf("stream ends with %d request(s) still parked", len(live))
	}
	return nil
}
