package core

import (
	"fmt"
	"time"

	"convgpu/internal/bytesize"
)

// EventKind classifies scheduler events.
type EventKind int

// Event kinds, in rough lifecycle order.
const (
	EvRegister EventKind = iota // container admitted; Amount = initial grant
	EvAccept                    // allocation accepted; Amount = charged size
	EvSuspend                   // allocation paused; Amount = requested size
	EvReject                    // allocation denied; Amount = requested size
	EvResume                    // paused allocation admitted; Amount = charged size
	EvGrant                     // redistribution grant; Amount = memory given
	EvRescue                    // fault-tolerance rescue grant; Amount = memory given
	EvFree                      // cudaFree; Amount = released size
	EvAbort                     // accepted allocation aborted; Amount = returned size
	EvProcExit                  // process exit cleanup; Amount = released total
	EvClose                     // container closed; Amount = returned grant
	EvRestore                   // re-attach restore; Amount = charged size
	EvDrop                      // parked tickets dropped (connection died)
	EvPreempt                   // unused grant reclaimed by a preempting policy; Amount = memory taken
)

// NumEventKinds bounds the EventKind space so observers can index
// fixed-size per-kind tables.
const NumEventKinds = int(EvPreempt) + 1

func (k EventKind) String() string {
	switch k {
	case EvRegister:
		return "register"
	case EvAccept:
		return "accept"
	case EvSuspend:
		return "suspend"
	case EvReject:
		return "reject"
	case EvResume:
		return "resume"
	case EvGrant:
		return "grant"
	case EvRescue:
		return "rescue"
	case EvFree:
		return "free"
	case EvAbort:
		return "abort"
	case EvProcExit:
		return "procexit"
	case EvClose:
		return "close"
	case EvRestore:
		return "restore"
	case EvDrop:
		return "drop"
	case EvPreempt:
		return "preempt"
	default:
		return fmt.Sprintf("EventKind(%d)", int(k))
	}
}

// EventRecord is one scheduler event as the core hands it to its
// observer. The core keeps no copy and assigns no number: the observer
// (obs.Tracer, through obs.BindCore) owns retention and the total order.
type EventRecord struct {
	// At is the scheduler-clock timestamp.
	At time.Time
	// Kind classifies the event.
	Kind EventKind
	// Container the event concerns.
	Container ContainerID
	// PID of the process involved, when applicable.
	PID int
	// Amount is the memory quantity the event moved (see EventKind).
	Amount bytesize.Size
	// Device is the device the emitting state schedules
	// (Config.DeviceIndex; 0 for a standalone single-device state).
	Device int
	// Ticket identifies the parked request a suspend/resume/drop event
	// concerns (0 for every other kind). Tickets are per-device.
	Ticket Ticket
	// Waited is how long an admitted request was suspended first: the
	// park-to-admit time on EvResume, zero on EvAccept and on every
	// other kind.
	Waited time.Duration
	// Slot is the observer's own slot for Container, kept beside its state
	// and never read by the core (obs.Tracer caches its causal counter
	// there): used only inside the observer call, under the lock that
	// orders the container's events; empty for a new container or observer.
	Slot *any
}

// String renders the record for logs.
func (e EventRecord) String() string {
	if e.PID != 0 {
		return fmt.Sprintf("%s %s pid=%d %v", e.Kind, e.Container, e.PID, e.Amount)
	}
	return fmt.Sprintf("%s %s %v", e.Kind, e.Container, e.Amount)
}

// logEvent hands one event to the observer, stamped now. Callers hold
// the shard lock of the container the event concerns in either mode —
// with that container's mutex on the fast paths, or every shard lock on
// the slow paths — which is what SetObserver's ordering contract rests on.
func (s *State) logEvent(kind EventKind, c *containerState, pid int, amount bytesize.Size) {
	s.logEventT(time.Time{}, kind, c, pid, amount, 0, 0)
}

// logEventT is logEvent stamped at (see RequestAllocAt), with the ticket
// of the parked request a suspend, resume or drop concerns and how long a
// resume waited. With no observer nothing is built and no clock is read.
func (s *State) logEventT(at time.Time, kind EventKind, c *containerState, pid int, amount bytesize.Size, ticket Ticket, waited time.Duration) {
	if s.observer == nil {
		return
	}
	if at.IsZero() || !s.realClock {
		at = s.cfg.Clock.Now()
	}
	s.observer(EventRecord{
		At:        at,
		Kind:      kind,
		Container: c.id,
		PID:       pid,
		Amount:    amount,
		Device:    s.cfg.DeviceIndex,
		Ticket:    ticket,
		Waited:    waited,
		Slot:      &c.obsSlot,
	})
}

// SetObserver installs fn to receive every event record as it is
// emitted. Ordering contract: records of one container arrive in order,
// and any two events separated by a memory-moving (write-locked)
// operation arrive in order; only fast-path records of different
// containers may reach fn concurrently — they move no memory between
// containers, so no consumer depends on their relative order. fn
// therefore must be safe for concurrent invocation. It runs with the
// scheduler's locks held on the request paths, so it must be cheap
// (atomic counter bumps, ring appends) and must never call back into
// the State. A nil fn removes the observer. Every container's observer
// slot is emptied: what it held was the previous observer's.
func (s *State) SetObserver(fn func(EventRecord)) {
	s.lockAll()
	s.observer = fn
	for _, c := range s.order {
		c.obsSlot = nil
	}
	s.unlockAll()
}

// PausedContainers returns the number of containers with at least one
// pending (suspended) request — the scheduler's queue depth in
// containers. Lock-free; safe to call from metric scrapes.
func (s *State) PausedContainers() int {
	return int(s.pausedCount.Load())
}
