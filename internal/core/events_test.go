package core

import (
	"strings"
	"testing"
	"time"

	"convgpu/internal/clock"
)

func TestEventKindStrings(t *testing.T) {
	kinds := map[EventKind]string{
		EvRegister: "register", EvAccept: "accept", EvSuspend: "suspend",
		EvReject: "reject", EvResume: "resume", EvGrant: "grant",
		EvRescue: "rescue", EvFree: "free", EvAbort: "abort",
		EvProcExit: "procexit", EvClose: "close",
		EventKind(99): "EventKind(99)",
	}
	for k, want := range kinds {
		if got := k.String(); got != want {
			t.Errorf("EventKind(%d) = %q, want %q", int(k), got, want)
		}
	}
}

// observe installs an observer that appends every record s emits to the
// returned slice — what a test reads where the core used to keep a ring.
func observe(s *State) *[]EventRecord {
	var events []EventRecord
	s.SetObserver(func(e EventRecord) { events = append(events, e) })
	return &events
}

func TestEventLogRecordsLifecycle(t *testing.T) {
	clk := clock.NewManual()
	s, err := New(Config{Capacity: mib(1000), ContextOverhead: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	seen := observe(s)
	mustRegister(t, s, "a", mib(700))
	mustAlloc(t, s, "a", 1, mib(600))
	if err := s.ConfirmAlloc("a", 1, 0x1, mib(600)); err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "b", mib(600)) // grant 300
	res, _ := s.RequestAlloc("b", 2, mib(500))
	if res.Decision != Suspend {
		t.Fatalf("setup: %v", res.Decision)
	}
	// Rejected request.
	if res, _ := s.RequestAlloc("b", 2, mib(900)); res.Decision != Reject {
		t.Fatalf("setup reject: %v", res.Decision)
	}
	if _, _, err := s.Free("a", 1, 0x1); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.ProcessExit("a", 1); err != nil {
		t.Fatal(err)
	}
	clk.Advance(3 * time.Second)
	if _, _, err := s.Close("a"); err != nil {
		t.Fatal(err)
	}

	// Single-threaded, so the records arrive in emission order. Each of
	// a's three releases runs a redistribution that re-grants paused b
	// what the pool holds; only the close frees enough to resume it.
	var kinds []string
	for _, e := range *seen {
		kinds = append(kinds, e.Kind.String())
	}
	if got, want := strings.Join(kinds, ","), "register,accept,register,suspend,reject,free,grant,procexit,grant,close,grant,resume"; got != want {
		t.Errorf("emitted %q, want %q", got, want)
	}
	// The grant event targets b with a's returned memory; the resume
	// names the ticket the suspend handed out and how long it was parked,
	// where the accept waited for nothing.
	var granted, resumed, accepted bool
	for _, e := range *seen {
		granted = granted || e.Kind == EvGrant && e.Container == "b" && e.Amount > 0
		resumed = resumed || e.Kind == EvResume && e.Container == "b" && e.PID == 2 && e.Ticket == res.Ticket && e.Waited == 3*time.Second
		accepted = accepted || e.Kind == EvAccept && e.Container == "a" && e.Waited == 0
	}
	if !granted || !resumed || !accepted {
		t.Fatalf("grant to b %v, resume of ticket %d after 3s %v, accept with no wait %v in %+v", granted, res.Ticket, resumed, accepted, *seen)
	}
}

// countingClock counts how often the scheduler reads the time.
type countingClock struct {
	clock.Real
	reads int
}

func (c *countingClock) Now() time.Time {
	c.reads++
	return c.Real.Now()
}

// TestEventLogDisabled: a core nobody observes emits nothing — the
// in-grant accept and the free that follows build no record and never
// read the clock — and an observer installed later sees only what
// happens after it.
func TestEventLogDisabled(t *testing.T) {
	clk := &countingClock{}
	s, err := New(Config{Capacity: mib(100), ContextOverhead: 1, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "a", mib(10))
	before := clk.reads
	mustAlloc(t, s, "a", 1, mib(1))
	if err := s.ConfirmAlloc("a", 1, 0x1, mib(1)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := s.Free("a", 1, 0x1); err != nil {
		t.Fatal(err)
	}
	if clk.reads != before {
		t.Fatalf("unobserved accept/confirm/free read the clock %d times", clk.reads-before)
	}
	seen := observe(s)
	mustAlloc(t, s, "a", 1, mib(1))
	if len(*seen) != 1 || (*seen)[0].Kind != EvAccept || (*seen)[0].At.IsZero() {
		t.Fatalf("observer installed late saw %v, want the one accept after it", *seen)
	}
}

func TestEventRecordString(t *testing.T) {
	e := EventRecord{Kind: EvAccept, Container: "c1", PID: 42, Amount: mib(10)}
	got := e.String()
	for _, want := range []string{"accept", "c1", "pid=42", "10MiB"} {
		if !strings.Contains(got, want) {
			t.Errorf("String() = %q missing %q", got, want)
		}
	}
	e.PID = 0
	if strings.Contains(e.String(), "pid=") {
		t.Errorf("String() with no pid = %q", e.String())
	}
}

func TestRescueEventLogged(t *testing.T) {
	s, ticketB, _ := stalledSetupFT(t)
	seen := observe(s)
	if _, _, err := s.Close("filler"); err != nil {
		t.Fatal(err)
	}
	_ = ticketB
	found := false
	for _, e := range *seen {
		if e.Kind == EvRescue && e.Container == "B" {
			found = true
		}
	}
	if !found {
		t.Fatal("no rescue event logged")
	}
}

// stalledSetupFT builds the wedge scenario with fault tolerance on.
func stalledSetupFT(t *testing.T) (*State, Ticket, Ticket) {
	t.Helper()
	s, err := New(Config{
		Capacity:        mib(1000),
		ContextOverhead: 1,
		Algorithm:       RecentUse{},
		FaultTolerant:   true,
	})
	if err != nil {
		t.Fatal(err)
	}
	mustRegister(t, s, "filler", mib(500))
	mustAlloc(t, s, "filler", 9, mib(450))
	mustRegister(t, s, "B", mib(900))
	mustAlloc(t, s, "B", 1, mib(400))
	resB, _ := s.RequestAlloc("B", 1, mib(480))
	mustRegister(t, s, "C", mib(900))
	resC, _ := s.RequestAlloc("C", 2, mib(600))
	if resB.Decision != Suspend || resC.Decision != Suspend {
		t.Fatalf("setup decisions: %v/%v", resB.Decision, resC.Decision)
	}
	return s, resB.Ticket, resC.Ticket
}

// TestHandedStampRule pins how RequestAllocAt and FreeAt stamp: on the
// real clock the caller's reading becomes the request's own event's At
// (accept, reject, suspend, free), a zero one reads the clock, and what a
// release admits reads it too; on a manual clock a handed stamp is
// ignored, so simulated traces stamp as the plain calls do.
func TestHandedStampRule(t *testing.T) {
	s := MustNew(Config{Capacity: mib(100), ContextOverhead: 1})
	seen := observe(s)
	mustRegister(t, s, "a", mib(60))
	mustRegister(t, s, "b", mib(60))            // grant 40
	stamp := clock.Real{}.Now().Add(-time.Hour) // no fresh reading is this old
	if res, err := s.RequestAllocAt("a", 1, mib(10), stamp); err != nil || res.Decision != Accept {
		t.Fatalf("accept: %v %v", res, err)
	}
	if res, _ := s.RequestAllocAt("a", 1, mib(90), stamp.Add(1)); res.Decision != Reject {
		t.Fatalf("reject: %v", res.Decision)
	}
	if res, _ := s.RequestAllocAt("b", 2, mib(50), stamp.Add(2)); res.Decision != Suspend {
		t.Fatalf("suspend: %v", res.Decision)
	}
	if err := s.ConfirmAlloc("a", 1, 0x1, mib(10)); err != nil {
		t.Fatal(err)
	}
	before := clock.Real{}.Now()
	if _, _, err := s.FreeAt("a", 1, 0x1, stamp.Add(3)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.RequestAllocAt("a", 1, mib(1), time.Time{}); err != nil {
		t.Fatal(err)
	}
	// What follows the four stamped events (the free's redistribution, the
	// unstamped accept) reads the clock.
	handed := []time.Time{stamp, stamp.Add(1), stamp.Add(2), stamp.Add(3)}
	var kinds []string
	for i, e := range (*seen)[2:] {
		kinds = append(kinds, e.Kind.String())
		if i < len(handed) && !e.At.Equal(handed[i]) {
			t.Errorf("%s stamped %v, want the handed %v", e.Kind, e.At, handed[i])
		} else if i >= len(handed) && e.At.Before(before) {
			t.Errorf("%s stamped %v, before the free it followed (%v)", e.Kind, e.At, before)
		}
	}
	if got := strings.Join(kinds, " "); !strings.HasPrefix(got, "accept reject suspend free ") || !strings.HasSuffix(got, " accept") {
		t.Errorf("events %s", got)
	}

	clk := clock.NewManual()
	m := MustNew(Config{Capacity: mib(100), ContextOverhead: 1, Clock: clk})
	mseen := observe(m)
	mustRegister(t, m, "a", mib(60))
	clk.Advance(time.Second)
	if _, err := m.RequestAllocAt("a", 1, mib(10), stamp); err != nil {
		t.Fatal(err)
	}
	if err := m.ConfirmAlloc("a", 1, 0x1, mib(10)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := m.FreeAt("a", 1, 0x1, stamp); err != nil {
		t.Fatal(err)
	}
	for _, e := range (*mseen)[1:] {
		if !e.At.Equal(clk.Now()) {
			t.Errorf("manual clock: %s stamped %v, want the clock's %v", e.Kind, e.At, clk.Now())
		}
	}
}

// TestObserverSlot: each container's events carry one slot of its own,
// which survives between events, starts empty for a new container and
// is emptied when the observer changes.
func TestObserverSlot(t *testing.T) {
	s := MustNew(Config{Capacity: mib(100), ContextOverhead: 1})
	slots := map[ContainerID]*any{}
	s.SetObserver(func(e EventRecord) {
		if prev, ok := slots[e.Container]; ok && prev != e.Slot {
			t.Errorf("%s: event %s carries another slot", e.Container, e.Kind)
		}
		slots[e.Container] = e.Slot
		if *e.Slot == nil {
			*e.Slot = string(e.Container)
		} else if *e.Slot != string(e.Container) {
			t.Errorf("%s: slot holds %v", e.Container, *e.Slot)
		}
	})
	mustRegister(t, s, "a", mib(10))
	mustRegister(t, s, "b", mib(10))
	mustAlloc(t, s, "a", 1, mib(1))
	mustAlloc(t, s, "b", 1, mib(1))
	if slots["a"] == slots["b"] {
		t.Fatal("two containers share a slot")
	}
	var after []any
	s.SetObserver(func(e EventRecord) { after = append(after, *e.Slot) })
	mustAlloc(t, s, "a", 1, mib(1))
	if len(after) != 1 || after[0] != nil {
		t.Errorf("a new observer found %v in the slot", after)
	}
}
