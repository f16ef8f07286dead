package clock

import (
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"
	"time"
)

func TestRealNowMonotonicEnough(t *testing.T) {
	var c Real
	a := c.Now()
	b := c.Now()
	if b.Before(a) {
		t.Fatalf("Real.Now went backward: %v then %v", a, b)
	}
	if c.Since(a) < 0 {
		t.Fatalf("Real.Since negative")
	}
}

// TestOneReadingNow pins what Real and Coarse stamps are made of: an
// anchor plus one monotonic reading must stay within a millisecond of
// time.Now, never run backwards between goroutines whose readings are
// ordered, and carry a monotonic reading of their own.
func TestOneReadingNow(t *testing.T) {
	for _, c := range []Clock{Real{}, Coarse{}} {
		before := time.Now()
		got := c.Now()
		after := time.Now()
		// Round(0) drops the monotonic readings: the wall times are compared.
		if w := got.Round(0); w.Before(before.Round(0).Add(-time.Millisecond)) || w.After(after.Round(0).Add(time.Millisecond)) {
			t.Errorf("%T.Now() = %v, not within 1ms of [%v, %v]", c, got, before, after)
		}
		if !strings.Contains(got.String(), " m=") {
			t.Errorf("%T.Now() = %v carries no monotonic reading", c, got)
		}
		if d := c.Since(got); d < 0 {
			t.Errorf("%T.Since(Now()) = %v", c, d)
		}
		if d := time.Now().Sub(got); d < 0 {
			t.Errorf("time.Now().Sub(%T.Now()) = %v", c, d)
		}

		// Readings taken in turn under one mutex are ordered, whichever
		// goroutine takes them: each must be at or after the last.
		var mu sync.Mutex
		var last time.Time
		var wg sync.WaitGroup
		for g := 0; g < 4; g++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 2000; i++ {
					mu.Lock()
					now := c.Now()
					if now.Before(last) {
						t.Errorf("%T.Now() went backwards: %v after %v", c, now, last)
					}
					last = now
					mu.Unlock()
				}
			}()
		}
		wg.Wait()
	}
}

func TestRealSleepAndAfter(t *testing.T) {
	var c Real
	start := c.Now()
	c.Sleep(time.Millisecond)
	if got := c.Since(start); got < time.Millisecond {
		t.Fatalf("Real.Sleep(1ms) returned after %v", got)
	}
	select {
	case <-c.After(time.Millisecond):
	case <-time.After(time.Second):
		t.Fatal("Real.After(1ms) did not fire within 1s")
	}
}

func TestManualStartsAtEpoch(t *testing.T) {
	m := NewManual()
	if !m.Now().Equal(Epoch) {
		t.Fatalf("NewManual().Now() = %v, want %v", m.Now(), Epoch)
	}
}

func TestManualAdvance(t *testing.T) {
	m := NewManual()
	m.Advance(5 * time.Second)
	if got, want := m.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("after Advance(5s): Now = %v, want %v", got, want)
	}
	m.Advance(-time.Hour) // ignored
	if got, want := m.Now(), Epoch.Add(5*time.Second); !got.Equal(want) {
		t.Fatalf("negative Advance moved the clock: %v, want %v", got, want)
	}
	if got := m.Since(Epoch); got != 5*time.Second {
		t.Fatalf("Since(Epoch) = %v, want 5s", got)
	}
}

func TestManualAfterFiresAtDeadline(t *testing.T) {
	m := NewManual()
	ch := m.After(10 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired before Advance")
	default:
	}
	m.Advance(9 * time.Second)
	select {
	case <-ch:
		t.Fatal("After fired 1s early")
	default:
	}
	m.Advance(time.Second)
	select {
	case at := <-ch:
		if want := Epoch.Add(10 * time.Second); !at.Equal(want) {
			t.Fatalf("After delivered %v, want %v", at, want)
		}
	default:
		t.Fatal("After did not fire at its deadline")
	}
}

func TestManualAfterNonPositive(t *testing.T) {
	m := NewManual()
	select {
	case <-m.After(0):
	default:
		t.Fatal("After(0) should fire immediately")
	}
	select {
	case <-m.After(-time.Second):
	default:
		t.Fatal("After(negative) should fire immediately")
	}
}

func TestManualSleepBlocksUntilAdvance(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(3 * time.Second)
		close(done)
	}()
	// Wait for the sleeper to register.
	for m.Pending() == 0 {
		time.Sleep(100 * time.Microsecond)
	}
	select {
	case <-done:
		t.Fatal("Sleep returned before Advance")
	default:
	}
	m.Advance(3 * time.Second)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep did not return after Advance")
	}
}

func TestManualSleepZeroReturnsImmediately(t *testing.T) {
	m := NewManual()
	done := make(chan struct{})
	go func() {
		m.Sleep(0)
		m.Sleep(-time.Minute)
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Sleep(<=0) blocked")
	}
}

func TestManualWaitersFireInDeadlineOrder(t *testing.T) {
	m := NewManual()
	var mu sync.Mutex
	var order []int
	var wg sync.WaitGroup
	delays := []time.Duration{7 * time.Second, 3 * time.Second, 5 * time.Second, time.Second}
	for i, d := range delays {
		wg.Add(1)
		ch := m.After(d)
		go func(i int, ch <-chan time.Time) {
			defer wg.Done()
			at := <-ch
			mu.Lock()
			order = append(order, i)
			_ = at
			mu.Unlock()
		}(i, ch)
	}
	// One big advance fires all; deliveries happen in deadline order from
	// Advance's point of view, but goroutine scheduling may interleave the
	// appends, so instead advance step by step.
	m.Advance(time.Second) // fires index 3
	waitLen(t, &mu, &order, 1)
	m.Advance(2 * time.Second) // fires index 1
	waitLen(t, &mu, &order, 2)
	m.Advance(2 * time.Second) // fires index 2
	waitLen(t, &mu, &order, 3)
	m.Advance(2 * time.Second) // fires index 0
	wg.Wait()
	want := []int{3, 1, 2, 0}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("firing order = %v, want %v", order, want)
		}
	}
}

func waitLen(t *testing.T, mu *sync.Mutex, s *[]int, n int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		mu.Lock()
		l := len(*s)
		mu.Unlock()
		if l >= n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %d firings (have %d)", n, l)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

func TestManualPending(t *testing.T) {
	m := NewManual()
	if m.Pending() != 0 {
		t.Fatalf("fresh clock Pending = %d, want 0", m.Pending())
	}
	m.After(time.Second)
	m.After(2 * time.Second)
	if m.Pending() != 2 {
		t.Fatalf("Pending = %d, want 2", m.Pending())
	}
	m.Advance(time.Second)
	if m.Pending() != 1 {
		t.Fatalf("Pending after partial advance = %d, want 1", m.Pending())
	}
	m.Advance(time.Hour)
	if m.Pending() != 0 {
		t.Fatalf("Pending after full advance = %d, want 0", m.Pending())
	}
}

func TestManualAdvanceToPast(t *testing.T) {
	m := NewManual()
	m.Advance(10 * time.Second)
	m.AdvanceTo(Epoch) // in the past; must be ignored
	if got, want := m.Now(), Epoch.Add(10*time.Second); !got.Equal(want) {
		t.Fatalf("AdvanceTo(past) moved clock to %v, want %v", got, want)
	}
	m.AdvanceTo(Epoch.Add(time.Minute))
	if got, want := m.Now(), Epoch.Add(time.Minute); !got.Equal(want) {
		t.Fatalf("AdvanceTo(future) = %v, want %v", got, want)
	}
}

// Property: advancing by a sequence of non-negative durations lands the
// clock exactly at Epoch + sum, and timers set inside the covered window
// all fire.
func TestManualAdvanceProperty(t *testing.T) {
	f := func(steps []uint16) bool {
		m := NewManual()
		var total time.Duration
		var chans []<-chan time.Time
		for _, s := range steps {
			d := time.Duration(s) * time.Millisecond
			chans = append(chans, m.After(d))
			m.Advance(d)
			total += d
		}
		if !m.Now().Equal(Epoch.Add(total)) {
			return false
		}
		for _, ch := range chans {
			select {
			case <-ch:
			default:
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// Property: with arbitrary deadlines all waiters fire in sorted deadline
// order when advanced past the max.
func TestManualFiringOrderProperty(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) == 0 {
			return true
		}
		m := NewManual()
		type rec struct {
			d  time.Duration
			ch <-chan time.Time
		}
		var recs []rec
		for _, r := range raw {
			d := time.Duration(r) * time.Second
			recs = append(recs, rec{d, m.After(d)})
		}
		m.Advance(256 * time.Second)
		var fired []time.Time
		for _, r := range recs {
			select {
			case at := <-r.ch:
				if !at.Equal(Epoch.Add(r.d)) && r.d > 0 {
					return false
				}
				fired = append(fired, at)
			default:
				return false
			}
		}
		// All must have fired with deadline = Epoch + d.
		return sort.SliceIsSorted(recs, func(i, j int) bool { return i < j }) || len(fired) == len(recs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}
