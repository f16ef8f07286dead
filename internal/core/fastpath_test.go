package core

import (
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"

	"convgpu/internal/bytesize"
)

// TestFastPathStress hammers the scheduler from many goroutines with
// the full operation mix — register, alloc, confirm, free, abort,
// process exit, close, meminfo, snapshots, Info — while the fast paths are
// on (the default). Run under -race this is the fast path's aliasing
// and locking stress test; CheckInvariants is asserted throughout and
// at the end.
func TestFastPathStress(t *testing.T) {
	const (
		workers = 8
		iters   = 400
	)
	s := MustNew(Config{Capacity: bytesize.Size(workers) * bytesize.GiB})
	var emitted atomic.Int64 // observed, so every path builds its records
	s.SetObserver(func(EventRecord) { emitted.Add(1) })
	var wg sync.WaitGroup
	errs := make(chan error, workers+1)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			id := ContainerID(fmt.Sprintf("c%d", w))
			if _, err := s.Register(id, bytesize.GiB); err != nil {
				errs <- err
				return
			}
			pid := w + 1
			addrs := make(map[uint64]bool)
			nextAddr := uint64(w)<<32 | 1
			for i := 0; i < iters; i++ {
				switch op := rng.Intn(10); {
				case op < 5: // alloc+confirm
					size := bytesize.Size(rng.Intn(1<<20) + 1)
					res, err := s.RequestAlloc(id, pid, size)
					if err != nil {
						errs <- err
						return
					}
					switch res.Decision {
					case Accept:
						addr := nextAddr
						nextAddr++
						if err := s.ConfirmAlloc(id, pid, addr, size); err != nil {
							errs <- err
							return
						}
						addrs[addr] = true
					case Suspend:
						// Single-pid workload per container never suspends
						// within its own limit, but if it does the process
						// exit below cancels the ticket. Nothing to do here.
					}
				case op < 8: // free one tracked allocation
					for addr := range addrs {
						if _, _, err := s.Free(id, pid, addr); err != nil {
							errs <- err
							return
						}
						delete(addrs, addr)
						break
					}
				case op < 9:
					if _, _, err := s.MemInfo(id); err != nil {
						errs <- err
						return
					}
				default: // process exit releases everything, restart fresh
					if _, _, err := s.ProcessExit(id, pid); err != nil {
						errs <- err
						return
					}
					addrs = make(map[uint64]bool)
				}
			}
			if _, _, err := s.Close(id); err != nil {
				errs <- err
			}
		}(w)
	}
	// A checker goroutine exercises the read-side API concurrently with
	// the fast-path traffic.
	stop := make(chan struct{})
	var checker sync.WaitGroup
	checker.Add(1)
	go func() {
		defer checker.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			if err := s.CheckInvariants(); err != nil {
				errs <- err
				return
			}
			s.Snapshot()
			s.Info("c0") // against c0's fast paths; unknown once c0 closed
			s.TotalUsed()
		}
	}()
	wg.Wait()
	close(stop)
	checker.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Error(err)
	}
	if got := s.PoolFree(); got != s.Capacity() {
		t.Errorf("pool after all containers closed = %v, want %v", got, s.Capacity())
	}
	if n := s.pausedCount.Load(); n != 0 {
		t.Errorf("pausedCount after quiesce = %d, want 0", n)
	}
	if emitted.Load() < 2*workers {
		t.Errorf("observer saw %d records, want at least a register and a close per worker", emitted.Load())
	}
}

// TestFastFreeGateOnPaused: while any container is paused, Free must
// take the slow path so admission can run — the fast path's empty
// Update would otherwise swallow the admitted ticket.
func TestFastFreeGateOnPaused(t *testing.T) {
	s := MustNew(Config{Capacity: 200 * bytesize.MiB})
	// a soaks up pool so b's grant (80 MiB) is below its limit (180 MiB),
	// making suspension reachable inside b.
	if _, err := s.Register("a", 120*bytesize.MiB); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Register("b", 180*bytesize.MiB); err != nil {
		t.Fatal(err)
	}
	// First alloc charges 10 MiB + 66 MiB context overhead = 76 ≤ 80.
	res, err := s.RequestAlloc("b", 2, 10*bytesize.MiB)
	if err != nil || res.Decision != Accept {
		t.Fatalf("b alloc 1: %+v %v", res, err)
	}
	if err := s.ConfirmAlloc("b", 2, 0xb1, 10*bytesize.MiB); err != nil {
		t.Fatal(err)
	}
	// Second alloc needs 86 > grant 80 with an empty pool: suspend.
	sus, err := s.RequestAlloc("b", 2, 10*bytesize.MiB)
	if err != nil || sus.Decision != Suspend {
		t.Fatalf("b alloc 2: %+v %v", sus, err)
	}
	if n := s.pausedCount.Load(); n != 1 {
		t.Fatalf("pausedCount = %d, want 1", n)
	}
	// b frees its first allocation: the gate must route this through the
	// slow path, whose admission pass now fits the pending request.
	_, u, err := s.Free("b", 2, 0xb1)
	if err != nil {
		t.Fatal(err)
	}
	if len(u.Admitted) != 1 || u.Admitted[0].Ticket != sus.Ticket {
		t.Fatalf("free admitted %+v, want ticket %d", u, sus.Ticket)
	}
	if n := s.pausedCount.Load(); n != 0 {
		t.Fatalf("pausedCount after admit = %d, want 0", n)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestObserverOrderOnOneShard: eight goroutines, each its own container,
// all hashed to one shard, loop accept/confirm/free on the fast path —
// concurrent under the shard's read lock, serialised per container only
// by that container's mutex. The observer keeps a plain (non-atomic)
// expectation per container, so -race reports any two records of one
// container reaching it unordered, and it asserts each container's
// records strictly alternate accept, free.
func TestObserverOrderOnOneShard(t *testing.T) {
	const (
		workers = 8
		cycles  = 10000
	)
	var ids []ContainerID
	for n := 0; len(ids) < workers; n++ {
		if id := ContainerID(fmt.Sprintf("s%d", n)); shardIndex(id) == 0 {
			ids = append(ids, id)
		}
	}
	s := MustNew(Config{Capacity: workers * bytesize.GiB, ContextOverhead: 1})
	for _, id := range ids {
		if _, err := s.Register(id, bytesize.GiB); err != nil {
			t.Fatal(err)
		}
	}
	type expectation struct {
		next  EventKind
		wrong int
	}
	expect := make(map[ContainerID]*expectation, workers)
	for _, id := range ids {
		expect[id] = &expectation{next: EvAccept}
	}
	var records atomic.Int64
	s.SetObserver(func(e EventRecord) {
		records.Add(1)
		x := expect[e.Container]
		if e.Kind != x.next {
			x.wrong++
		}
		if e.Kind == EvAccept {
			x.next = EvFree
		} else {
			x.next = EvAccept
		}
	})
	var wg sync.WaitGroup
	for w, id := range ids {
		wg.Add(1)
		go func(pid int, id ContainerID) {
			defer wg.Done()
			for i := 0; i < cycles; i++ {
				res, err := s.RequestAlloc(id, pid, bytesize.MiB)
				if err != nil || res.Decision != Accept {
					t.Errorf("%s cycle %d: alloc = %+v, %v", id, i, res, err)
					return
				}
				if err := s.ConfirmAlloc(id, pid, 0x10, bytesize.MiB); err != nil {
					t.Errorf("%s cycle %d: confirm: %v", id, i, err)
					return
				}
				if _, _, err := s.Free(id, pid, 0x10); err != nil {
					t.Errorf("%s cycle %d: free: %v", id, i, err)
					return
				}
			}
		}(w+1, id)
	}
	wg.Wait()
	s.SetObserver(nil)
	if got, want := records.Load(), int64(workers*cycles*2); got != want {
		t.Errorf("observer saw %d records, want %d", got, want)
	}
	for id, x := range expect {
		if x.wrong != 0 || x.next != EvAccept {
			t.Errorf("%s: %d records out of accept/free alternation (next expected %v)", id, x.wrong, x.next)
		}
	}
}
