package convgpu_test

import (
	"context"
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"convgpu"

	"convgpu/internal/cuda"
)

// TestIntegrationConcurrentContainers hammers the full stack — real
// UNIX sockets, daemon, wrapper, simulated device — with many
// concurrent containers running randomized allocation workloads, and
// verifies that everything drains cleanly: scheduler invariants hold
// throughout, the pool returns to capacity, and the device ends empty.
func TestIntegrationConcurrentContainers(t *testing.T) {
	sys := newStack(t, convgpu.WithCapacity(2*convgpu.GiB))
	const waves = 3
	const perWave = 8

	for wave := 0; wave < waves; wave++ {
		var wg sync.WaitGroup
		errs := make(chan error, perWave)
		for i := 0; i < perWave; i++ {
			seed := int64(wave*100 + i)
			name := fmt.Sprintf("stress-%d-%d", wave, i)
			limit := convgpu.Size(128+rand.New(rand.NewSource(seed)).Intn(512)) * convgpu.MiB
			c, err := sys.Run(context.Background(), convgpu.RunOptions{
				Name:         name,
				Image:        convgpu.CUDAImage("stress", ""),
				NvidiaMemory: limit,
				Program:      randomAllocProgram(seed, limit),
			})
			if err != nil {
				t.Fatal(err)
			}
			wg.Add(1)
			go func(c *convgpu.Container) {
				defer wg.Done()
				if err := c.Wait(); err != nil {
					errs <- fmt.Errorf("%s: %w", c.ID(), err)
				}
			}(c)
		}
		wg.Wait()
		close(errs)
		for err := range errs {
			t.Error(err)
		}
		// After each wave the system must be fully drained.
		waitDrained(t, sys)
	}
}

// randomAllocProgram allocates, frees, leaks and re-allocates randomly
// within its limit; every decision is seeded so failures reproduce.
func randomAllocProgram(seed int64, limit convgpu.Size) convgpu.Program {
	return func(p *convgpu.Proc) error {
		rng := rand.New(rand.NewSource(seed))
		budget := limit - 66*convgpu.MiB // leave room for the context
		var live []cuda.DevPtr
		var used convgpu.Size
		for op := 0; op < 30; op++ {
			if len(live) > 0 && rng.Intn(3) == 0 {
				i := rng.Intn(len(live))
				if err := p.CUDA.Free(live[i]); err != nil {
					return fmt.Errorf("free: %w", err)
				}
				live = append(live[:i], live[i+1:]...)
				continue
			}
			size := convgpu.Size(rng.Intn(int(budget/8))) + 1
			if used+size > budget {
				continue
			}
			ptr, err := p.CUDA.Malloc(size)
			if err != nil {
				return fmt.Errorf("malloc %v (used %v of %v): %w", size, used, budget, err)
			}
			used += size
			if rng.Intn(4) != 0 {
				live = append(live, ptr)
			} // else: leaked deliberately; procexit must clean it up
		}
		// Half the programs clean up, half rely on the implicit
		// __cudaUnregisterFatBinary teardown.
		if rng.Intn(2) == 0 {
			for _, ptr := range live {
				if err := p.CUDA.Free(ptr); err != nil {
					return err
				}
			}
		}
		return nil
	}
}

func waitDrained(t *testing.T, sys *convgpu.Stack) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		if sys.PoolFree() == sys.Device().Properties().TotalGlobalMem && sys.Device().Used() == 0 {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("system did not drain: pool=%v deviceUsed=%v snapshot=%+v",
				sys.PoolFree(), sys.Device().Used(), sys.Snapshot())
		}
		time.Sleep(time.Millisecond)
	}
}

// TestIntegrationStoppedContainerCleansUp kills containers mid-flight
// (docker stop) — including one blocked in a suspended allocation — and
// verifies the close signal reclaims everything.
func TestIntegrationStoppedContainerCleansUp(t *testing.T) {
	sys := newStack(t, convgpu.WithCapacity(1000*convgpu.MiB))
	started := make(chan struct{})
	holder, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "holder",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 700 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			if _, err := p.CUDA.Malloc(600 * convgpu.MiB); err != nil {
				return err
			}
			close(started)
			<-p.Ctx.Done() // runs until stopped, leaking its memory
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	// The waiter suspends on its allocation.
	waiter, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "waiter",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 500 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(400 * convgpu.MiB)
			if err != nil {
				return err
			}
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	// Wait until the waiter is visibly suspended.
	deadline := time.Now().Add(5 * time.Second)
	for {
		suspended := false
		for _, info := range sys.Snapshot() {
			if info.ID == "waiter" && info.Suspended {
				suspended = true
			}
		}
		if suspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("waiter never suspended")
		}
		time.Sleep(time.Millisecond)
	}

	// docker stop the holder: its program is cancelled, the exit hook
	// delivers the close signal, and the waiter resumes.
	holder.Stop()
	if err := waiter.Wait(); err != nil {
		t.Fatalf("waiter failed after holder was stopped: %v", err)
	}
	waitDrained(t, sys)
}

// TestIntegrationStopSuspendedContainer stops a container that is
// itself blocked inside a suspended allocation: the close signal must
// cancel the parked request so the program unblocks and exits.
func TestIntegrationStopSuspendedContainer(t *testing.T) {
	sys := newStack(t, convgpu.WithCapacity(1000*convgpu.MiB))
	blocked := make(chan struct{})
	holder, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "holder",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 700 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			if _, err := p.CUDA.Malloc(600 * convgpu.MiB); err != nil {
				return err
			}
			<-blocked
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	victim, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "victim",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 500 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			// This suspends indefinitely; the error surfaces when the
			// container is closed underneath it.
			_, err := p.CUDA.Malloc(400 * convgpu.MiB)
			return err
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for {
		s := false
		for _, info := range sys.Snapshot() {
			if info.ID == "victim" && info.Suspended {
				s = true
			}
		}
		if s {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("victim never suspended")
		}
		time.Sleep(time.Millisecond)
	}
	// Simulate `docker stop victim` + the plugin's close: closing via
	// the scheduler cancels the parked allocation.
	victim.Stop()
	if err := victim.Wait(); err == nil {
		t.Log("victim exited cleanly (cancelled allocation surfaced as ctx cancellation)")
	}
	close(blocked)
	if err := holder.Wait(); err != nil {
		t.Fatal(err)
	}
	waitDrained(t, sys)
}

// TestIntegrationInvariantsUnderChurn interleaves registrations, runs
// and closes while checking scheduler invariants from a second
// goroutine the whole time.
func TestIntegrationInvariantsUnderChurn(t *testing.T) {
	sys := newStack(t, convgpu.WithCapacity(2*convgpu.GiB), convgpu.WithAlgorithm(convgpu.BestFit))
	stop := make(chan struct{})
	violations := make(chan string, 1)
	go func() {
		for {
			select {
			case <-stop:
				return
			default:
			}
			// Per-container invariants are atomic within one snapshot.
			// (The grants+pool==capacity invariant needs the core lock;
			// core.CheckInvariants covers it in the unit tests.)
			for _, info := range sys.Snapshot() {
				if info.Used > info.Grant || info.Grant > info.Limit {
					select {
					case violations <- fmt.Sprintf("invariant violated: %+v", info):
					default:
					}
				}
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	var wg sync.WaitGroup
	for i := 0; i < 12; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < 4; j++ {
				c, err := sys.Run(context.Background(), convgpu.RunOptions{
					Name:         fmt.Sprintf("churn-%d-%d", i, j),
					Image:        convgpu.CUDAImage("churn", ""),
					NvidiaMemory: 300 * convgpu.MiB,
					Program:      randomAllocProgram(int64(i*10+j), 300*convgpu.MiB),
				})
				if err != nil {
					t.Error(err)
					return
				}
				if err := c.Wait(); err != nil {
					t.Errorf("churn-%d-%d: %v", i, j, err)
				}
			}
		}(i)
	}
	wg.Wait()
	close(stop)
	select {
	case v := <-violations:
		t.Fatal(v)
	default:
	}
	waitDrained(t, sys)
}
