package fault_test

import (
	"context"
	"errors"
	"fmt"
	"net"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// oneWayFault loses exactly one one-way frame of one kind: the first
// write, after skip earlier ones, that contains a one-way frame of the
// victim's type — alone, riding in front of another frame (a deferred
// confirm, and the free that joined it, leave with whatever is called
// next) or behind one — is lost whole. "drop" swallows it (the write
// reports success, like a kernel buffer lost with a dying peer; when an
// alloc was in it the peer is dead after it too, or the Malloc, which no
// call timeout covers, would wait for ever), "truncate" delivers half of
// it and kills the connection, "close" kills the connection under it.
// Everything else passes.
type oneWayFault struct {
	net.Conn
	how    string
	victim protocol.Type
	skip   *int // writes carrying the victim still to let through, shared across redials
	mu     *sync.Mutex
	fired  *bool
	lost   *[]protocol.Type // the frames of the write that was lost
}

// carries reports whether the bytes of one write hold a one-way frame of
// type typ.
func carries(b []byte, typ protocol.Type) bool {
	for _, m := range fault.Frames(b) {
		if m.NoReply && m.Type == typ {
			return true
		}
	}
	return false
}

func (c *oneWayFault) Write(b []byte) (int, error) {
	c.mu.Lock()
	hit := !*c.fired && carries(b, c.victim)
	if hit && *c.skip > 0 {
		*c.skip--
		hit = false
	}
	withAlloc := false
	if hit {
		*c.fired = true
		for _, m := range fault.Frames(b) {
			*c.lost = append(*c.lost, m.Type)
			withAlloc = withAlloc || m.Type == protocol.TypeAlloc
		}
	}
	c.mu.Unlock()
	if !hit {
		return c.Conn.Write(b)
	}
	switch c.how {
	case "drop":
		if withAlloc {
			c.Conn.Close()
		}
		return len(b), nil
	case "truncate":
		n, _ := c.Conn.Write(b[:len(b)/2])
		c.Conn.Close()
		return n, fault.ErrInjected
	default:
		c.Conn.Close()
		return 0, fault.ErrInjected
	}
}

// TestChaosOneWayFrameLost: a one-way frame is the one message whose
// loss nobody is waiting to notice. Lose each kind — a confirm, a free —
// each way a dying connection can, in the middle of a run of cycles, and
// demand the contract: the scheduler may over-count from then on but
// never under-counts what the device holds, the sum of grants never
// exceeds capacity, the process exit reclaims the over-count, and the
// pool is whole after close. A lost confirm is held to more. It leaves
// with the frame after it, so its loss takes that frame along and the
// connection is found dead; the redial's replay restores the allocation
// onto the charge its alloc made, and from then on the scheduler counts
// exactly what the device holds — no over-count to reclaim. A lost free
// is lost in the write a tight loop puts it in: behind its allocation's
// confirm and in front of the next alloc. The Malloc that wrote it fails,
// the connection is replaced, and the replay restores the block the
// process still holds and nothing else — the lost pair leaves an
// accepted, never-confirmed charge for a block the process no longer
// has, so the scheduler is over by exactly that one allocation until
// the process exits.
func TestChaosOneWayFrameLost(t *testing.T) {
	leak.Check(t)
	for _, how := range []string{"drop", "truncate", "close"} {
		for _, victim := range []protocol.Type{protocol.TypeConfirm, protocol.TypeFree} {
			t.Run(how+"-"+string(victim), func(t *testing.T) {
				want := fmt.Sprint([]protocol.Type{protocol.TypeConfirm, protocol.TypeFree, protocol.TypeAlloc})
				for attempt := 1; ; attempt++ {
					lost := fmt.Sprint(loseOneWayFrame(t, how, victim))
					if victim != protocol.TypeFree || lost == want {
						return
					}
					// The deferral timer fired between a Free and the next
					// Malloc, and the fault hit some other write with a free in
					// it. The contract held there too; the row is about this one.
					if attempt == 5 {
						t.Fatalf("the lost write held %s five times running, never %s", lost, want)
					}
				}
			})
		}
	}
}

// loseOneWayFrame runs six Malloc+Free cycles beside one block held
// throughout, loses the third write that carries a one-way victim frame,
// checks the contract at every barrier and returns the frames that were
// in the lost write. A confirm row takes a barrier after every call, so
// its confirm rides the barrier's heartbeat. A free row takes none
// between an even cycle's Free and the odd cycle's Malloc: that Malloc's
// write is confirm, free, alloc.
func loseOneWayFrame(t *testing.T, how string, victim protocol.Type) []protocol.Type {
	const capacity = 1000
	st := core.MustNew(core.Config{Capacity: cmib(capacity), ContextOverhead: 1})
	d, err := daemon.Start(daemon.Config{BaseDir: filepath.Join(t.TempDir(), "cv"), Core: st})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()
	sock := chaosRegister(t, ctl, "a", cmib(600), core.Tenant{})

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	skip, fired, mu := 2, false, new(sync.Mutex) // two clean writes first
	var lost []protocol.Type
	var mod *wrapper.Module
	rec := ipc.NewReconnector(ipc.ReconnectConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return &oneWayFault{Conn: c, how: how, victim: victim, skip: &skip, mu: mu, fired: &fired, lost: &lost}, nil
		},
		Backoff:     ipc.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		CallTimeout: 250 * time.Millisecond, // what a dropped confirm costs: it takes the barrier's heartbeat with it
		Seed:        1,
		OnReconnect: func(c *ipc.Client) error { return mod.ReplayState(ctx, c) },
	})
	defer rec.Close()
	dev := gpu.New(gpu.K20m())
	mod = wrapper.New(cuda.NewRuntime(dev, 1), rec, 1, wrapper.WithContext(ctx))

	// conservative checks the contract after every call: whatever
	// was lost, the scheduler's account covers the device's.
	live := map[cuda.DevPtr]bytesize.Size{}
	sizes := map[bytesize.Size]bool{} // of the cycles so far
	conservative := func(step string) {
		t.Helper()
		if err := mod.Flush(); err != nil {
			var ref *protocol.Refusal
			if errors.As(err, &ref) {
				t.Fatalf("%s: the loss surfaced as a refusal, so the scheduler diverged: %v", step, err)
			}
			if err = mod.Flush(); err != nil { // a dead connection costs one call
				t.Fatalf("%s: no barrier after a redial: %v", step, err)
			}
		}
		if err := st.CheckInvariants(); err != nil {
			t.Fatalf("%s: %v", step, err)
		}
		var held bytesize.Size
		for _, size := range live {
			held += size
		}
		info, err := st.Info("a")
		if err != nil {
			t.Fatal(err)
		}
		if info.Used < held+1 {
			t.Fatalf("%s: scheduler counts %v, the device holds %v + the 1-byte context: under-counted", step, info.Used, held)
		}
		// (No redial: the confirm was dropped on the timer's own
		// write, alone, and nobody can have noticed.)
		if victim == protocol.TypeConfirm && rec.Generation() > 1 && info.Used != held+1 {
			t.Fatalf("%s: scheduler counts %v after the replay, the device holds %v + the 1-byte context: the lost confirm was not repaired", step, info.Used, held)
		}
		// A lost free, with or without its confirm, is one allocation the
		// scheduler still counts and the replay does not restore.
		if over := info.Used - held - 1; victim == protocol.TypeFree && over != 0 && !sizes[over] {
			t.Fatalf("%s: scheduler counts %v, the device holds %v + the 1-byte context: over by %v, which is no one allocation's size", step, info.Used, held, over)
		}
		if free := st.PoolFree(); free+info.Grant != cmib(capacity) {
			t.Fatalf("%s: pool %v + grant %v != capacity", step, free, info.Grant)
		}
	}
	kept, err := mod.Malloc(cmib(50)) // held across the loss: the replay has it to restore
	if err != nil {
		t.Fatal(err)
	}
	live[kept] = cmib(50)
	conservative("the kept block")
	for i := 0; i < 6; i++ {
		barrier := victim == protocol.TypeConfirm || i%2 == 1
		size := cmib(10 + i)
		sizes[size] = true
		ptr, err := mod.Malloc(size)
		if ptr != 0 {
			live[ptr] = size // allocated on the device whatever became of the report
		} else if err == nil {
			t.Fatalf("cycle %d: Malloc returned neither pointer nor error", i)
		}
		if barrier || ptr == 0 {
			conservative(fmt.Sprintf("cycle %d after Malloc (%v)", i, err))
		}
		if ptr != 0 {
			mod.Free(ptr) // frees on the device whatever becomes of the report
			delete(live, ptr)
			if barrier {
				conservative(fmt.Sprintf("cycle %d after Free", i))
			}
		}
	}
	conservative("the last cycle")
	mu.Lock() // the deferral timer writes too
	didFire, lostFrames := fired, lost
	mu.Unlock()
	if !didFire {
		t.Fatal("the fault never fired: no one-way frame was lost")
	}
	if (victim == protocol.TypeConfirm || len(lostFrames) == 3) && how != "drop" && rec.Generation() < 2 {
		t.Errorf("the write of %v failed and the connection was never replaced", lostFrames)
	}

	if err := mod.UnregisterFatBinary(); err != nil {
		t.Fatal(err)
	}
	if info, _ := st.Info("a"); info.Used != 0 {
		t.Errorf("used = %v after the process exited; the over-count was not reclaimed", info.Used)
	}
	if resp, err := ctl.Call(ctx, &protocol.Message{Type: protocol.TypeClose, Container: "a"}); err != nil || !resp.OK {
		t.Fatalf("close: %+v %v", resp, err)
	}
	if free := st.PoolFree(); free != cmib(capacity) {
		t.Errorf("pool after close = %v, want all %d MiB", free, capacity)
	}
	return lostFrames
}
