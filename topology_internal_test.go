package convgpu

import (
	"testing"

	"convgpu/internal/core"
)

// leaves returns the per-device schedulers of a built backend, whatever
// its topology: the state itself, a multi-GPU state's devices, or every
// device of every node of a cluster.
func leaves(s core.Scheduler) []*core.State {
	if st, ok := s.(*core.State); ok {
		return []*core.State{st}
	}
	r := s.(interface {
		NumMembers() int
		Member(int) core.Scheduler
	})
	var out []*core.State
	for i := 0; i < r.NumMembers(); i++ {
		out = append(out, leaves(r.Member(i))...)
	}
	return out
}

// pausedPair drives one device (1000 MiB, 66 MiB context charge,
// Recent-Use) into the state the per-device options are observable
// from: a filler holding memory, an older container paused on a partial
// grant — with heldMiB already allocated when heldMiB > 0 — and a newer
// one paused on nothing. Closing the filler is then the release whose
// outcome each option changes.
func pausedPair(t *testing.T, st *core.State, fillerMiB, heldMiB, olderMiB, newerMiB int64) core.Update {
	t.Helper()
	alloc := func(id core.ContainerID, pid int, mib int64) core.Decision {
		res, err := st.RequestAlloc(id, pid, Size(mib)*MiB)
		if err != nil {
			t.Fatal(err)
		}
		if res.Decision == core.Accept {
			if err := st.ConfirmAlloc(id, pid, uint64(pid)<<20, Size(mib)*MiB); err != nil {
				t.Fatal(err)
			}
		}
		return res.Decision
	}
	register := func(id core.ContainerID, mib int64) {
		if _, err := st.Register(id, Size(mib)*MiB); err != nil {
			t.Fatal(err)
		}
	}
	register("filler", fillerMiB)
	alloc("filler", 9, fillerMiB-100)
	register("older", 900)
	if heldMiB > 0 && alloc("older", 1, heldMiB) != core.Accept {
		t.Fatal("setup: older's first allocation did not fit its grant")
	}
	if alloc("older", 1, olderMiB) != core.Suspend {
		t.Fatal("setup: older did not suspend")
	}
	register("newer", 900)
	if alloc("newer", 2, newerMiB) != core.Suspend {
		t.Fatal("setup: newer did not suspend")
	}
	_, u, err := st.Close("filler")
	if err != nil {
		t.Fatal(err)
	}
	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	return u
}

// TestPerDeviceOptionsReachEveryTopology: WithFaultTolerant and
// WithPersistentGrants configure the per-device scheduler, so they must
// be in force on every device of every topology New can build — they
// used to reach the single-device branch only. New assembles through
// policy.NewScheduler, as convgpu-scheduler and the load harness do, so
// this covers their topologies too.
func TestPerDeviceOptionsReachEveryTopology(t *testing.T) {
	topologies := []struct {
		name    string
		options []Option
		devices int
	}{
		{"1 device", nil, 1},
		{"2 devices", []Option{WithDevices(2)}, 2},
		{"2 nodes x 1 GPU", []Option{WithNodes(2)}, 2},
	}
	build := func(t *testing.T, topo, option []Option, devices int) []*core.State {
		t.Helper()
		opts := append([]Option{WithCapacity(1000 * MiB), WithAlgorithm("recentuse")}, topo...)
		s, err := New(append(opts, option...)...)
		if err != nil {
			t.Fatal(err)
		}
		devs := leaves(s.state)
		if len(devs) != devices {
			t.Fatalf("built %d devices, want %d", len(devs), devices)
		}
		return devs
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			// core's stalledSetup with the real context charge: Recent-Use
			// hands everything freed to the newer container, which still
			// cannot resume; only the rescue pass admits the older one.
			for i, st := range build(t, topo.options, []Option{WithFaultTolerant()}, topo.devices) {
				u := pausedPair(t, st, 500, 300, 400, 600)
				if len(u.Admitted) != 1 || u.Admitted[0].Container != "older" {
					t.Errorf("device %d: rescue not in force: admitted %+v, want older", i, u.Admitted)
				}
			}
			// Reclaiming grants would take older's unused 700 MiB back and
			// admit newer with it; persistent grants leave it where it is,
			// and the 300 MiB the filler returned admit nobody.
			for i, st := range build(t, topo.options, []Option{WithPersistentGrants()}, topo.devices) {
				u := pausedPair(t, st, 300, 0, 800, 400)
				info, err := st.Info("older")
				if err != nil {
					t.Fatal(err)
				}
				if len(u.Admitted) != 0 || info.Grant != 700*MiB {
					t.Errorf("device %d: persistent grants not in force: admitted %+v, older's grant %v (want none, 700 MiB)", i, u.Admitted, info.Grant)
				}
			}
		})
	}
}
