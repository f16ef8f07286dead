package policy

import (
	"fmt"
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

// TestNewSchedulerTopologies: the one assembly picks the backend by
// node and device count, applies the shared defaults (fifo, a device
// count below one is one), sizes every device from the spec, and
// refuses names no table knows before building anything — including a
// name the topology would not use.
func TestNewSchedulerTopologies(t *testing.T) {
	gib := bytesize.GiB
	for _, tc := range []struct {
		spec     Spec
		backend  string
		capacity bytesize.Size
	}{
		{Spec{Capacity: gib}, "*core.State", gib},
		{Spec{Capacity: gib, Devices: 3, Wake: "bf", Place: "rr"}, "*multigpu.State", 3 * gib},
		{Spec{Devices: 2, Capacities: []bytesize.Size{gib, 3 * gib}}, "*multigpu.State", 4 * gib},
		{Spec{Capacity: gib, Nodes: 2}, "*cluster.Cluster", 2 * gib},
		{Spec{Capacity: gib, Nodes: 2, Devices: 2, Strategy: "binpack", Wake: "priority"}, "*cluster.Cluster", 4 * gib},
	} {
		st, err := NewScheduler(tc.spec)
		if err != nil {
			t.Fatalf("%+v: %v", tc.spec, err)
		}
		if got := fmt.Sprintf("%T", st); got != tc.backend || st.Capacity() != tc.capacity {
			t.Errorf("%+v: built %s of %v, want %s of %v", tc.spec, got, st.Capacity(), tc.backend, tc.capacity)
		}
		wake := tc.spec.Wake
		if wake == "" {
			wake = core.AlgFIFO
		}
		if canonical, _ := ResolveWake(wake); st.AlgorithmName() != canonical {
			t.Errorf("%+v: algorithm %q, want %q", tc.spec, st.AlgorithmName(), canonical)
		}
	}
	for _, bad := range []Spec{
		{Capacity: gib, Wake: "nosuch"},
		{Capacity: gib, Devices: 2, Place: "nosuch"},
		{Capacity: gib, Nodes: 2, Place: "nosuch"},
		{Capacity: gib, Nodes: 2, Strategy: "nosuch"},
		{Capacity: gib, Place: "nosuch"},
		{Capacity: gib, Devices: 2, Strategy: "nosuch"},
		{Devices: 2, Capacities: []bytesize.Size{gib}},
		{},
	} {
		if _, err := NewScheduler(bad); err == nil {
			t.Errorf("%+v: accepted", bad)
		}
	}
}
