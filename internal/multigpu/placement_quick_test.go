package multigpu

import (
	"math/rand"
	"testing"
	"testing/quick"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

// genDevices builds a random, well-formed device summary slice: dense
// indices, capacities of a few GiB, pools within capacity.
func genDevices(rng *rand.Rand) []DeviceInfo {
	n := rng.Intn(8)
	out := make([]DeviceInfo, n)
	for i := range out {
		capMiB := rng.Intn(4096) + 1
		out[i] = DeviceInfo{
			Index:      i,
			Capacity:   bytesize.Size(capMiB) * bytesize.MiB,
			PoolFree:   bytesize.Size(rng.Intn(capMiB+1)) * bytesize.MiB,
			Containers: rng.Intn(10),
		}
	}
	return out
}

// freshPolicies builds one instance of every placement policy.
// RoundRobin is stateful, so each property run gets its own.
func freshPolicies() []Policy {
	return []Policy{&RoundRobin{}, LeastLoaded{}, FirstFit{}, BestFitDevice{}}
}

// TestPoliciesPickInRangeProperty: every policy returns either -1 (only
// when no device's capacity covers the limit) or a valid index of a
// device that can ever hold the limit, for arbitrary device sets.
func TestPoliciesPickInRangeProperty(t *testing.T) {
	f := func(seed int64, limitMiB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genDevices(rng)
		limit := bytesize.Size(int(limitMiB)%4096+1) * bytesize.MiB
		anyCapable := false
		for _, d := range devs {
			if d.Capacity >= limit {
				anyCapable = true
			}
		}
		for _, p := range freshPolicies() {
			i := p.Place(limit, devs)
			if !anyCapable {
				if i != -1 {
					return false
				}
				continue
			}
			if i < 0 || i >= len(devs) {
				return false
			}
			if devs[i].Capacity < limit {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestLeastLoadedProperty: the pick has the maximal free pool among
// devices whose capacity covers the limit.
func TestLeastLoadedProperty(t *testing.T) {
	f := func(seed int64, limitMiB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genDevices(rng)
		limit := bytesize.Size(int(limitMiB)%4096+1) * bytesize.MiB
		i := (LeastLoaded{}).Place(limit, devs)
		if i == -1 {
			for _, d := range devs {
				if d.Capacity >= limit {
					return false
				}
			}
			return true
		}
		for _, d := range devs {
			if d.Capacity >= limit && d.PoolFree > devs[i].PoolFree {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestFirstFitProperty: when any pool fully covers the limit, the pick
// is the first such device; otherwise it matches the least-loaded
// fallback.
func TestFirstFitProperty(t *testing.T) {
	f := func(seed int64, limitMiB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genDevices(rng)
		limit := bytesize.Size(int(limitMiB)%4096+1) * bytesize.MiB
		i := (FirstFit{}).Place(limit, devs)
		for _, d := range devs {
			if d.Capacity >= limit && d.PoolFree >= limit {
				return i == d.Index
			}
		}
		return i == (LeastLoaded{}).Place(limit, devs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestBestFitDeviceProperty: when any pool fully covers the limit, the
// pick is a covering device with the minimal pool; otherwise it matches
// the least-loaded fallback.
func TestBestFitDeviceProperty(t *testing.T) {
	f := func(seed int64, limitMiB uint16) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genDevices(rng)
		limit := bytesize.Size(int(limitMiB)%4096+1) * bytesize.MiB
		i := (BestFitDevice{}).Place(limit, devs)
		anyCovers := false
		var minCovering bytesize.Size
		for _, d := range devs {
			if d.Capacity >= limit && d.PoolFree >= limit {
				if !anyCovers || d.PoolFree < minCovering {
					minCovering = d.PoolFree
				}
				anyCovers = true
			}
		}
		if anyCovers {
			return devs[i].PoolFree == minCovering && devs[i].PoolFree >= limit
		}
		return i == (LeastLoaded{}).Place(limit, devs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestRoundRobinRotatesProperty: over devices of equal capacity,
// consecutive placements visit every device before repeating any.
func TestRoundRobinRotatesProperty(t *testing.T) {
	f := func(nDevs uint8, limitMiB uint16) bool {
		n := int(nDevs)%7 + 2
		limit := bytesize.Size(int(limitMiB)%1024+1) * bytesize.MiB
		devs := make([]DeviceInfo, n)
		for i := range devs {
			devs[i] = DeviceInfo{Index: i, Capacity: 4 * bytesize.GiB, PoolFree: bytesize.GiB}
		}
		rr := &RoundRobin{}
		seen := make(map[int]bool, n)
		for i := 0; i < n; i++ {
			d := rr.Place(limit, devs)
			if d < 0 || seen[d] {
				return false
			}
			seen[d] = true
		}
		return len(seen) == n
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// opStream drives a random register/alloc/confirm/free/exit/close
// stream against a multi-device State and checks every device's
// invariants after every operation — the multi-device mirror of the
// core's TestRegisterGrantProperty, exercised once per placement
// policy.
func opStream(t *testing.T, policy Policy, seed int64) {
	t.Helper()
	s, err := New(Config{
		Devices:           3,
		CapacityPerDevice: 1000 * bytesize.MiB,
		Policy:            policy,
		Device:            core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := []core.ContainerID{"a", "b", "c", "d", "e"}
	type allocation struct {
		id   core.ContainerID
		addr uint64
		size bytesize.Size
	}
	var live []allocation
	registered := make(map[core.ContainerID]bool)
	nextAddr := uint64(0x1000)
	check := func(op string) {
		if err := s.CheckInvariants(); err != nil {
			t.Fatalf("policy %s seed %d after %s: %v", policy.Name(), seed, op, err)
		}
	}
	for i := 0; i < 200; i++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(10) {
		case 0, 1, 2: // register
			if registered[id] {
				break
			}
			limit := bytesize.Size(rng.Intn(700)+50) * bytesize.MiB
			if _, err := s.Register(id, limit); err != nil {
				t.Fatalf("policy %s seed %d register %s: %v", policy.Name(), seed, id, err)
			}
			registered[id] = true
			check("register")
		case 3, 4, 5, 6: // alloc+confirm
			if !registered[id] {
				break
			}
			size := bytesize.Size(rng.Intn(100)+1) * bytesize.MiB
			res, err := s.RequestAlloc(id, 1, size)
			if err != nil {
				t.Fatalf("policy %s seed %d alloc %s: %v", policy.Name(), seed, id, err)
			}
			check("alloc")
			if res.Decision == core.Accept {
				nextAddr += 0x1000
				if err := s.ConfirmAlloc(id, 1, nextAddr, size); err != nil {
					t.Fatalf("policy %s seed %d confirm %s: %v", policy.Name(), seed, id, err)
				}
				live = append(live, allocation{id, nextAddr, size})
				check("confirm")
			}
		case 7, 8: // free a live allocation
			if len(live) == 0 {
				break
			}
			j := rng.Intn(len(live))
			a := live[j]
			if !registered[a.id] {
				live = append(live[:j], live[j+1:]...)
				break
			}
			if _, _, err := s.Free(a.id, 1, a.addr); err != nil {
				t.Fatalf("policy %s seed %d free %s: %v", policy.Name(), seed, a.id, err)
			}
			live = append(live[:j], live[j+1:]...)
			check("free")
		case 9: // close
			if !registered[id] {
				break
			}
			if _, _, err := s.Close(id); err != nil {
				t.Fatalf("policy %s seed %d close %s: %v", policy.Name(), seed, id, err)
			}
			delete(registered, id)
			kept := live[:0]
			for _, a := range live {
				if a.id != id {
					kept = append(kept, a)
				}
			}
			live = kept
			check("close")
		}
	}
	// Drain: closing everything must return every device's pool whole.
	for id := range registered {
		if _, _, err := s.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range s.Devices() {
		if d.PoolFree != d.Capacity {
			t.Fatalf("policy %s seed %d: device %d pool %v != capacity %v after drain",
				policy.Name(), seed, d.Index, d.PoolFree, d.Capacity)
		}
	}
}

// TestPlacementOpStreams: random operation streams keep per-device
// invariants for every placement policy.
func TestPlacementOpStreams(t *testing.T) {
	for i, p := range freshPolicies() {
		i := i
		t.Run(p.Name(), func(t *testing.T) {
			for seed := int64(1); seed <= 20; seed++ {
				opStream(t, freshPolicies()[i], seed)
			}
		})
	}
}
