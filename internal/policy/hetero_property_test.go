package policy

import (
	"math/rand"
	"testing"
	"testing/quick"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
)

// migProfiles are MIG-style instance capacities (the A100's 1g.5gb
// through 7g.40gb slices): the heterogeneous topologies fragaware was
// written for, where devices on one node differ by up to 8x.
var migProfiles = []bytesize.Size{
	5 * bytesize.GiB, 10 * bytesize.GiB, 20 * bytesize.GiB, 40 * bytesize.GiB,
}

// genHeteroDevices builds a random mixed-capacity device summary:
// dense indices, each capacity drawn from the MIG profile set, pools
// within capacity.
func genHeteroDevices(rng *rand.Rand) []core.DeviceInfo {
	n := rng.Intn(8)
	out := make([]core.DeviceInfo, n)
	for i := range out {
		c := migProfiles[rng.Intn(len(migProfiles))]
		out[i] = core.DeviceInfo{
			Index:      i,
			Capacity:   c,
			PoolFree:   bytesize.Size(rng.Int63n(int64(c) + 1)),
			Containers: rng.Intn(10),
		}
	}
	return out
}

// TestFragAwareHeteroProperty: on mixed-capacity topologies, when any
// device's free pool covers the limit, fragaware picks a covering
// device of minimal capacity, breaking capacity ties toward the fuller
// device (smaller free pool). This is the property that keeps small
// containers off large MIG instances so large pools stay whole.
func TestFragAwareHeteroProperty(t *testing.T) {
	f := func(seed int64, limitGiB uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genHeteroDevices(rng)
		limit := bytesize.Size(int(limitGiB)%40+1) * bytesize.GiB
		i := (FragAware{}).Place(limit, devs)
		anyCovers := false
		var minCap, minPool bytesize.Size
		for _, d := range devs {
			if d.Capacity < limit || d.PoolFree < limit {
				continue
			}
			if !anyCovers || d.Capacity < minCap || (d.Capacity == minCap && d.PoolFree < minPool) {
				minCap, minPool = d.Capacity, d.PoolFree
			}
			anyCovers = true
		}
		if anyCovers {
			return i >= 0 && devs[i].Capacity == minCap && devs[i].PoolFree == minPool
		}
		// Fallback: least-loaded among devices whose capacity covers.
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
		return devs[i].Capacity >= limit
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// TestFragAwareSparesLargestProperty: a small request never lands on a
// strictly larger device while a smaller covering device exists —
// stated directly, rather than via the argmin above, because it is the
// invariant heterogeneous operators actually rely on.
func TestFragAwareSparesLargestProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		devs := genHeteroDevices(rng)
		limit := bytesize.Size(rng.Intn(4)+1) * bytesize.GiB
		i := (FragAware{}).Place(limit, devs)
		if i < 0 {
			return true
		}
		for _, d := range devs {
			if d.PoolFree >= limit && d.Capacity >= limit && d.Capacity < devs[i].Capacity {
				// A smaller covering device existed; the pick must not
				// be a fallback (which only happens when nothing covers).
				return devs[i].PoolFree < limit
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

// heteroOpStream drives a random register/alloc/free/close stream
// against a multigpu.State built with MIG-style unequal Capacities,
// checking per-device invariants throughout and a whole-pool drain at
// the end — the heterogeneous mirror of multigpu's op-stream property.
func heteroOpStream(t *testing.T, name string, seed int64) {
	t.Helper()
	pol, err := NewPlace(name, Config{Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	caps := []bytesize.Size{20 * bytesize.GiB, 5 * bytesize.GiB, 5 * bytesize.GiB, 10 * bytesize.GiB}
	s, err := multigpu.New(multigpu.Config{
		Devices:    len(caps),
		Capacities: caps,
		Policy:     pol,
		Device:     core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(seed))
	ids := []core.ContainerID{"a", "b", "c", "d", "e", "f"}
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
			t.Fatalf("place %s seed %d after %s: %v", name, seed, op, err)
		}
	}
	for i := 0; i < 250; i++ {
		id := ids[rng.Intn(len(ids))]
		switch rng.Intn(10) {
		case 0, 1, 2:
			if registered[id] {
				break
			}
			// Limits up to 16 GiB: only the 20 GiB device can host the
			// big ones, so placement must respect unequal capacities.
			limit := bytesize.Size(rng.Intn(16)+1) * bytesize.GiB
			if _, err := s.Register(id, limit); err != nil {
				t.Fatalf("place %s seed %d register %s: %v", name, seed, id, err)
			}
			registered[id] = true
			check("register")
		case 3, 4, 5, 6:
			if !registered[id] {
				break
			}
			size := bytesize.Size(rng.Intn(512)+1) * bytesize.MiB
			res, err := s.RequestAlloc(id, 1, size)
			if err != nil {
				t.Fatalf("place %s seed %d alloc %s: %v", name, seed, id, err)
			}
			check("alloc")
			if res.Decision == core.Accept {
				nextAddr += 0x1000
				if err := s.ConfirmAlloc(id, 1, nextAddr, size); err != nil {
					t.Fatalf("place %s seed %d confirm %s: %v", name, seed, id, err)
				}
				live = append(live, allocation{id, nextAddr, size})
				check("confirm")
			}
		case 7, 8:
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
				t.Fatalf("place %s seed %d free %s: %v", name, seed, a.id, err)
			}
			live = append(live[:j], live[j+1:]...)
			check("free")
		case 9:
			if !registered[id] {
				break
			}
			if _, _, err := s.Close(id); err != nil {
				t.Fatalf("place %s seed %d close %s: %v", name, seed, id, err)
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
	for id := range registered {
		if _, _, err := s.Close(id); err != nil {
			t.Fatal(err)
		}
	}
	for _, d := range s.Devices() {
		if d.PoolFree != d.Capacity {
			t.Fatalf("place %s seed %d: device %d pool %v != capacity %v after drain",
				name, seed, d.Index, d.PoolFree, d.Capacity)
		}
	}
	// The configured asymmetry must survive the whole stream.
	for i, d := range s.Devices() {
		if d.Capacity != caps[i] {
			t.Fatalf("place %s: device %d capacity %v, want %v", name, i, d.Capacity, caps[i])
		}
	}
}

// TestPlaceHeteroOpStreams: every placement policy keeps
// per-device invariants over random op streams on an unequal-capacity
// (MIG-style) topology.
func TestPlaceHeteroOpStreams(t *testing.T) {
	for _, name := range PlaceNames() {
		name := name
		t.Run(name, func(t *testing.T) {
			for seed := int64(1); seed <= 15; seed++ {
				heteroOpStream(t, name, seed)
			}
		})
	}
}
