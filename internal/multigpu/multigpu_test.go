package multigpu

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func devs(pools ...int) []DeviceInfo {
	out := make([]DeviceInfo, len(pools))
	for i, p := range pools {
		out[i] = DeviceInfo{Index: i, Capacity: mib(5120), PoolFree: mib(p)}
	}
	return out
}

func TestRoundRobinRotates(t *testing.T) {
	p := &RoundRobin{}
	d := devs(100, 100, 100)
	got := []int{
		p.Place(mib(10), d), p.Place(mib(10), d), p.Place(mib(10), d), p.Place(mib(10), d),
	}
	want := []int{0, 1, 2, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("round robin order = %v, want %v", got, want)
		}
	}
}

func TestRoundRobinSkipsTooSmallDevices(t *testing.T) {
	p := &RoundRobin{}
	d := devs(0, 0)
	d[0].Capacity = mib(100) // can never hold 200
	if got := p.Place(mib(200), d); got != 1 {
		t.Fatalf("placed on %d, want 1", got)
	}
	// No device large enough.
	d[1].Capacity = mib(100)
	if got := p.Place(mib(200), d); got != -1 {
		t.Fatalf("impossible placement = %d, want -1", got)
	}
}

func TestLeastLoaded(t *testing.T) {
	if got := (LeastLoaded{}).Place(mib(10), devs(100, 500, 300)); got != 1 {
		t.Fatalf("least loaded = %d, want 1", got)
	}
}

func TestFirstFit(t *testing.T) {
	// First device with a pool covering the limit.
	if got := (FirstFit{}).Place(mib(200), devs(100, 300, 900)); got != 1 {
		t.Fatalf("first fit = %d, want 1", got)
	}
	// Nothing fits fully: fall back to least loaded.
	if got := (FirstFit{}).Place(mib(2000), devs(100, 300, 900)); got != 2 {
		t.Fatalf("first fit fallback = %d, want 2", got)
	}
}

func TestBestFitDevice(t *testing.T) {
	// Tightest pool that still covers the limit.
	if got := (BestFitDevice{}).Place(mib(200), devs(900, 250, 400)); got != 1 {
		t.Fatalf("best fit = %d, want 1", got)
	}
	// Fallback to least loaded.
	if got := (BestFitDevice{}).Place(mib(2000), devs(900, 250, 400)); got != 0 {
		t.Fatalf("best fit fallback = %d, want 0", got)
	}
}

func newSched(t *testing.T, n int, pol Policy) *State {
	t.Helper()
	s, err := New(Config{
		Devices:           n,
		CapacityPerDevice: mib(1000),
		Policy:            pol,
		Device:            core.Config{ContextOverhead: 1},
	})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestNewValidation(t *testing.T) {
	if _, err := New(Config{Devices: 0, CapacityPerDevice: mib(100)}); err == nil {
		t.Error("zero devices accepted")
	}
	if _, err := New(Config{Devices: 1, CapacityPerDevice: 0}); err == nil {
		t.Error("zero capacity accepted")
	}
	s, err := New(Config{Devices: 2, CapacityPerDevice: mib(100)})
	if err != nil {
		t.Fatal(err)
	}
	if s.PolicyName() != PolicyLeastLoaded {
		t.Errorf("default policy = %q", s.PolicyName())
	}
}

func TestRegisterPlacesAndIsolates(t *testing.T) {
	s := newSched(t, 2, LeastLoaded{})
	g1, err := s.Register("a", mib(800))
	if err != nil || g1 != mib(800) {
		t.Fatalf("register a: granted=%v err=%v", g1, err)
	}
	// Least-loaded sends the second big container to the other device.
	g2, err := s.Register("b", mib(800))
	if err != nil || g2 != mib(800) {
		t.Fatalf("register b: granted=%v err=%v", g2, err)
	}
	d1, err := s.Placement("a")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := s.Placement("b")
	if err != nil {
		t.Fatal(err)
	}
	if d1 == d2 {
		t.Fatalf("both containers on device %d", d1)
	}
	// Two 800s fit across two devices; a third must squeeze.
	g3, err := s.Register("c", mib(800))
	if err != nil {
		t.Fatal(err)
	}
	if g3 != mib(200) {
		t.Fatalf("third grant = %v, want partial 200MiB", g3)
	}
	if err := s.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

func TestForwardingPaths(t *testing.T) {
	s := newSched(t, 2, &RoundRobin{})
	if _, err := s.Register("a", mib(500)); err != nil {
		t.Fatal(err)
	}
	res, err := s.RequestAlloc("a", 1, mib(100))
	if err != nil || res.Decision != core.Accept {
		t.Fatalf("alloc: %+v %v", res, err)
	}
	if err := s.ConfirmAlloc("a", 1, 0xA, mib(100)); err != nil {
		t.Fatal(err)
	}
	free, total, err := s.MemInfo("a")
	if err != nil || total != mib(500) {
		t.Fatalf("meminfo: (%v,%v,%v)", free, total, err)
	}
	info, err := s.Info("a")
	if err != nil || info.Used != mib(100)+1 {
		t.Fatalf("info: %+v %v", info, err)
	}
	if size, _, err := s.Free("a", 1, 0xA); err != nil || size != mib(100) {
		t.Fatalf("free: %v %v", size, err)
	}
	if _, _, err := s.ProcessExit("a", 1); err != nil {
		t.Fatal(err)
	}
	if d, err := s.Placement("a"); err != nil || d != 0 {
		t.Fatalf("placement: %d %v", d, err)
	}
	if _, _, err := s.Close("a"); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Placement("a"); err == nil {
		t.Fatal("placement survives close")
	}
	// All forwarders fail for unknown containers.
	if _, err := s.RequestAlloc("ghost", 1, 1); err == nil {
		t.Fatal("alloc for unknown container succeeded")
	}
	if _, _, err := s.Close("ghost"); err == nil {
		t.Fatal("close for unknown container succeeded")
	}
}

func TestDevicesSnapshot(t *testing.T) {
	s := newSched(t, 3, LeastLoaded{})
	s.Register("a", mib(400))
	infos := s.Devices()
	if len(infos) != 3 {
		t.Fatalf("Devices() len = %d", len(infos))
	}
	total := 0
	for _, d := range infos {
		total += d.Containers
	}
	if total != 1 {
		t.Fatalf("container count across devices = %d", total)
	}
}
