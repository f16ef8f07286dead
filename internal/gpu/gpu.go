// Package gpu simulates the NVIDIA GPU that the paper's testbed provided
// in hardware (a Tesla K20m with 5 GB of device memory, driver 375.51,
// CUDA 8.0.44, Hyper-Q with up to 32 concurrent kernels).
//
// ConVGPU never inspects GPU internals: the middleware only observes
// allocation sizes and device addresses, timing, and process lifecycle.
// The simulation therefore concentrates on exactly those observables:
//
//   - a real address-space allocator (first-fit with free-region
//     coalescing) so addresses behave like cudaMalloc addresses —
//     distinct, stable, freeable, and exhaustible;
//   - the memory arithmetic the wrapper module must compensate for:
//     pitched allocation alignment, the 128 MiB cudaMallocManaged
//     granularity, and the ~66 MiB per-process context overhead
//     (64 MiB process data + 2 MiB CUDA context, paper §III-D);
//   - a latency model calibrated to the paper's Figure 4 baseline
//     (cudaMalloc ≈ 35 µs; cudaMallocManaged ≈ 40× slower because it
//     maps host memory; cudaFree cheap), used by the microbenchmarks;
//   - a Hyper-Q stream engine bounding concurrent kernels at 32.
package gpu

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
)

// Errors mirroring the CUDA failures the middleware must survive.
var (
	// ErrOutOfMemory corresponds to cudaErrorMemoryAllocation: the device
	// cannot satisfy the request. Without ConVGPU this is exactly the
	// failure containers hit when they collide on the GPU.
	ErrOutOfMemory = errors.New("gpu: out of memory")
	// ErrInvalidValue corresponds to cudaErrorInvalidValue.
	ErrInvalidValue = errors.New("gpu: invalid value")
	// ErrInvalidDevicePointer corresponds to cudaErrorInvalidDevicePointer.
	ErrInvalidDevicePointer = errors.New("gpu: invalid device pointer")
	// ErrNoContext is returned when an operation arrives for a process
	// that never created a context (no prior allocation).
	ErrNoContext = errors.New("gpu: no context for process")
)

// Properties describes the device, mirroring cudaDeviceProp fields the
// wrapper module consults (paper: the wrapper retrieves the pitch size of
// the current GPU via cudaGetDeviceProperties on its first
// cudaMallocPitch call).
type Properties struct {
	Name string
	// TotalGlobalMem is the device memory capacity.
	TotalGlobalMem bytesize.Size
	// TexturePitchAlignment is the byte alignment of pitched rows.
	TexturePitchAlignment bytesize.Size
	// ManagedGranularity is the unit cudaMallocManaged consumes device
	// memory in (the paper observed 128 MiB multiples).
	ManagedGranularity bytesize.Size
	// ConcurrentKernels is the Hyper-Q limit (32 on Kepler GK110).
	ConcurrentKernels int
	// MultiProcessorCount is the SM count (13 on K20m).
	MultiProcessorCount int
	// MemoryBandwidth is device memory bandwidth, bytes/second.
	MemoryBandwidth int64
	// PCIeBandwidth is effective host<->device copy bandwidth, bytes/s.
	PCIeBandwidth int64
	// ContextOverhead is the device memory consumed when a process first
	// touches the GPU (64 MiB process data + 2 MiB context).
	ContextOverhead bytesize.Size
}

// K20m returns the properties of the paper's test GPU.
func K20m() Properties {
	return Properties{
		Name:                  "Tesla K20m",
		TotalGlobalMem:        5 * bytesize.GiB,
		TexturePitchAlignment: 512,
		ManagedGranularity:    128 * bytesize.MiB,
		ConcurrentKernels:     32,
		MultiProcessorCount:   13,
		MemoryBandwidth:       208 << 30, // 208 GB/s GDDR5
		PCIeBandwidth:         6 << 30,   // PCIe gen2 x16 effective
		ContextOverhead:       66 * bytesize.MiB,
	}
}

// Latency models per-operation device/driver response time, calibrated to
// the paper's "without ConVGPU" measurements (Fig. 4). Zero durations
// disable simulated latency, which is what the discrete-event experiments
// use — they account time analytically instead.
type Latency struct {
	Malloc        time.Duration
	MallocManaged time.Duration // ~40x Malloc: maps host+device memory
	MallocPitch   time.Duration
	Free          time.Duration
	MemGetInfo    time.Duration
	GetProperties time.Duration
	LaunchKernel  time.Duration // driver-side launch cost
}

// PaperLatency returns the Figure 4 calibration.
func PaperLatency() Latency {
	return Latency{
		Malloc:        35 * time.Microsecond,
		MallocManaged: 1400 * time.Microsecond,
		MallocPitch:   35 * time.Microsecond,
		Free:          25 * time.Microsecond,
		MemGetInfo:    45 * time.Microsecond,
		GetProperties: 250 * time.Microsecond,
		LaunchKernel:  8 * time.Microsecond,
	}
}

// region is a half-open address range [addr, addr+size).
type region struct {
	addr uint64
	size uint64
}

// allocation records a live device allocation; kept by value, so that the
// simulated cudaMalloc costs the tenant's heap no object per call.
type allocation struct {
	addr  uint64
	size  bytesize.Size
	pid   int
	kind  AllocKind
	pitch bytesize.Size // for pitched allocations
}

// AllocKind distinguishes allocation flavors for introspection and tests.
type AllocKind int

// Allocation kinds.
const (
	KindLinear AllocKind = iota
	KindPitched
	KindManaged
)

func (k AllocKind) String() string {
	switch k {
	case KindLinear:
		return "linear"
	case KindPitched:
		return "pitched"
	case KindManaged:
		return "managed"
	default:
		return fmt.Sprintf("AllocKind(%d)", int(k))
	}
}

// baseAddr is where the simulated device heap starts; real CUDA device
// pointers on this hardware generation look similar.
const baseAddr uint64 = 0x0002_0000_0000

// Device is a simulated GPU. All methods are safe for concurrent use —
// multiple containers hammer the device at once in the experiments.
type Device struct {
	props   Properties
	lat     Latency
	clk     clock.Clock
	mu      sync.Mutex
	free    []region // sorted by addr, coalesced
	allocs  map[uint64]allocation
	ctx     map[int]bytesize.Size // pid -> context reservation
	used    bytesize.Size         // sum of allocations + context reservations
	streams *streamEngine
}

// Option configures a Device.
type Option func(*Device)

// WithLatency makes device operations consume simulated time on clk.
// A nil clk keeps the device's current clock (the wall clock by
// default).
func WithLatency(l Latency, clk clock.Clock) Option {
	return func(d *Device) {
		d.lat = l
		if clk != nil {
			d.clk = clk
		}
	}
}

// New creates a device with the given properties. Without WithLatency,
// operations complete immediately (the discrete-event harness accounts
// time itself).
func New(props Properties, opts ...Option) *Device {
	d := &Device{
		props:  props,
		clk:    clock.Real{},
		free:   []region{{addr: baseAddr, size: uint64(props.TotalGlobalMem)}},
		allocs: make(map[uint64]allocation),
		ctx:    make(map[int]bytesize.Size),
	}
	for _, o := range opts {
		o(d)
	}
	d.streams = newStreamEngine(d.clk, props.ConcurrentKernels)
	return d
}

// Clock returns the device's time source.
func (d *Device) Clock() clock.Clock { return d.clk }

// Properties returns the device description.
func (d *Device) Properties() Properties {
	d.sleep(d.lat.GetProperties)
	return d.props
}

func (d *Device) sleep(dur time.Duration) {
	if dur > 0 {
		d.clk.Sleep(dur)
	}
}

// EnsureContext reserves the per-process context overhead if pid has no
// context yet. CUDA does this implicitly on the first API call that
// touches the device. Reports whether a new context was created.
func (d *Device) EnsureContext(pid int) (bool, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.ensureContextLocked(pid)
}

func (d *Device) ensureContextLocked(pid int) (bool, error) {
	if _, ok := d.ctx[pid]; ok {
		return false, nil
	}
	oh := d.props.ContextOverhead
	if d.remainingLocked() < oh {
		return false, ErrOutOfMemory
	}
	d.ctx[pid] = oh
	d.used += oh
	return true, nil
}

func (d *Device) remainingLocked() bytesize.Size {
	return d.props.TotalGlobalMem - d.used
}

// Alloc performs a linear device allocation (cudaMalloc) on behalf of pid,
// creating the process context first if needed.
func (d *Device) Alloc(pid int, size bytesize.Size) (uint64, error) {
	d.sleep(d.lat.Malloc)
	return d.alloc(pid, size, size, KindLinear, 0)
}

// AllocPitch performs a pitched allocation (cudaMallocPitch): each of
// height rows is padded to the device pitch alignment. It returns the
// address and the pitch in bytes; the consumed size is pitch*height,
// which is why the wrapper must adjust the accounted size.
func (d *Device) AllocPitch(pid int, width, height bytesize.Size) (addr uint64, pitch bytesize.Size, err error) {
	d.sleep(d.lat.MallocPitch)
	if width <= 0 || height <= 0 {
		return 0, 0, ErrInvalidValue
	}
	pitch = width.RoundUp(d.props.TexturePitchAlignment)
	addr, err = d.alloc(pid, width*height, pitch*height, KindPitched, pitch)
	return addr, pitch, err
}

// AllocManaged performs a managed allocation (cudaMallocManaged): device
// consumption is rounded up to the managed granularity (128 MiB on the
// paper's stack), which the wrapper must account for.
func (d *Device) AllocManaged(pid int, size bytesize.Size) (uint64, error) {
	d.sleep(d.lat.MallocManaged)
	if size <= 0 {
		return 0, ErrInvalidValue
	}
	return d.alloc(pid, size, size.RoundUp(d.props.ManagedGranularity), KindManaged, 0)
}

func (d *Device) alloc(pid int, requested, consumed bytesize.Size, kind AllocKind, pitch bytesize.Size) (uint64, error) {
	if requested <= 0 || consumed <= 0 {
		return 0, ErrInvalidValue
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if _, err := d.ensureContextLocked(pid); err != nil {
		return 0, err
	}
	if d.remainingLocked() < consumed {
		return 0, ErrOutOfMemory
	}
	// First-fit over the sorted free list.
	want := uint64(consumed)
	for i := range d.free {
		if d.free[i].size >= want {
			addr := d.free[i].addr
			d.free[i].addr += want
			d.free[i].size -= want
			if d.free[i].size == 0 {
				d.free = append(d.free[:i], d.free[i+1:]...)
			}
			d.allocs[addr] = allocation{addr: addr, size: consumed, pid: pid, kind: kind, pitch: pitch}
			d.used += consumed
			return addr, nil
		}
	}
	// Enough total memory but fragmented. Real GPUs fail here too.
	return 0, ErrOutOfMemory
}

// Free releases the allocation at addr (cudaFree) and returns its consumed
// size so the caller can report it to the scheduler.
func (d *Device) Free(pid int, addr uint64) (bytesize.Size, error) {
	d.sleep(d.lat.Free)
	d.mu.Lock()
	defer d.mu.Unlock()
	a, ok := d.allocs[addr]
	if !ok {
		return 0, ErrInvalidDevicePointer
	}
	if a.pid != pid {
		// CUDA contexts are per-process: another process's pointer is
		// invalid in this context.
		return 0, ErrInvalidDevicePointer
	}
	d.releaseLocked(a)
	return a.size, nil
}

func (d *Device) releaseLocked(a allocation) {
	delete(d.allocs, a.addr)
	d.used -= a.size
	d.insertFreeLocked(region{addr: a.addr, size: uint64(a.size)})
}

func (d *Device) insertFreeLocked(r region) {
	i := sort.Search(len(d.free), func(i int) bool { return d.free[i].addr > r.addr })
	d.free = append(d.free, region{})
	copy(d.free[i+1:], d.free[i:])
	d.free[i] = r
	// Coalesce with the right neighbor, then the left.
	if i+1 < len(d.free) && d.free[i].addr+d.free[i].size == d.free[i+1].addr {
		d.free[i].size += d.free[i+1].size
		d.free = append(d.free[:i+1], d.free[i+2:]...)
	}
	if i > 0 && d.free[i-1].addr+d.free[i-1].size == d.free[i].addr {
		d.free[i-1].size += d.free[i].size
		d.free = append(d.free[:i], d.free[i+1:]...)
	}
}

// DestroyContext tears down pid's context (what __cudaUnregisterFatBinary
// triggers at process exit), releasing every allocation the process
// leaked plus the context reservation. It returns the total memory
// recovered.
func (d *Device) DestroyContext(pid int) (bytesize.Size, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	oh, ok := d.ctx[pid]
	if !ok {
		return 0, ErrNoContext
	}
	var recovered bytesize.Size
	for _, a := range d.allocs {
		if a.pid == pid {
			d.releaseLocked(a)
			recovered += a.size
		}
	}
	delete(d.ctx, pid)
	d.used -= oh
	recovered += oh
	return recovered, nil
}

// MemInfo reports free and total device memory (cudaMemGetInfo): the raw
// device view, not the per-container virtualized view ConVGPU presents.
func (d *Device) MemInfo() (free, total bytesize.Size) {
	d.sleep(d.lat.MemGetInfo)
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.remainingLocked(), d.props.TotalGlobalMem
}

// Used reports currently consumed memory including context reservations.
func (d *Device) Used() bytesize.Size {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.used
}

// AllocCount reports the number of live allocations (diagnostics/tests).
func (d *Device) AllocCount() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.allocs)
}

// FreeRegions reports the number of fragments in the free list
// (diagnostics/tests: 1 means fully coalesced when nothing is allocated).
func (d *Device) FreeRegions() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return len(d.free)
}

// Lookup reports the size and owner of the allocation at addr.
func (d *Device) Lookup(addr uint64) (size bytesize.Size, pid int, ok bool) {
	d.mu.Lock()
	defer d.mu.Unlock()
	a, found := d.allocs[addr]
	if !found {
		return 0, 0, false
	}
	return a.size, a.pid, true
}

// HasContext reports whether pid holds a device context.
func (d *Device) HasContext(pid int) bool {
	d.mu.Lock()
	defer d.mu.Unlock()
	_, ok := d.ctx[pid]
	return ok
}

// CopyDuration computes how long a host<->device transfer of size takes
// at the device's PCIe bandwidth.
func (d *Device) CopyDuration(size bytesize.Size) time.Duration {
	if size <= 0 || d.props.PCIeBandwidth <= 0 {
		return 0
	}
	return time.Duration(int64(size) * int64(time.Second) / d.props.PCIeBandwidth)
}

// Memcpy simulates a host<->device transfer: it consumes the transfer
// duration on the device clock. The destination/source must be a live
// allocation belonging to pid.
func (d *Device) Memcpy(pid int, addr uint64, size bytesize.Size) error {
	d.mu.Lock()
	a, ok := d.allocs[addr]
	crossPID := ok && a.pid != pid
	tooBig := ok && !crossPID && size > a.size
	d.mu.Unlock()
	if !ok || crossPID {
		return ErrInvalidDevicePointer
	}
	if tooBig {
		return ErrInvalidValue
	}
	d.sleep(d.CopyDuration(size))
	return nil
}

// Launch schedules a kernel of the given duration on pid's stream. Stream
// 0 is the default stream. The call returns after the driver-side launch
// cost; the kernel completes asynchronously (Hyper-Q permitting).
func (d *Device) Launch(pid, stream int, duration time.Duration) error {
	d.mu.Lock()
	_, hasCtx := d.ctx[pid]
	d.mu.Unlock()
	if !hasCtx {
		if _, err := d.EnsureContext(pid); err != nil {
			return err
		}
	}
	d.sleep(d.lat.LaunchKernel)
	d.streams.launch(pid, stream, duration)
	return nil
}

// Synchronize blocks until all of pid's streams are idle
// (cudaDeviceSynchronize).
func (d *Device) Synchronize(pid int) {
	d.streams.synchronize(pid)
}

// SynchronizeStream blocks until one of pid's streams is idle
// (cudaStreamSynchronize).
func (d *Device) SynchronizeStream(pid, stream int) {
	d.streams.synchronizeStream(pid, stream)
}

// StreamDrainTime reports when a stream's queued work completes (the
// zero time means idle) — the primitive events are built on.
func (d *Device) StreamDrainTime(pid, stream int) time.Time {
	return d.streams.drainTime(pid, stream)
}

// EnqueueCopy queues an asynchronous host<->device transfer on pid's
// stream (cudaMemcpyAsync): validation is immediate, the transfer time
// is consumed by the stream.
func (d *Device) EnqueueCopy(pid int, addr uint64, size bytesize.Size, stream int) error {
	d.mu.Lock()
	a, ok := d.allocs[addr]
	crossPID := ok && a.pid != pid
	tooBig := ok && !crossPID && size > a.size
	d.mu.Unlock()
	if !ok || crossPID {
		return ErrInvalidDevicePointer
	}
	if tooBig {
		return ErrInvalidValue
	}
	d.streams.launch(pid, stream, d.CopyDuration(size))
	return nil
}

// BusyStreams reports how many streams currently have work queued or
// running (diagnostics/tests).
func (d *Device) BusyStreams() int { return d.streams.busy() }
