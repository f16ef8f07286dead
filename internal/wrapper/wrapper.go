// Package wrapper implements ConVGPU's CUDA wrapper API module — the
// libgpushare.so shared library of the paper (§III-C), recast as a Go
// interposition layer.
//
// In the paper the module is injected into every container through the
// LD_PRELOAD environment variable, overriding the function symbols of a
// subset of the CUDA API (Table II) while leaving every other entry
// point untouched. Here the same seam is the cuda.API interface: Module
// wraps an inner cuda.API and replaces exactly the Table II calls —
// allocation APIs, cudaFree, cudaMemGetInfo, and
// __cudaUnregisterFatBinary — forwarding the rest verbatim.
//
// For each intercepted allocation the module:
//
//  1. adjusts the requested size to what the device will actually
//     consume: pitched rows are padded to the device pitch alignment
//     (retrieved once via cudaGetDeviceProperties, which is why the
//     paper's first cudaMallocPitch is ~2x slower), and managed memory
//     is rounded up to 128 MiB granularity;
//  2. asks the GPU memory scheduler whether the size is available — the
//     call blocks while the scheduler pauses the container;
//  3. performs the real allocation only after a positive response, and
//  4. reports the resulting device address back, one-way, with the next
//     request it sends (the free that follows within a millisecond waits
//     with it), so the scheduler can track the container's usage.
//
// cudaMemGetInfo never touches the device: the scheduler already knows
// the container's virtualized view, which is why the paper measures it
// *faster* with ConVGPU than without.
package wrapper

import (
	"context"
	"errors"
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/cuda"
	"convgpu/internal/errs"
	"convgpu/internal/gpu"
	"convgpu/internal/protocol"
)

// ModuleFileName and SocketFileName are protocol.ModuleFileName and
// protocol.SocketFileName under the names the repository benchmark
// (bench/, a module of its own that this one does not build) still uses.
const (
	ModuleFileName = protocol.ModuleFileName
	SocketFileName = protocol.SocketFileName
)

// Caller is the wrapper's channel to the GPU memory scheduler:
// *ipc.Client over a UNIX socket, or daemon.Caller, which runs the
// daemon's handler with no socket (tests, and the transport ablation
// that isolates transport cost). Call's response belongs
// to the caller, which may hand it back to the message pool
// (protocol.ReleaseMessage); implementations must not retain it, nor m
// once Call or Post has returned: the module's alloc, confirm and free
// come from the pool and go back then, so that an intercepted call
// leaves no garbage in the tenant's process. Post
// sends a report whose sender does not wait (confirm, free); what its
// nil return does and does not promise — queued, not necessarily
// written — is ipc.Client.Post's to say. Messages are
// applied in the order sent, so a Call is a barrier for every Post
// before it; a refused Post is the *protocol.Refusal the next Call or
// Post returns.
type Caller interface {
	Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error)
	Post(ctx context.Context, m *protocol.Message) error
}

// Module is the wrapper, bound to one process inside one container.
type Module struct {
	inner cuda.API
	sched Caller
	pid   int
	ctx   context.Context

	mu        sync.Mutex
	propsOnce bool
	props     gpu.Properties
	exited    bool
	// device is the GPU index the scheduler assigned this container,
	// captured from the attach response (ReplayState). Allocation and
	// meminfo traffic is already device-bound server-side; the wrapper
	// records it so the process can pin its CUDA context to the right
	// device before the first real allocation.
	device int
	// allocs tracks the process's live device allocations (address →
	// adjusted size) so the module can replay them to a restarted
	// scheduler (ReplayState) instead of silently holding unaccounted
	// memory.
	allocs map[cuda.DevPtr]bytesize.Size
	held   protocol.Held // a report's refusal the heartbeat loop got; see settle
}

// settle returns err or, when that call went well, the refusal the
// heartbeat loop is holding for the next call into the module.
func (m *Module) settle(err error) error {
	if err == nil {
		err = m.held.Take()
	}
	return err
}

// Option configures a Module.
type Option func(*Module)

// WithContext bounds the process's lifetime: when ctx is cancelled (the
// container is being stopped — Docker would SIGKILL the process), a
// suspended allocation unblocks with an error instead of waiting
// forever. Without it, suspension can outlive any attempt to stop the
// container, since the close signal only fires on exit.
func WithContext(ctx context.Context) Option {
	return func(m *Module) { m.ctx = ctx }
}

// New builds a wrapper module around the process's real CUDA runtime.
func New(inner cuda.API, sched Caller, pid int, opts ...Option) *Module {
	m := &Module{
		inner:  inner,
		sched:  sched,
		pid:    pid,
		ctx:    context.Background(),
		allocs: make(map[cuda.DevPtr]bytesize.Size),
	}
	for _, o := range opts {
		o(m)
	}
	return m
}

// deviceProps retrieves and caches device properties (pitch alignment,
// managed granularity) via the original cudaGetDeviceProperties, on
// first use — the paper's observed first-call penalty for
// cudaMallocPitch.
func (m *Module) deviceProps() (gpu.Properties, error) {
	m.mu.Lock()
	cached := m.propsOnce
	props := m.props
	m.mu.Unlock()
	if cached {
		return props, nil
	}
	p, err := m.inner.GetDeviceProperties()
	if err != nil {
		return gpu.Properties{}, err
	}
	m.mu.Lock()
	m.props = p
	m.propsOnce = true
	m.mu.Unlock()
	return p, nil
}

// requestAlloc runs the scheduler round trip for an adjusted size and,
// on acceptance, invokes doAlloc; it then confirms or aborts.
func (m *Module) requestAlloc(api string, adjusted bytesize.Size, doAlloc func() (cuda.DevPtr, error)) (cuda.DevPtr, error) {
	if adjusted <= 0 {
		return 0, cuda.ErrorInvalidValue
	}
	if protocol.Ended(m.ctx.Done()) {
		// The process is already being torn down: charge nothing.
		return 0, fmt.Errorf("wrapper: process terminated: %w", m.ctx.Err())
	}
	// The request — and with it a possible suspension — is bounded by
	// the process's lifetime context, as is everything after acceptance:
	// once the process is torn down, the connection-drop and lease
	// handling on the daemon side reclaims whatever a cut-short confirm
	// or abort left behind.
	req := protocol.AcquireMessage() // pooled, as the two reports are: see Caller
	req.Type, req.PID, req.Size, req.API = protocol.TypeAlloc, m.pid, int64(adjusted), api
	resp, err := m.sched.Call(m.ctx, req)
	protocol.ReleaseMessage(req)
	if err = m.settle(err); err != nil {
		if cerr := m.ctx.Err(); cerr != nil {
			if errors.Is(cerr, context.DeadlineExceeded) {
				// The caller bounded the wait and the scheduler never
				// granted the suspended allocation in time.
				return 0, fmt.Errorf("wrapper: %w (%v)", errs.ErrSuspendedTimeout, err)
			}
			return 0, fmt.Errorf("wrapper: process terminated while allocation was suspended: %w", err)
		}
		if protocol.IsRefusal(err) {
			// An earlier confirm was refused: the scheduler's view diverged
			// (a middleware bug), so the call that learns of it fails loudly;
			// what it was granted stays charged until procexit.
			return 0, fmt.Errorf("wrapper: %w: %w", err, cuda.ErrorMemoryAllocation)
		}
		// Fail closed: no reachable scheduler means no grant. The user
		// program sees the failure an exhausted GPU would produce — never
		// a locally-approved allocation the scheduler knows nothing about.
		return 0, fmt.Errorf("wrapper: scheduler unreachable (%v): %w: %w", err, errs.ErrDaemonUnavailable, cuda.ErrorMemoryAllocation)
	}
	rejected := resp.OK && resp.Decision == protocol.DecisionReject
	failed := !resp.OK
	sentinel := protocol.ErrFromCode(resp.Code)
	protocol.ReleaseMessage(resp) // response fields fully consumed above
	if rejected {
		// The scheduler denied the allocation: the user program sees the
		// same failure an exhausted GPU would produce, and errors.Is can
		// still distinguish the scheduler's verdict from a device OOM.
		return 0, fmt.Errorf("wrapper: %w: %w", errs.ErrRejected, cuda.ErrorMemoryAllocation)
	}
	if failed {
		// An error response (unknown container, daemon shutting down, ...)
		// also fails closed; the wire code, when present, is surfaced as
		// its sentinel.
		if sentinel != nil {
			return 0, fmt.Errorf("wrapper: allocation refused: %w: %w", sentinel, cuda.ErrorMemoryAllocation)
		}
		return 0, fmt.Errorf("wrapper: allocation refused: %w", cuda.ErrorMemoryAllocation)
	}
	ptr, err := doAlloc()
	if err != nil {
		// Accepted but the device failed (e.g. fragmentation): hand the
		// charge back.
		if _, aerr := m.sched.Call(m.ctx, &protocol.Message{
			Type: protocol.TypeAbort, PID: m.pid, Size: int64(adjusted),
		}); aerr != nil {
			return 0, fmt.Errorf("wrapper: abort after failed alloc: %w", aerr)
		}
		return 0, err
	}
	m.mu.Lock()
	m.allocs[ptr] = adjusted
	m.mu.Unlock()
	// The allocation succeeded, so the pointer is returned either way,
	// with whatever Post returns (ipc.Client.Post: on a socket the confirm
	// leaves with the next request this process sends).
	req = protocol.AcquireMessage()
	req.Type, req.PID, req.Size, req.Addr = protocol.TypeConfirm, m.pid, int64(adjusted), uint64(ptr)
	err = m.settle(m.sched.Post(m.ctx, req))
	protocol.ReleaseMessage(req)
	if err != nil {
		return ptr, fmt.Errorf("wrapper: %w", err)
	}
	return ptr, nil
}

// Malloc implements cuda.API (intercepted).
func (m *Module) Malloc(size bytesize.Size) (cuda.DevPtr, error) {
	return m.requestAlloc("cudaMalloc", size, func() (cuda.DevPtr, error) {
		return m.inner.Malloc(size)
	})
}

// MallocManaged implements cuda.API (intercepted). The accounted size is
// rounded up to the device's managed granularity — cudaMallocManaged
// consumes multiples of 128 MiB (paper §III-C).
func (m *Module) MallocManaged(size bytesize.Size) (cuda.DevPtr, error) {
	if size <= 0 {
		return 0, cuda.ErrorInvalidValue
	}
	props, err := m.deviceProps()
	if err != nil {
		return 0, err
	}
	adjusted := size.RoundUp(props.ManagedGranularity)
	return m.requestAlloc("cudaMallocManaged", adjusted, func() (cuda.DevPtr, error) {
		return m.inner.MallocManaged(size)
	})
}

// MallocPitch implements cuda.API (intercepted). The accounted size uses
// the pitched row width, which requires the device pitch alignment — the
// wrapper retrieves it with cudaGetDeviceProperties on the first call.
func (m *Module) MallocPitch(width, height bytesize.Size) (cuda.DevPtr, bytesize.Size, error) {
	if width <= 0 || height <= 0 {
		return 0, 0, cuda.ErrorInvalidValue
	}
	props, err := m.deviceProps()
	if err != nil {
		return 0, 0, err
	}
	pitch := width.RoundUp(props.TexturePitchAlignment)
	adjusted := pitch * height
	var gotPitch bytesize.Size
	ptr, err := m.requestAlloc("cudaMallocPitch", adjusted, func() (cuda.DevPtr, error) {
		p, realPitch, err := m.inner.MallocPitch(width, height)
		gotPitch = realPitch
		return p, err
	})
	if err != nil {
		return 0, 0, err
	}
	return ptr, gotPitch, nil
}

// Malloc3D implements cuda.API (intercepted): pitched accounting over
// height*depth rows.
func (m *Module) Malloc3D(extent cuda.Extent) (cuda.PitchedPtr, error) {
	if extent.Width <= 0 || extent.Height <= 0 || extent.Depth <= 0 {
		return cuda.PitchedPtr{}, cuda.ErrorInvalidValue
	}
	props, err := m.deviceProps()
	if err != nil {
		return cuda.PitchedPtr{}, err
	}
	pitch := extent.Width.RoundUp(props.TexturePitchAlignment)
	adjusted := pitch * bytesize.Size(extent.Height*extent.Depth)
	var out cuda.PitchedPtr
	_, err = m.requestAlloc("cudaMalloc3D", adjusted, func() (cuda.DevPtr, error) {
		pp, err := m.inner.Malloc3D(extent)
		out = pp
		return pp.Ptr, err
	})
	if err != nil {
		return cuda.PitchedPtr{}, err
	}
	return out, nil
}

// Free implements cuda.API (intercepted): the real deallocation happens
// first, then the address is reported to the scheduler. The report is
// fire-and-forget — the user program "will get the result of
// deallocation from the wrapper module" (paper §III-C) without waiting
// for the scheduler, which is why the paper's cudaFree response time
// with ConVGPU (0.032 ms) is below even the raw allocation cost. When it
// is written is ipc.Client.Post's rule: before Free returns — suspended
// allocations wait on it — unless this process posted a confirm less
// than a millisecond ago that is still in the write buffer (a confirm
// frees nothing, so nobody can be waiting on it). Then the free waits
// behind it and both leave in the write of the next call, or at the end
// of that confirm's millisecond: a Malloc+Free loop costs one socket
// write a cycle. An error means the report did not go out, or an
// earlier one was refused or did not go out; the memory is free.
func (m *Module) Free(ptr cuda.DevPtr) error {
	if err := m.inner.Free(ptr); err != nil {
		return err
	}
	m.mu.Lock()
	delete(m.allocs, ptr)
	m.mu.Unlock()
	req := protocol.AcquireMessage()
	req.Type, req.PID, req.Addr = protocol.TypeFree, m.pid, uint64(ptr)
	err := m.settle(m.sched.Post(m.ctx, req))
	protocol.ReleaseMessage(req)
	if err != nil {
		return fmt.Errorf("wrapper: %w", err)
	}
	return nil
}

// Flush is a barrier: one round trip, back once the scheduler has
// applied every report sent before it, with a refusal if there was one.
// Tests and benchmarks use it to observe a settled scheduler state.
func (m *Module) Flush() error {
	resp, err := m.sched.Call(m.ctx, &protocol.Message{Type: protocol.TypeHeartbeat, PID: m.pid})
	if err = m.settle(err); err != nil {
		return fmt.Errorf("wrapper: flush: %w", err)
	}
	protocol.ReleaseMessage(resp) // the acknowledgement carries nothing
	return nil
}

// MemGetInfo implements cuda.API (intercepted): answered entirely from
// the scheduler's per-container accounting; the original CUDA API is
// never called, and the container sees only its own memory slice.
func (m *Module) MemGetInfo() (free, total bytesize.Size, err error) {
	resp, err := m.sched.Call(m.ctx, &protocol.Message{
		Type: protocol.TypeMemInfo, PID: m.pid,
	})
	if err = m.settle(err); err != nil {
		return 0, 0, fmt.Errorf("wrapper: meminfo: %w", err)
	}
	defer protocol.ReleaseMessage(resp)
	if !resp.OK {
		return 0, 0, fmt.Errorf("wrapper: meminfo: %s", resp.Error)
	}
	return bytesize.Size(resp.Free), bytesize.Size(resp.Total), nil
}

// GetDeviceProperties implements cuda.API (pass-through, but cached so
// the wrapper's own pitch lookups are free after the first call).
func (m *Module) GetDeviceProperties() (gpu.Properties, error) {
	return m.deviceProps()
}

// Memcpy implements cuda.API (pass-through; not in Table II).
func (m *Module) Memcpy(devPtr cuda.DevPtr, size bytesize.Size, kind cuda.MemcpyKind) error {
	return m.inner.Memcpy(devPtr, size, kind)
}

// LaunchKernel implements cuda.API (pass-through; not in Table II).
func (m *Module) LaunchKernel(k cuda.Kernel, stream int) error {
	return m.inner.LaunchKernel(k, stream)
}

// DeviceSynchronize implements cuda.API (pass-through; not in Table II).
func (m *Module) DeviceSynchronize() error {
	return m.inner.DeviceSynchronize()
}

// UnregisterFatBinary implements cuda.API (intercepted): after the real
// teardown, the scheduler is told the process exited so it releases all
// memory the process still held — programs that never free are cleaned
// up here (paper §III-D).
func (m *Module) UnregisterFatBinary() error {
	m.mu.Lock()
	if m.exited {
		m.mu.Unlock()
		return nil
	}
	m.exited = true
	m.allocs = make(map[cuda.DevPtr]bytesize.Size)
	m.mu.Unlock()
	err := m.inner.UnregisterFatBinary()
	// The exit message cannot overtake a free: both travel on one
	// connection, which the scheduler reads in order.
	resp, serr := m.sched.Call(m.ctx, &protocol.Message{Type: protocol.TypeProcExit, PID: m.pid})
	if serr = m.settle(serr); serr == nil {
		protocol.ReleaseMessage(resp)
	} else if err == nil {
		err = fmt.Errorf("wrapper: report procexit: %w", serr)
	}
	return err
}

// InterceptedAPIs lists the CUDA entry points the wrapper module covers,
// exactly the paper's Table II.
func InterceptedAPIs() []string {
	return []string{
		"cudaMalloc",
		"cudaMallocManaged",
		"cudaMallocPitch",
		"cudaMalloc3D",
		"cudaFree",
		"cudaMemGetInfo",
		"cudaGetDeviceProperties",
		"__cudaUnregisterFatBinary",
	}
}

var _ cuda.API = (*Module)(nil)
