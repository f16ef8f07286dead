package wrapper

import (
	"context"
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/cuda"
	"convgpu/internal/protocol"
)

// DriverModule is the wrapper's Driver-API coverage. The paper (§III-C)
// highlights that LD_PRELOAD interposition "can cover both CUDA Driver
// API and Runtime API" — unlike the full-reimplementation approaches
// (GViM, vCUDA, rCUDA) that only mirror one interface. DriverModule
// interposes on cuMemAlloc, cuMemFree, cuMemGetInfo and cuCtxDestroy;
// everything else passes through to the real driver.
type DriverModule struct {
	inner cuda.DriverAPI
	sched Caller
	pid   int

	mu       sync.Mutex
	reported bool // context teardown already reported
}

// NewDriver wraps a process's Driver API.
func NewDriver(inner cuda.DriverAPI, sched Caller, pid int) *DriverModule {
	return &DriverModule{inner: inner, sched: sched, pid: pid}
}

// Init implements cuda.DriverAPI (pass-through).
func (m *DriverModule) Init(flags uint) error { return m.inner.Init(flags) }

// DeviceGet implements cuda.DriverAPI (pass-through).
func (m *DriverModule) DeviceGet(ordinal int) (cuda.DeviceHandle, error) {
	return m.inner.DeviceGet(ordinal)
}

// DeviceTotalMem implements cuda.DriverAPI (intercepted): the container
// sees its limit as the device size, consistent with cudaMemGetInfo.
func (m *DriverModule) DeviceTotalMem(dev cuda.DeviceHandle) (bytesize.Size, error) {
	if _, err := m.inner.DeviceTotalMem(dev); err != nil {
		return 0, err
	}
	_, total, err := m.MemGetInfo()
	return total, err
}

// CtxCreate implements cuda.DriverAPI (pass-through; the context's
// memory overhead is accounted by the scheduler on the first
// allocation, as in the Runtime path).
func (m *DriverModule) CtxCreate(dev cuda.DeviceHandle) error {
	return m.inner.CtxCreate(dev)
}

// CtxDestroy implements cuda.DriverAPI (intercepted): destroying the
// context releases every allocation the process holds, so the scheduler
// is told the process is done — the Driver-API analogue of
// __cudaUnregisterFatBinary.
func (m *DriverModule) CtxDestroy() error {
	err := m.inner.CtxDestroy()
	if err != nil {
		return err
	}
	m.mu.Lock()
	already := m.reported
	m.reported = true
	m.mu.Unlock()
	if !already {
		if _, serr := m.sched.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeProcExit, PID: m.pid,
		}); serr != nil {
			return fmt.Errorf("wrapper: report ctx destroy: %w", serr)
		}
	}
	return nil
}

// MemAlloc implements cuda.DriverAPI (intercepted): same
// request/confirm/abort protocol as the Runtime path.
func (m *DriverModule) MemAlloc(size bytesize.Size) (cuda.DevPtr, error) {
	if size <= 0 {
		return 0, cuda.CUDAErrorInvalidValue
	}
	resp, err := m.sched.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeAlloc, PID: m.pid, Size: int64(size), API: "cuMemAlloc",
	})
	if err != nil {
		return 0, fmt.Errorf("wrapper: scheduler unreachable: %w", err)
	}
	if !resp.OK || resp.Decision == protocol.DecisionReject {
		return 0, cuda.CUDAErrorOutOfMemory
	}
	ptr, err := m.inner.MemAlloc(size)
	if err != nil {
		if _, aerr := m.sched.Call(context.Background(), &protocol.Message{
			Type: protocol.TypeAbort, PID: m.pid, Size: int64(size),
		}); aerr != nil {
			return 0, fmt.Errorf("wrapper: abort after failed cuMemAlloc: %w", aerr)
		}
		return 0, err
	}
	if err := m.sched.Post(context.Background(), &protocol.Message{
		Type: protocol.TypeConfirm, PID: m.pid, Size: int64(size), Addr: uint64(ptr),
	}); err != nil {
		return ptr, fmt.Errorf("wrapper: %w", err)
	}
	return ptr, nil
}

// MemFree implements cuda.DriverAPI (intercepted, one-way report like
// cudaFree).
func (m *DriverModule) MemFree(ptr cuda.DevPtr) error {
	if err := m.inner.MemFree(ptr); err != nil {
		return err
	}
	if err := m.sched.Post(context.Background(), &protocol.Message{
		Type: protocol.TypeFree, PID: m.pid, Addr: uint64(ptr),
	}); err != nil {
		return fmt.Errorf("wrapper: %w", err)
	}
	return nil
}

// MemGetInfo implements cuda.DriverAPI (intercepted): the virtualized
// per-container view, answered by the scheduler.
func (m *DriverModule) MemGetInfo() (free, total bytesize.Size, err error) {
	// The real driver call validates context state first.
	if _, _, err := m.inner.MemGetInfo(); err != nil {
		return 0, 0, err
	}
	resp, err := m.sched.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeMemInfo, PID: m.pid,
	})
	if err != nil {
		return 0, 0, fmt.Errorf("wrapper: meminfo: %w", err)
	}
	if !resp.OK {
		return 0, 0, fmt.Errorf("wrapper: meminfo: %s", resp.Error)
	}
	return bytesize.Size(resp.Free), bytesize.Size(resp.Total), nil
}

// MemcpyHtoD implements cuda.DriverAPI (pass-through).
func (m *DriverModule) MemcpyHtoD(dst cuda.DevPtr, size bytesize.Size) error {
	return m.inner.MemcpyHtoD(dst, size)
}

// MemcpyDtoH implements cuda.DriverAPI (pass-through).
func (m *DriverModule) MemcpyDtoH(src cuda.DevPtr, size bytesize.Size) error {
	return m.inner.MemcpyDtoH(src, size)
}

// LaunchKernel implements cuda.DriverAPI (pass-through).
func (m *DriverModule) LaunchKernel(k cuda.Kernel, stream int) error {
	return m.inner.LaunchKernel(k, stream)
}

// CtxSynchronize implements cuda.DriverAPI (pass-through).
func (m *DriverModule) CtxSynchronize() error { return m.inner.CtxSynchronize() }

var _ cuda.DriverAPI = (*DriverModule)(nil)
