package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// rig is the measured path of the single-container experiments: a
// latency-calibrated device, the scheduler daemon over a real UNIX
// socket, and a wrapper module for one registered container — plus the
// matching un-wrapped runtime for the "without ConVGPU" baseline.
type rig struct {
	dev     *gpu.Device
	state   *core.State
	daemon  *daemon.Daemon
	ctl     *ipc.Client
	wrapCli *ipc.Client
	baseDir string

	// Raw is the un-intercepted runtime (the "without" baseline).
	Raw *cuda.Runtime
	// Wrapped is the intercepted runtime of the registered container.
	Wrapped *wrapper.Module
	// WrappedPID is the wrapped process's pid.
	WrappedPID int
	// ContainerID of the registered container.
	ContainerID core.ContainerID
}

// newRig builds the measured path. withLatency selects the Figure 4
// device calibration; limit is the container's GPU memory limit.
func newRig(withLatency bool, limit bytesize.Size) (*rig, error) {
	r := &rig{WrappedPID: 4242, ContainerID: "measured"}
	props := gpu.K20m()
	var opts []gpu.Option
	if withLatency {
		opts = append(opts, gpu.WithLatency(gpu.PaperLatency(), nil))
	}
	r.dev = gpu.New(props, opts...)
	var err error
	r.state, err = core.New(core.Config{Capacity: props.TotalGlobalMem})
	if err != nil {
		return nil, err
	}
	r.baseDir, err = os.MkdirTemp("", "convgpu-exp")
	if err != nil {
		return nil, err
	}
	r.daemon, err = daemon.Start(daemon.Config{BaseDir: r.baseDir, Core: r.state})
	if err != nil {
		r.Close()
		return nil, err
	}
	r.ctl, err = ipc.DialNegotiated(context.Background(), r.daemon.ControlSocket())
	if err != nil {
		r.Close()
		return nil, err
	}
	resp, err := r.ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: string(r.ContainerID), Limit: int64(limit),
	})
	if err != nil {
		r.Close()
		return nil, err
	}
	if !resp.OK {
		r.Close()
		return nil, fmt.Errorf("experiments: register: %s", resp.Error)
	}
	r.wrapCli, err = ipc.DialNegotiated(context.Background(), filepath.Join(resp.SocketDir, wrapper.SocketFileName))
	if err != nil {
		r.Close()
		return nil, err
	}
	r.Raw = cuda.NewRuntime(r.dev, 1111)
	r.Wrapped = wrapper.New(cuda.NewRuntime(r.dev, r.WrappedPID), r.wrapCli, r.WrappedPID)
	return r, nil
}

// FreshWrapped returns a new wrapper module for the same container and
// device (a "new process"): its first cudaMallocPitch pays the
// cudaGetDeviceProperties cost, which Figure 4 measures separately.
func (r *rig) FreshWrapped(pid int) *wrapper.Module {
	return wrapper.New(cuda.NewRuntime(r.dev, pid), r.wrapCli, pid)
}

// Close releases the rig.
func (r *rig) Close() {
	if r.wrapCli != nil {
		r.wrapCli.Close()
	}
	if r.ctl != nil {
		r.ctl.Close()
	}
	if r.daemon != nil {
		r.daemon.Close()
	}
	if r.baseDir != "" {
		os.RemoveAll(r.baseDir)
	}
}
