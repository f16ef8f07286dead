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

// local is a scheduler daemon serving a core from a temporary
// directory, with a client on its control socket.
type local struct {
	daemon  *daemon.Daemon
	ctl     *ipc.Client
	baseDir string
}

func startLocal(st *core.State) (*local, error) {
	dir, err := os.MkdirTemp("", "convgpu-exp")
	if err != nil {
		return nil, err
	}
	l := &local{baseDir: dir}
	if l.daemon, err = daemon.Start(daemon.Config{BaseDir: dir, Core: st}); err != nil {
		l.Close()
		return nil, err
	}
	if l.ctl, err = ipc.DialNegotiated(context.Background(), l.daemon.ControlSocket()); err != nil {
		l.Close()
		return nil, err
	}
	return l, nil
}

// control sends a register or a close of id on the control socket (limit
// is a register's) and returns the answer; a refusal is an error.
func (l *local) control(typ protocol.Type, id core.ContainerID, limit bytesize.Size) (*protocol.Message, error) {
	resp, err := l.ctl.Call(context.Background(), &protocol.Message{Type: typ, Container: string(id), Limit: int64(limit)})
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		return nil, fmt.Errorf("experiments: %s %s: %s", typ, id, resp.Error)
	}
	return resp, nil
}

// Close stops the daemon and removes its directory.
func (l *local) Close() {
	if l.ctl != nil {
		l.ctl.Close()
	}
	if l.daemon != nil {
		l.daemon.Close()
	}
	os.RemoveAll(l.baseDir)
}

// rig is the measured path of the single-container experiments: a
// latency-calibrated device, the scheduler daemon over a real UNIX
// socket, and a wrapper module for one registered container — plus the
// matching un-wrapped runtime for the "without ConVGPU" baseline.
type rig struct {
	*local
	dev     *gpu.Device
	state   *core.State
	wrapCli *ipc.Client

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
	if r.local, err = startLocal(r.state); err != nil {
		return nil, err
	}
	resp, err := r.control(protocol.TypeRegister, r.ContainerID, limit)
	if err != nil {
		r.Close()
		return nil, err
	}
	r.wrapCli, err = ipc.DialNegotiated(context.Background(), filepath.Join(resp.SocketDir, protocol.SocketFileName))
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
	r.local.Close()
}
