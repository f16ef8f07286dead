// Package nvdocker implements ConVGPU's customized nvidia-docker
// (paper §III-B): the thin wrapper over the docker command that wires a
// container to the GPU memory scheduler before it is created.
//
// For a run/create of a CUDA image it:
//
//  1. resolves the container's GPU memory limit — the --nvidia-memory
//     option, else the image's com.nvidia.memory.limit label, else the
//     1 GiB default;
//  2. registers the container and its limit with the scheduler over the
//     UNIX control socket, receiving the per-container directory that
//     holds the wrapper module and the scheduler socket;
//  3. edits the docker options: mounts that directory as a volume, sets
//     LD_PRELOAD so the wrapper module loads before the CUDA runtime,
//     and mounts the plugin's dummy volume for exit detection;
//  4. hands the edited command to the container runtime, and arms the
//     plugin watch that will deliver the close signal on exit.
//
// Non-CUDA images (no com.nvidia.volumes.needed label) pass through to
// plain docker untouched, exactly like the original nvidia-docker.
package nvdocker

import (
	"context"
	"fmt"
	"os"
	"path"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/container"
	"convgpu/internal/errs"
	"convgpu/internal/plugin"
	"convgpu/internal/protocol"
)

// Image labels nvidia-docker consults (paper §II-D).
const (
	// VolumesNeededLabel marks an image as CUDA-using; without it the
	// command passes through to plain docker.
	VolumesNeededLabel = "com.nvidia.volumes.needed"
	// CUDAVersionLabel declares the CUDA version the image requires.
	CUDAVersionLabel = "com.nvidia.cuda.version"
	// MemoryLimitLabel declares the image's GPU memory limit, used when
	// --nvidia-memory is absent (paper §III-B).
	MemoryLimitLabel = "com.nvidia.memory.limit"
)

// DefaultMemoryLimit applies when neither the option nor the label is
// present (paper §III-B: "to set 1 GiB as a default").
const DefaultMemoryLimit = bytesize.GiB

// WrapperMountPoint is where the scheduler's per-container directory is
// mounted inside the container.
const WrapperMountPoint = "/convgpu"

// Caller sends messages on the scheduler's control socket.
type Caller interface {
	Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error)
}

// Options describes a run/create request after command-line parsing.
type Options struct {
	// Name names the container; auto-generated when empty.
	Name string
	// Image supplies labels.
	Image container.Image
	// NvidiaMemory is the --nvidia-memory value; zero means unset.
	NvidiaMemory bytesize.Size
	// Env is the user-requested environment.
	Env map[string]string
	// Volumes are user-requested mounts (container path -> host path).
	Volumes map[string]string
	// Program is the container workload.
	Program container.Program
	// Tenant names the tenant the container registers under (empty =
	// the default tenant). The remaining fields carry the tenant's
	// inline scheduling attributes for a daemon whose configured tenant
	// table does not know the name; a configured definition wins.
	Tenant          string
	TenantWeight    int
	TenantPriority  int
	TenantQuota     bytesize.Size
	TenantGuarantee bytesize.Size
}

// NVDocker is the customized command wrapper.
type NVDocker struct {
	engine *container.Engine
	sched  Caller
	plugin *plugin.Plugin

	mu     sync.Mutex
	serial int
}

// New wires the wrapper to a container runtime, the scheduler control
// socket and the volume plugin.
func New(engine *container.Engine, sched Caller, pl *plugin.Plugin) *NVDocker {
	return &NVDocker{engine: engine, sched: sched, plugin: pl}
}

// ResolveMemoryLimit applies the paper's precedence: option, then image
// label, then the 1 GiB default.
func ResolveMemoryLimit(opts Options) (bytesize.Size, error) {
	if opts.NvidiaMemory > 0 {
		return opts.NvidiaMemory, nil
	}
	if v := opts.Image.Label(MemoryLimitLabel); v != "" {
		size, err := bytesize.Parse(v)
		if err != nil {
			return 0, fmt.Errorf("nvdocker: bad %s label: %v", MemoryLimitLabel, err)
		}
		if size <= 0 {
			return 0, fmt.Errorf("nvdocker: %s label must be positive", MemoryLimitLabel)
		}
		return size, nil
	}
	return DefaultMemoryLimit, nil
}

// usesCUDA reports whether the image declares GPU use.
func usesCUDA(im container.Image) bool {
	return im.Label(VolumesNeededLabel) != ""
}

// nextName generates a container name unique across processes: several
// nvidia-docker invocations may register with one scheduler daemon
// (Docker itself guarantees this with its random container IDs).
func (n *NVDocker) nextName() string {
	n.mu.Lock()
	defer n.mu.Unlock()
	n.serial++
	return fmt.Sprintf("convgpu-%d-%d", os.Getpid(), n.serial)
}

// Create registers the container with the scheduler (when the image uses
// CUDA), prepares the spec with the wrapper wiring, and creates the
// container. The returned container is not started. The context bounds
// the registration round trip with the scheduler.
func (n *NVDocker) Create(ctx context.Context, opts Options) (*container.Container, error) {
	if opts.Program == nil {
		return nil, container.ErrNoProgram
	}
	name := opts.Name
	if name == "" {
		name = n.nextName()
	}
	spec := container.Spec{
		Name:    name,
		Image:   opts.Image,
		Env:     copyMap(opts.Env),
		Volumes: copyMap(opts.Volumes),
		Program: opts.Program,
	}
	if !usesCUDA(opts.Image) {
		// Pass through: plain docker, no GPU wiring at all.
		return n.engine.Create(spec)
	}
	if err := n.plugin.CheckCUDAVersion(opts.Image.Label(CUDAVersionLabel)); err != nil {
		return nil, err
	}
	limit, err := ResolveMemoryLimit(opts)
	if err != nil {
		return nil, err
	}
	// Register before creation (paper: "This limitation is sent to the
	// scheduler via the UNIX socket before the container is created").
	resp, err := n.sched.Call(ctx, &protocol.Message{
		Type:            protocol.TypeRegister,
		Container:       name,
		Limit:           int64(limit),
		Tenant:          opts.Tenant,
		TenantWeight:    opts.TenantWeight,
		TenantPriority:  opts.TenantPriority,
		TenantQuota:     int64(opts.TenantQuota),
		TenantGuarantee: int64(opts.TenantGuarantee),
	})
	if err != nil {
		return nil, fmt.Errorf("nvdocker: scheduler unreachable: %w (%v)", errs.ErrDaemonUnavailable, err)
	}
	if !resp.OK {
		return nil, fmt.Errorf("nvdocker: scheduler refused container: %w", &protocol.Refusal{Text: resp.Error, Code: resp.Code})
	}
	// Wire the wrapper volume and LD_PRELOAD.
	spec.Volumes[WrapperMountPoint] = resp.SocketDir
	preload := path.Join(WrapperMountPoint, protocol.ModuleFileName)
	if existing := spec.Env["LD_PRELOAD"]; existing != "" {
		preload = preload + ":" + existing
	}
	spec.Env["LD_PRELOAD"] = preload

	c, err := n.engine.Create(spec)
	if err != nil {
		// Unregister: the container never came to exist.
		n.sched.Call(context.Background(), &protocol.Message{Type: protocol.TypeClose, Container: name})
		return nil, err
	}
	// Dummy volume for exit detection -> close signal.
	n.plugin.Watch(c)
	return c, nil
}

// Run is Create followed by Start (the docker run path the paper's
// experiments use).
func (n *NVDocker) Run(ctx context.Context, opts Options) (*container.Container, error) {
	c, err := n.Create(ctx, opts)
	if err != nil {
		return nil, err
	}
	if err := c.Start(); err != nil {
		return nil, err
	}
	return c, nil
}

func copyMap(in map[string]string) map[string]string {
	out := make(map[string]string, len(in))
	for k, v := range in {
		out[k] = v
	}
	return out
}
