// Package container simulates the container runtime ConVGPU sits on —
// the role Docker 1.12 plays in the paper. The middleware interacts with
// Docker through a narrow surface, all of which is reproduced here:
//
//   - create/run with options (labels, environment, volume mounts);
//   - image labels (com.nvidia.memory.limit, com.nvidia.cuda.version);
//   - the LD_PRELOAD injection seam: when a container's environment
//     names the wrapper module and a mounted volume provides it next to
//     the per-container scheduler socket, every process started in the
//     container gets its CUDA API wrapped (package wrapper), exactly as
//     the dynamic linker would interpose libgpushare.so;
//   - exit detection: volume unmount hooks fire when the container
//     stops, which is how nvidia-docker-plugin learns to send the close
//     signal (paper §III-B, the "dummy volume" trick).
//
// Programs are Go functions executed as simulated processes with unique
// host PIDs; they reach the GPU only through the cuda.API handed to
// them, the same way a real containerized binary reaches it only through
// the (possibly interposed) CUDA runtime.
package container

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"convgpu/internal/clock"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// Errors.
var (
	ErrNotFound     = errors.New("container: no such container")
	ErrBadState     = errors.New("container: invalid state for operation")
	ErrNoProgram    = errors.New("container: no program to run")
	ErrNameConflict = errors.New("container: name already in use")
)

// State is a container lifecycle state.
type State int

// Lifecycle states.
const (
	Created State = iota
	Running
	Exited
)

func (s State) String() string {
	switch s {
	case Created:
		return "created"
	case Running:
		return "running"
	case Exited:
		return "exited"
	default:
		return fmt.Sprintf("State(%d)", int(s))
	}
}

// Image is a container image: a name plus labels.
type Image struct {
	Name   string
	Labels map[string]string
}

// Label returns the image label value, or "".
func (im Image) Label(key string) string { return im.Labels[key] }

// Program is code executed inside the container as one process.
type Program func(p *Proc) error

// Proc is the view a containerized process has of its world.
type Proc struct {
	// PID is the host process id (unique engine-wide, like host pids
	// across containers).
	PID int
	// CUDA is the process's CUDA runtime — interposed by the wrapper
	// module when the container was started with the LD_PRELOAD seam.
	CUDA cuda.API
	// Env is the container environment.
	Env map[string]string
	// Ctx is cancelled when the container is stopped.
	Ctx context.Context
	// Clock is the engine clock (virtual in simulations).
	Clock clock.Clock
}

// Getenv returns the environment value, or "".
func (p *Proc) Getenv(key string) string { return p.Env[key] }

// Spec describes a container to create.
type Spec struct {
	// Name is the container name; auto-generated when empty.
	Name string
	// Image supplies default labels.
	Image Image
	// Env is the container environment (e.g. LD_PRELOAD).
	Env map[string]string
	// Volumes maps container mount points to host directories.
	Volumes map[string]string
	// Program is the container's entrypoint process.
	Program Program
}

// ExitHook is invoked (once) when a container exits, with its final
// error. nvidia-docker-plugin uses it as the unmount notification.
type ExitHook func(c *Container, runErr error)

// Config configures an Engine.
type Config struct {
	// Device is the GPU processes reach through their CUDA runtime.
	Device *gpu.Device
	// Clock paces simulated work (default: real time).
	Clock clock.Clock
	// CreateLatency models the container runtime's own creation cost
	// (image setup, namespaces, cgroups). The Figure 5 experiment
	// calibrates it; tests leave it zero.
	CreateLatency time.Duration
}

// Engine is the container runtime.
type Engine struct {
	cfg Config

	mu         sync.Mutex
	nextPID    int
	nextSerial int
	containers map[string]*Container
}

// NewEngine creates a container runtime over a device.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Device == nil {
		return nil, fmt.Errorf("container: Config.Device is required")
	}
	if cfg.Clock == nil {
		cfg.Clock = clock.Real{}
	}
	return &Engine{cfg: cfg, nextPID: 1000, containers: make(map[string]*Container)}, nil
}

// Container is a created (possibly running or exited) container.
type Container struct {
	engine *Engine
	spec   Spec
	id     string

	mu       sync.Mutex
	state    State
	hooks    []ExitHook
	runErr   error
	done     chan struct{}
	ctx      context.Context
	cancel   context.CancelFunc
	procs    []int
	procWG   sync.WaitGroup
	exitOnce sync.Once
}

// Create builds a container from spec. The wrapper module path, if any,
// is validated at start time, not here — matching Docker, which accepts
// broken mounts at create and fails at exec.
func (e *Engine) Create(spec Spec) (*Container, error) {
	if spec.Program == nil {
		return nil, ErrNoProgram
	}
	if e.cfg.CreateLatency > 0 {
		e.cfg.Clock.Sleep(e.cfg.CreateLatency)
	}
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextSerial++
	id := spec.Name
	if id == "" {
		id = fmt.Sprintf("container-%d", e.nextSerial)
	}
	if _, exists := e.containers[id]; exists {
		return nil, fmt.Errorf("%w: %s", ErrNameConflict, id)
	}
	c := &Container{
		engine: e,
		spec:   spec,
		id:     id,
		state:  Created,
		done:   make(chan struct{}),
	}
	e.containers[id] = c
	return c, nil
}

// Get looks a container up by id.
func (e *Engine) Get(id string) (*Container, error) {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.containers[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	return c, nil
}

// List returns all container ids, sorted.
func (e *Engine) List() []string {
	e.mu.Lock()
	defer e.mu.Unlock()
	out := make([]string, 0, len(e.containers))
	for id := range e.containers {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Remove deletes an exited container.
func (e *Engine) Remove(id string) error {
	e.mu.Lock()
	defer e.mu.Unlock()
	c, ok := e.containers[id]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotFound, id)
	}
	c.mu.Lock()
	st := c.state
	c.mu.Unlock()
	if st == Running {
		return fmt.Errorf("%w: %s is running", ErrBadState, id)
	}
	delete(e.containers, id)
	return nil
}

func (e *Engine) allocPID() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	e.nextPID++
	return e.nextPID
}

// ID returns the container id.
func (c *Container) ID() string { return c.id }

// State returns the lifecycle state.
func (c *Container) State() State {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// OnExit registers a hook fired once when the container exits. Hooks
// registered after exit fire immediately.
func (c *Container) OnExit(h ExitHook) {
	c.mu.Lock()
	if c.state == Exited {
		err := c.runErr
		c.mu.Unlock()
		h(c, err)
		return
	}
	c.hooks = append(c.hooks, h)
	c.mu.Unlock()
}

// resolveWrapperSocket inspects LD_PRELOAD and the volume mounts,
// returning the host path of the scheduler socket sitting next to the
// wrapper module, or "" when the container runs without ConVGPU.
func (c *Container) resolveWrapperSocket() (string, error) {
	preload := c.spec.Env["LD_PRELOAD"]
	if preload == "" || !strings.Contains(preload, protocol.ModuleFileName) {
		return "", nil
	}
	// Find the volume whose mount point prefixes the preload path.
	for mount, hostDir := range c.spec.Volumes {
		if !strings.HasPrefix(preload, mount+"/") && preload != filepath.Join(mount, protocol.ModuleFileName) {
			continue
		}
		modPath := filepath.Join(hostDir, protocol.ModuleFileName)
		if _, err := os.Stat(modPath); err != nil {
			return "", fmt.Errorf("container: LD_PRELOAD names %s but the volume lacks it: %v", protocol.ModuleFileName, err)
		}
		sock := filepath.Join(hostDir, protocol.SocketFileName)
		if _, err := os.Stat(sock); err != nil {
			return "", fmt.Errorf("container: wrapper volume lacks the scheduler socket: %v", err)
		}
		return sock, nil
	}
	return "", fmt.Errorf("container: LD_PRELOAD set but no volume provides %s", protocol.ModuleFileName)
}

// newProc builds the process view, interposing the wrapper module when
// the container was wired for ConVGPU.
func (c *Container) newProc(ctx context.Context) (*Proc, func(), error) {
	pid := c.engine.allocPID()
	var api cuda.API = cuda.NewRuntime(c.engine.cfg.Device, pid)
	cleanup := func() {}
	sock, err := c.resolveWrapperSocket()
	if err != nil {
		return nil, nil, err
	}
	if sock != "" {
		cli, err := ipc.DialNegotiated(ctx, sock)
		if err != nil {
			return nil, nil, fmt.Errorf("container: wrapper cannot reach scheduler: %w", err)
		}
		// The process context bounds suspension: stopping the container
		// kills processes even while they are blocked in cudaMalloc,
		// the way Docker's SIGKILL would.
		api = wrapper.New(api, cli, pid, wrapper.WithContext(ctx))
		cleanup = func() { cli.Close() }
	}
	return &Proc{
		PID:   pid,
		CUDA:  api,
		Env:   c.spec.Env,
		Ctx:   ctx,
		Clock: c.engine.cfg.Clock,
	}, cleanup, nil
}

// Start launches the container's entrypoint program.
func (c *Container) Start() error {
	c.mu.Lock()
	if c.state != Created {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, c.id, c.state)
	}
	ctx, cancel := context.WithCancel(context.Background())
	c.ctx, c.cancel = ctx, cancel
	c.state = Running
	c.mu.Unlock()

	proc, cleanup, err := c.newProc(ctx)
	if err != nil {
		cancel()
		c.exit(err)
		return err
	}
	c.mu.Lock()
	c.procs = append(c.procs, proc.PID)
	c.mu.Unlock()
	c.procWG.Add(1)
	go func() {
		defer c.procWG.Done()
		err := c.runProgram(proc, c.spec.Program)
		cleanup()
		// Docker semantics: the container exits when its entrypoint
		// exits, regardless of exec'd processes.
		c.exit(err)
	}()
	return nil
}

// runProgram executes a program, converting panics into errors so one
// misbehaving container cannot take the host down — the isolation the
// paper's Consistency goal demands.
func (c *Container) runProgram(proc *Proc, prog Program) (err error) {
	defer func() {
		if r := recover(); r != nil {
			err = fmt.Errorf("container: program panicked: %v", r)
		}
		// The runtime implicitly unregisters the fat binary when the
		// process exits, even if the program forgot to clean up.
		proc.CUDA.UnregisterFatBinary()
	}()
	return prog(proc)
}

// Exec runs an additional program as another process in the container
// (docker exec) and returns its error after completion.
func (c *Container) Exec(prog Program) error {
	c.mu.Lock()
	if c.state != Running {
		c.mu.Unlock()
		return fmt.Errorf("%w: %s is %s", ErrBadState, c.id, c.state)
	}
	ctx := c.ctx // exec'd processes share the container's lifetime
	c.mu.Unlock()
	proc, cleanup, err := c.newProc(ctx)
	if err != nil {
		return err
	}
	defer cleanup()
	c.mu.Lock()
	c.procs = append(c.procs, proc.PID)
	c.mu.Unlock()
	return c.runProgram(proc, prog)
}

// exit transitions to Exited and fires hooks exactly once.
func (c *Container) exit(runErr error) {
	c.exitOnce.Do(func() {
		c.mu.Lock()
		c.state = Exited
		c.runErr = runErr
		hooks := c.hooks
		c.hooks = nil
		c.mu.Unlock()
		for _, h := range hooks {
			h(c, runErr)
		}
		close(c.done)
	})
}

// Stop cancels the container's processes and waits for exit.
func (c *Container) Stop() {
	c.mu.Lock()
	cancel := c.cancel
	st := c.state
	c.mu.Unlock()
	if st != Running {
		return
	}
	if cancel != nil {
		cancel()
	}
	<-c.done
}

// Wait blocks until the container exits and returns the program's error.
func (c *Container) Wait() error {
	<-c.done
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.runErr
}

// PIDs returns the host pids of the container's processes.
func (c *Container) PIDs() []int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]int, len(c.procs))
	copy(out, c.procs)
	return out
}

// Spec returns a copy of the creation spec.
func (c *Container) Spec() Spec { return c.spec }
