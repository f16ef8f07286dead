package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"convgpu"
	"convgpu/internal/core"
	"convgpu/internal/wal"
)

// options is one run's configuration, from the command line.
type options struct {
	seed         int64
	scenarioSeed int64
	timed        time.Duration // length of the timed phase
	quick        bool
	runDir       string // everything the run writes lives here
	spansPath    string
	calib        *calibrator
	ref          refKind // the reference the workload's times are scaled by
}

// windowsOf is how many windows of the given length fit the duration.
func windowsOf(d, window time.Duration) int { return max(int(d/window), 1) }

// scaled shrinks a set-up or probe count under -quick.
func (o *options) scaled(n int) int {
	if o.quick {
		return max(n/50, 4)
	}
	return n
}

const (
	residents    = 32 // idle registered containers, the paper's Fig. 7 cohort
	residentSize = convgpu.MiB
	residentTag  = "resident-"
)

func noop(*convgpu.Proc) error { return nil }

// rig is the common socket rig: a started Stack with the resident
// cohort registered, Best-Fit, device latency model off. Directories
// are relative to the working directory so that socket paths stay under
// the 108-byte limit wherever the checkout lives.
type rig struct {
	st       *convgpu.Stack
	dir      string
	walDir   string
	capacity convgpu.Size
	image    convgpu.Image
}

var rigSerial int

// newRig brings up a stack with the given schedulable capacity on top of
// the residents' share. The log, when asked for, keeps the default
// fsync-on-every-append policy.
func newRig(o *options, capacity convgpu.Size, withWAL bool) (*rig, error) {
	rigSerial++
	r := &rig{
		dir:      filepath.Join(o.runDir, fmt.Sprintf("rig%d", rigSerial)),
		capacity: capacity + residents*residentSize,
		image:    convgpu.CUDAImage("bench", ""),
	}
	opts := []convgpu.Option{
		convgpu.WithBaseDir(filepath.Join(r.dir, "s")),
		convgpu.WithCapacity(r.capacity),
		convgpu.WithAlgorithm(convgpu.BestFit),
	}
	if withWAL {
		r.walDir = filepath.Join(r.dir, "wal")
		opts = append(opts, convgpu.WithWAL(r.walDir))
	}
	st, err := convgpu.New(opts...)
	if err != nil {
		return nil, err
	}
	if err := st.Start(context.Background()); err != nil {
		return nil, err
	}
	r.st = st
	for i := 0; i < residents; i++ {
		if _, err := r.create(fmt.Sprintf("%s%02d", residentTag, i), residentSize, noop); err != nil {
			r.close()
			return nil, err
		}
	}
	return r, nil
}

func (r *rig) runOptions(name string, limit convgpu.Size, prog convgpu.Program) convgpu.RunOptions {
	return convgpu.RunOptions{Name: name, Image: r.image, NvidiaMemory: limit, Program: prog}
}

func (r *rig) create(name string, limit convgpu.Size, prog convgpu.Program) (*convgpu.Container, error) {
	return r.st.Create(context.Background(), r.runOptions(name, limit, prog))
}

func (r *rig) run(name string, limit convgpu.Size, prog convgpu.Program) (*convgpu.Container, error) {
	return r.st.Run(context.Background(), r.runOptions(name, limit, prog))
}

func (r *rig) events(k core.EventKind) int64 { return int64(r.st.Observability().EventCount(k)) }

// check verifies the scheduler's books once every benchmark container
// has exited: nothing granted beyond the residents, nothing left on the
// device, nobody but the residents registered.
func (r *rig) check() error {
	if got, want := r.st.PoolFree(), r.capacity-residents*residentSize; got != want {
		return fmt.Errorf("pool free %v, want %v (capacity minus the residents' grants)", got, want)
	}
	if used := r.st.Device().Used(); used != 0 {
		return fmt.Errorf("device still holds %v", used)
	}
	snap := r.st.Snapshot()
	for _, c := range snap {
		if !strings.HasPrefix(string(c.ID), residentTag) {
			return fmt.Errorf("container %s still registered", c.ID)
		}
	}
	if len(snap) != residents {
		return fmt.Errorf("%d containers registered, want the %d residents", len(snap), residents)
	}
	return nil
}

// close stops the stack and, when it kept a log, reopens it: the
// replayed sessions must be exactly the residents. It reports the time
// the reopening took (0 without a log).
func (r *rig) close() (replay time.Duration, err error) {
	r.st.Close()
	if r.walDir == "" {
		return 0, nil
	}
	start := time.Now()
	l, err := wal.Open(wal.Options{Dir: r.walDir})
	if err != nil {
		return 0, fmt.Errorf("reopen wal: %w", err)
	}
	replay = time.Since(start)
	defer l.Close()
	sessions := l.Sessions()
	for _, s := range sessions {
		if !strings.HasPrefix(s.Container, residentTag) {
			return replay, fmt.Errorf("wal replays session %s, want only the residents", s.Container)
		}
	}
	if len(sessions) != residents {
		return replay, fmt.Errorf("wal replays %d sessions, want the %d residents", len(sessions), residents)
	}
	return replay, nil
}

// remove deletes the rig's directories; discarded set-ups call it so the
// run directory does not grow with the number of set-ups.
func (r *rig) remove() { os.RemoveAll(r.dir) }
