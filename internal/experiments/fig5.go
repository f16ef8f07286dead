package experiments

import (
	"context"
	"fmt"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/metrics"
	"convgpu/internal/nvdocker"
	"convgpu/internal/plugin"
	"os"
)

func init() {
	register("fig5", "container creation time with/without ConVGPU", Fig5)
}

// Fig5 measures container creation time with and without ConVGPU. The
// paper measured ~0.41 s for plain creation and ~15 % (+61.8 ms) more
// with ConVGPU, the extra being the scheduler's registration work
// (admission, directory, socket, wrapper copy) done before `docker
// create`. The simulated runtime's base creation cost is calibrated to
// the paper's plain-Docker figure; the ConVGPU delta is real measured
// work (UNIX socket round trip + filesystem setup), so the *absolute*
// delta reflects this machine, not the 2017 testbed.
func Fig5(opt Options) (*Report, error) {
	reps := 10
	baseCreate := 410 * time.Millisecond
	if opt.Quick {
		reps = 10
		baseCreate = 5 * time.Millisecond
	}

	dev := gpu.New(gpu.K20m())
	eng, err := container.NewEngine(container.Config{Device: dev, CreateLatency: baseCreate})
	if err != nil {
		return nil, err
	}
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		return nil, err
	}
	baseDir, err := os.MkdirTemp("", "convgpu-fig5")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(baseDir)
	d, err := daemon.Start(daemon.Config{BaseDir: baseDir, Core: st})
	if err != nil {
		return nil, err
	}
	defer d.Close()
	ctl, err := ipc.DialNegotiated(context.Background(), d.ControlSocket())
	if err != nil {
		return nil, err
	}
	defer ctl.Close()
	nv := nvdocker.New(eng, ctl, plugin.New(ctl))

	prog := func(p *container.Proc) error { return nil }
	cudaImage := container.Image{Name: "cuda-app", Labels: map[string]string{
		nvdocker.VolumesNeededLabel: "nvidia_driver",
	}}

	var withTotal, withoutTotal time.Duration
	for i := 0; i < reps; i++ {
		start := time.Now()
		c, err := nv.Create(context.Background(), nvdocker.Options{
			Name:         fmt.Sprintf("fig5-with-%d", i),
			Image:        cudaImage,
			NvidiaMemory: 512 * bytesize.MiB,
			Program:      prog,
		})
		if err != nil {
			return nil, err
		}
		withTotal += time.Since(start)
		// Release the registration so grants do not accumulate.
		c.Start()
		c.Wait()
	}
	for i := 0; i < reps; i++ {
		start := time.Now()
		if _, err := eng.Create(container.Spec{
			Name:    fmt.Sprintf("fig5-without-%d", i),
			Program: prog,
		}); err != nil {
			return nil, err
		}
		withoutTotal += time.Since(start)
	}
	with := withTotal / time.Duration(reps)
	without := withoutTotal / time.Duration(reps)

	bar := &metrics.Bar{Title: "Fig. 5: container creation time (s)", Unit: "s"}
	bar.Add("with ConVGPU", with.Seconds())
	bar.Add("without", without.Seconds())
	table := &metrics.Table{
		Title: "Fig. 5: container creation time",
		Cols:  []string{"seconds", "overhead vs without"},
	}
	table.AddRow("with ConVGPU", []float64{with.Seconds(), float64(with-without) / float64(without) * 100})
	table.AddRow("without", []float64{without.Seconds(), 0})

	return &Report{
		ID:     "fig5",
		Title:  "container creation time (paper Fig. 5)",
		Tables: []*metrics.Table{table},
		Bars:   []*metrics.Bar{bar},
		Notes: []string{
			shapeNote("creation with ConVGPU slower than without", with > without),
			fmt.Sprintf("measured overhead %+.1f%% (paper: +15%%, +61.8 ms on its testbed; "+
				"our scheduler-side setup is cheaper on a modern machine)",
				float64(with-without)/float64(without)*100),
		},
	}, nil
}
