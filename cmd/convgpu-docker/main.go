// Command convgpu-docker is the customized nvidia-docker of the paper's
// §III-B: a docker-style command line that wires CUDA containers to the
// GPU memory scheduler before creating them.
//
// Because the container runtime and GPU are simulations living in this
// process, the command embeds them; the *scheduler* can be either
// embedded (default) or an external convgpu-scheduler daemon reached
// through -scheduler, in which case several convgpu-docker processes
// genuinely share one GPU memory arbiter over UNIX sockets.
//
// Image names map to built-in workloads:
//
//	cuda-sample:<type>   the paper's sample program for a Table III type
//	                     (nano micro small medium large xlarge)
//	cuda-mnist           the Fig. 6 MNIST training workload
//	idle                 allocate nothing, exit immediately
//	<anything else>      a non-CUDA image: passes through without GPU wiring
//
// Examples:
//
//	convgpu-docker run --nvidia-memory=512MiB cuda-sample:small
//	convgpu-docker -scale 0.01 run cuda-sample:xlarge
//	convgpu-docker run cuda-mnist
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strings"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/nvdocker"
	"convgpu/internal/plugin"
	"convgpu/internal/policy"
	"convgpu/internal/workload"
)

func main() {
	var (
		schedSock = flag.String("scheduler", "", "control socket of an external convgpu-scheduler (default: embed one)")
		capacity  = flag.String("capacity", "5GiB", "embedded scheduler's GPU capacity")
		algorithm = flag.String("algorithm", core.AlgFIFO, "embedded scheduler's wake-order policy: "+strings.Join(policy.WakeNames(), "|"))
		scale     = flag.Float64("scale", 0.05, "time compression for sample kernels (1.0 = the paper's 5-45 s)")
	)
	flag.Parse()
	if flag.NArg() == 0 {
		fmt.Fprintln(os.Stderr, "usage: convgpu-docker [flags] run|create [options] IMAGE")
		flag.Usage()
		os.Exit(2)
	}
	cmd, err := nvdocker.ParseArgs(flag.Args())
	if err != nil {
		log.Fatalf("convgpu-docker: %v", err)
	}
	if cmd.Passthrough {
		log.Printf("convgpu-docker: %q is passed through to docker unmodified (not interpreted here)", cmd.Verb)
		return
	}

	// Assemble the stack.
	dev := gpu.New(gpu.K20m())
	eng, err := container.NewEngine(container.Config{Device: dev})
	if err != nil {
		log.Fatal(err)
	}
	ctlPath := *schedSock
	if ctlPath == "" {
		cap, err := bytesize.Parse(*capacity)
		if err != nil {
			log.Fatalf("convgpu-docker: -capacity: %v", err)
		}
		st, err := policy.NewScheduler(policy.Spec{Capacity: cap, Wake: *algorithm, Seed: 1})
		if err != nil {
			log.Fatal(err)
		}
		dir, err := os.MkdirTemp("", "convgpu-docker")
		if err != nil {
			log.Fatal(err)
		}
		defer os.RemoveAll(dir)
		d, err := daemon.Start(daemon.Config{BaseDir: dir, Core: st})
		if err != nil {
			log.Fatal(err)
		}
		defer d.Close()
		ctlPath = d.ControlSocket()
		log.Printf("embedded scheduler: capacity=%v algorithm=%s", cap, st.AlgorithmName())
	}
	ctl, err := ipc.Dial(ctlPath)
	if err != nil {
		log.Fatalf("convgpu-docker: scheduler unreachable: %v", err)
	}
	defer ctl.Close()
	nv := nvdocker.New(eng, ctl, plugin.New(ctl))

	opts := cmd.Options
	opts.Image, opts.Program, err = resolveImage(cmd.ImageName, *scale)
	if err != nil {
		log.Fatalf("convgpu-docker: %v", err)
	}

	start := time.Now()
	c, err := nv.Create(context.Background(), opts)
	if err != nil {
		log.Fatalf("convgpu-docker: create: %v", err)
	}
	log.Printf("created %s (image %s) in %v", c.ID(), cmd.ImageName, time.Since(start).Round(time.Microsecond))
	if cmd.Verb == "create" {
		return
	}
	if err := c.Start(); err != nil {
		log.Fatalf("convgpu-docker: start: %v", err)
	}
	err = c.Wait()
	log.Printf("%s exited after %v (err=%v)", c.ID(), time.Since(start).Round(time.Millisecond), err)
	if err != nil {
		os.Exit(1)
	}
}

// resolveImage maps an image name to a simulated image and workload.
func resolveImage(name string, scale float64) (container.Image, container.Program, error) {
	cudaLabels := map[string]string{
		nvdocker.VolumesNeededLabel: "nvidia_driver",
		nvdocker.CUDAVersionLabel:   plugin.HostCUDAVersion,
	}
	switch {
	case strings.HasPrefix(name, "cuda-sample:"):
		typeName := strings.TrimPrefix(name, "cuda-sample:")
		ct, err := workload.TypeByName(typeName)
		if err != nil {
			return container.Image{}, nil, err
		}
		labels := map[string]string{nvdocker.MemoryLimitLabel: ct.GPUMemory.String()}
		for k, v := range cudaLabels {
			labels[k] = v
		}
		return container.Image{Name: name, Labels: labels},
			workload.SampleProgram(ct, scale), nil
	case name == "cuda-mnist":
		return container.Image{Name: name, Labels: cudaLabels},
			workload.MNISTProgram(workload.MNISTConfig{
				Steps:    100,
				StepTime: time.Duration(float64(20*time.Millisecond) * scale * 20),
			}), nil
	case name == "idle":
		return container.Image{Name: name, Labels: cudaLabels},
			func(p *container.Proc) error { return nil }, nil
	default:
		// Non-CUDA image: plain docker passthrough, no GPU wiring.
		return container.Image{Name: name},
			func(p *container.Proc) error { return nil }, nil
	}
}
