// Quickstart: run one GPU container through the full ConVGPU stack.
//
// The example assembles the middleware (simulated K20m, scheduler daemon
// over real UNIX sockets, container engine, customized nvidia-docker and
// the volume plugin), then launches a container with a 512 MiB GPU
// memory limit. Inside the container, every CUDA call goes through the
// wrapper module: the program sees a GPU whose "total memory" is its
// limit, allocations are accounted by the host-side scheduler, and
// everything is cleaned up when the container exits.
//
//	go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"convgpu"
)

func main() {
	ctx := context.Background()
	sys, err := convgpu.New() // 5 GiB K20m, FIFO; see With... options
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Start(ctx); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("scheduler up (capacity %v), control socket %s\n",
		5*convgpu.GiB, sys.ControlSocket())

	c, err := sys.Run(ctx, convgpu.RunOptions{
		Name:         "quickstart",
		Image:        convgpu.CUDAImage("my-cuda-app:latest", ""),
		NvidiaMemory: 512 * convgpu.MiB, // the --nvidia-memory option
		Program: func(p *convgpu.Proc) error {
			// This function is the "user program inside the container".
			// p.CUDA is the CUDA runtime — already interposed by the
			// wrapper module via the LD_PRELOAD seam.
			free, total, err := p.CUDA.MemGetInfo()
			if err != nil {
				return err
			}
			fmt.Printf("inside container: GPU reports %v free of %v total (the limit!)\n", free, total)

			ptr, err := p.CUDA.Malloc(128 * convgpu.MiB)
			if err != nil {
				return err
			}
			fmt.Printf("allocated 128MiB at %#x\n", uint64(ptr))

			free, _, _ = p.CUDA.MemGetInfo()
			fmt.Printf("after allocation: %v free (128MiB + 66MiB CUDA context accounted)\n", free)

			// Asking for more than the limit fails the way a full GPU
			// would — but only for THIS container.
			if _, err := p.CUDA.Malloc(512 * convgpu.MiB); err != nil {
				fmt.Printf("over-limit allocation correctly denied: %v\n", err)
			}
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		log.Fatalf("container failed: %v", err)
	}

	fmt.Printf("container exited; scheduler pool back to %v, device holds %v\n",
		sys.PoolFree(), sys.Device().Used())

	// The stack gathered telemetry while it scheduled: read it in
	// process (also served over HTTP via AdminHandler; against a
	// convgpu-scheduler daemon, cmd/convgpu-stats is the CLI).
	counts := sys.Observability().EventCounts()
	fmt.Printf("scheduler events: %d accepts, %d rejects\n",
		counts["accept"], counts["reject"])
}
