// Hyperq: concurrent kernels inside a ConVGPU-managed container.
//
// The paper's testbed GPU supports Hyper-Q ("it can run multiple GPU
// kernels concurrently up to 32 kernels", §IV-A), and ConVGPU manages
// only memory — streams, events and kernel launches pass through the
// wrapper untouched. This example runs one container that launches the
// same work serially (one stream) and concurrently (eight streams) and
// measures both with CUDA events, all under a ConVGPU memory limit.
//
//	go run ./examples/hyperq
package main

import (
	"context"
	"fmt"
	"log"
	"time"

	"convgpu"
)

func main() {
	ctx := context.Background()
	sys, err := convgpu.New()
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Start(ctx); err != nil {
		log.Fatal(err)
	}

	const kernels = 8
	const kernelTime = 100 * time.Millisecond

	c, err := sys.Run(ctx, convgpu.RunOptions{
		Name:         "hyperq-demo",
		Image:        convgpu.CUDAImage("bench", ""),
		NvidiaMemory: 1 * convgpu.GiB,
		Program: func(p *convgpu.Proc) error {
			// The wrapper forwards the stream surface verbatim.
			streams, ok := p.CUDA.(convgpu.CUDAStreams)
			if !ok {
				return fmt.Errorf("runtime lacks stream support")
			}
			buf, err := p.CUDA.Malloc(64 * convgpu.MiB)
			if err != nil {
				return err
			}
			defer p.CUDA.Free(buf)

			measure := func(nStreams int) (time.Duration, error) {
				ids := make([]int, nStreams)
				for i := range ids {
					s, err := streams.StreamCreate()
					if err != nil {
						return 0, err
					}
					ids[i] = s
				}
				start, _ := streams.EventCreate()
				if err := streams.EventRecord(start, ids[0]); err != nil {
					return 0, err
				}
				for i := 0; i < kernels; i++ {
					s := ids[i%nStreams]
					if err := p.CUDA.LaunchKernel(convgpu.Kernel{
						Name: fmt.Sprintf("work-%d", i), Duration: kernelTime,
					}, s); err != nil {
						return 0, err
					}
				}
				var longest time.Duration
				for _, s := range ids {
					end, _ := streams.EventCreate()
					if err := streams.EventRecord(end, s); err != nil {
						return 0, err
					}
					if err := streams.StreamSynchronize(s); err != nil {
						return 0, err
					}
					if d, err := streams.EventElapsed(start, end); err == nil && d > longest {
						longest = d
					}
					streams.StreamDestroy(s)
				}
				return longest, nil
			}

			serial, err := measure(1)
			if err != nil {
				return err
			}
			concurrent, err := measure(kernels)
			if err != nil {
				return err
			}
			fmt.Printf("%d kernels x %v each:\n", kernels, kernelTime)
			fmt.Printf("  one stream (serialized):     %v\n", serial.Round(time.Millisecond))
			fmt.Printf("  %d streams (Hyper-Q overlap): %v\n", kernels, concurrent.Round(time.Millisecond))
			fmt.Printf("  speedup: x%.1f\n", float64(serial)/float64(concurrent))
			return nil
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		log.Fatal(err)
	}
}
