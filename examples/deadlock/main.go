// Deadlock: the failure ConVGPU exists to prevent (paper §I).
//
// NVIDIA Docker hands the whole GPU to every container and "does not
// care how the user program inside the container uses GPU" — so when two
// containers each need most of the device memory, one of them simply
// fails with cudaErrorMemoryAllocation. This example shows that failure
// on the raw device, then the same pair of workloads completing under
// ConVGPU, where the second container's allocation is paused instead of
// failed.
//
//	go run ./examples/deadlock
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"convgpu"
)

const want = 4 * convgpu.GiB // two of these cannot share a 5 GiB GPU

func main() {
	fmt.Println("scenario: two containers, each needing 4 GiB of a 5 GiB GPU")
	fmt.Println()
	withoutConVGPU()
	fmt.Println()
	withConVGPU()
}

// withoutConVGPU shares the raw device the way plain NVIDIA Docker does.
func withoutConVGPU() {
	fmt.Println("--- without ConVGPU (plain NVIDIA Docker sharing) ---")
	dev := convgpu.RawDevice()
	var wg sync.WaitGroup
	gate := make(chan struct{})
	for i := 1; i <= 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := convgpu.RawCUDA(dev, i)
			if i == 2 {
				<-gate // let container 1 win deterministically
			}
			ptr, err := rt.Malloc(want)
			if i == 1 {
				close(gate)
			}
			if err != nil {
				fmt.Printf("container %d: PROGRAM FAILURE: %v\n", i, err)
				return
			}
			fmt.Printf("container %d: allocated 4GiB, training...\n", i)
			time.Sleep(50 * time.Millisecond)
			rt.Free(ptr)
			rt.UnregisterFatBinary()
			fmt.Printf("container %d: done\n", i)
		}(i)
	}
	wg.Wait()
}

// withConVGPU runs the same demands through the full middleware stack.
func withConVGPU() {
	fmt.Println("--- with ConVGPU ---")
	ctx := context.Background()
	sys, err := convgpu.New(convgpu.WithAlgorithm(convgpu.FIFO))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Start(ctx); err != nil {
		log.Fatal(err)
	}

	job := func(i int) *convgpu.Container {
		c, err := sys.Run(ctx, convgpu.RunOptions{
			Name:         fmt.Sprintf("job-%d", i),
			Image:        convgpu.CUDAImage("trainer", ""),
			NvidiaMemory: want + 66*convgpu.MiB,
			Program: func(p *convgpu.Proc) error {
				start := time.Now()
				ptr, err := p.CUDA.Malloc(want)
				if err != nil {
					return err
				}
				if waited := time.Since(start); waited > 10*time.Millisecond {
					fmt.Printf("container %d: allocation was PAUSED %v, then granted\n", i, waited.Round(time.Millisecond))
				} else {
					fmt.Printf("container %d: allocated immediately\n", i)
				}
				time.Sleep(50 * time.Millisecond) // training
				return p.CUDA.Free(ptr)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}
	c1 := job(1)
	time.Sleep(10 * time.Millisecond) // container 1 allocates first
	c2 := job(2)
	if err := c1.Wait(); err != nil {
		log.Fatalf("container 1 failed: %v", err)
	}
	if err := c2.Wait(); err != nil {
		log.Fatalf("container 2 failed: %v", err)
	}
	fmt.Println("both containers completed — no failure, no deadlock")
}
