// Multitenant: the paper's Figure 3 walkthrough, live.
//
// Four containers (A-D) share one 1000 MiB GPU (sizes scaled from the
// figure). A and B fill most of the memory; C gets a partial assignment
// at creation and suspends when it outgrows it; D gets nothing and
// suspends immediately. When B terminates, the scheduler guarantees C
// everything it requested at creation time and hands the remainder to D
// — which stays suspended, exactly as in Fig. 3d, until A finishes too.
//
//	go run ./examples/multitenant
package main

import (
	"context"
	"fmt"
	"log"
	"sync"
	"time"

	"convgpu"
)

func main() {
	ctx := context.Background()
	sys, err := convgpu.New(convgpu.WithCapacity(1000*convgpu.MiB), convgpu.WithAlgorithm(convgpu.FIFO))
	if err != nil {
		log.Fatal(err)
	}
	defer sys.Close()
	if err := sys.Start(ctx); err != nil {
		log.Fatal(err)
	}

	var mu sync.Mutex
	logf := func(format string, args ...interface{}) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf(format+"\n", args...)
	}
	status := func(stage string) {
		mu.Lock()
		defer mu.Unlock()
		fmt.Printf("--- %s ---\n", stage)
		for _, info := range sys.Snapshot() {
			state := "running"
			if info.Suspended {
				state = "SUSPENDED"
			}
			fmt.Printf("  %s: limit=%v grant=%v used=%v %s\n",
				info.ID, info.Limit, info.Grant, info.Used, state)
		}
		fmt.Printf("  pool free: %v\n", sys.PoolFree())
	}

	image := convgpu.CUDAImage("tenant", "")
	releaseA := make(chan struct{})
	releaseB := make(chan struct{})

	// holder runs a tenant that allocates its whole budget and waits.
	holder := func(name string, alloc convgpu.Size, release chan struct{}) *convgpu.Container {
		c, err := sys.Run(ctx, convgpu.RunOptions{
			Name: name, Image: image, NvidiaMemory: alloc + 66*convgpu.MiB,
			Program: func(p *convgpu.Proc) error {
				ptr, err := p.CUDA.Malloc(alloc)
				if err != nil {
					return err
				}
				logf("%s: allocated %v", name, alloc)
				<-release
				return p.CUDA.Free(ptr)
			},
		})
		if err != nil {
			log.Fatal(err)
		}
		return c
	}

	// Fig. 3a: A and B run on the GPU.
	a := holder("A", 600*convgpu.MiB, releaseA) // the long-running big tenant
	b := holder("B", 150*convgpu.MiB, releaseB) // the one that terminates first
	waitAllocated(sys, 2)
	status("Fig. 3a: A and B running")

	// Fig. 3b/3c: C requests more than remains; it runs within its
	// partial assignment, then suspends when it allocates beyond it.
	cDone := make(chan error, 1)
	c, err := sys.Run(ctx, convgpu.RunOptions{
		Name: "C", Image: image, NvidiaMemory: 250 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			small, err := p.CUDA.Malloc(50 * convgpu.MiB)
			if err != nil {
				return err
			}
			logf("C: first 50MiB fits the partial assignment (Fig. 3b)")
			// This one exceeds the assigned memory but not C's request:
			// the call blocks until the scheduler grants more (Fig. 3c).
			logf("C: asking for 120MiB more — suspending...")
			big, err := p.CUDA.Malloc(120 * convgpu.MiB)
			if err != nil {
				return err
			}
			logf("C: resumed! the 120MiB arrived (Fig. 3d)")
			p.CUDA.Free(big)
			return p.CUDA.Free(small)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { cDone <- c.Wait() }()

	// Fig. 3c: D arrives with nothing assigned; suspends immediately.
	dDone := make(chan error, 1)
	d, err := sys.Run(ctx, convgpu.RunOptions{
		Name: "D", Image: image, NvidiaMemory: 200 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			logf("D: asking for 100MiB with zero assignment — suspending...")
			ptr, err := p.CUDA.Malloc(100 * convgpu.MiB)
			if err != nil {
				return err
			}
			logf("D: resumed — enough memory finally freed")
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		log.Fatal(err)
	}
	go func() { dDone <- d.Wait() }()

	waitSuspended(sys, 2)
	status("Fig. 3c: C and D suspended")

	// Fig. 3d: B terminates; FIFO guarantees C its full request, D stays
	// suspended on the leftovers.
	close(releaseB)
	if err := b.Wait(); err != nil {
		log.Fatal(err)
	}
	if err := <-cDone; err != nil {
		log.Fatalf("C failed: %v", err)
	}
	status("Fig. 3d: B gone, C resumed (D follows once enough memory frees)")

	// A terminates too; every tenant drains.
	close(releaseA)
	if err := a.Wait(); err != nil {
		log.Fatal(err)
	}
	if err := <-dDone; err != nil {
		log.Fatalf("D failed: %v", err)
	}
	status("final: everyone done")
}

func waitAllocated(sys *convgpu.Stack, n int) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		count := 0
		for _, info := range sys.Snapshot() {
			if info.Used > 0 {
				count++
			}
		}
		if count >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	log.Fatal("timed out waiting for allocations")
}

func waitSuspended(sys *convgpu.Stack, n int) {
	for deadline := time.Now().Add(5 * time.Second); time.Now().Before(deadline); {
		count := 0
		for _, info := range sys.Snapshot() {
			if info.Suspended {
				count++
			}
		}
		if count >= n {
			return
		}
		time.Sleep(time.Millisecond)
	}
	log.Fatal("timed out waiting for suspensions")
}
