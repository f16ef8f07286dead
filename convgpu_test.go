package convgpu_test

import (
	"context"
	"sync"
	"testing"
	"time"

	"convgpu"
)

func TestParseSizeAndUnits(t *testing.T) {
	s, err := convgpu.ParseSize("512MiB")
	if err != nil || s != 512*convgpu.MiB {
		t.Fatalf("ParseSize = (%v,%v)", s, err)
	}
	if convgpu.GiB != 1024*convgpu.MiB || convgpu.MiB != 1024*convgpu.KiB {
		t.Fatal("unit constants inconsistent")
	}
}

func TestAlgorithmsList(t *testing.T) {
	algs := convgpu.Algorithms()
	if len(algs) != 4 || algs[0] != convgpu.FIFO || algs[1] != convgpu.BestFit {
		t.Fatalf("Algorithms() = %v", algs)
	}
}

func TestContainerTypesTableIII(t *testing.T) {
	types := convgpu.ContainerTypes()
	if len(types) != 6 {
		t.Fatalf("ContainerTypes() has %d entries", len(types))
	}
	if types[0].Name != "nano" || types[5].Name != "xlarge" {
		t.Fatalf("types = %v", types)
	}
}

func TestSystemRunQuickContainer(t *testing.T) {
	sys := newStack(t)
	var sawTotal convgpu.Size
	c, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "q1",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(64 * convgpu.MiB)
			if err != nil {
				return err
			}
			_, total, err := p.CUDA.MemGetInfo()
			if err != nil {
				return err
			}
			sawTotal = total
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if sawTotal != 512*convgpu.MiB {
		t.Fatalf("container saw %v, want its 512MiB limit", sawTotal)
	}
	// Exit returned the grant.
	if sys.PoolFree() != 5*convgpu.GiB {
		t.Fatalf("pool = %v after exit", sys.PoolFree())
	}
	if sys.Device().Used() != 0 {
		t.Fatalf("device used = %v after exit", sys.Device().Used())
	}
}

func TestSystemLabelAndDefaultLimits(t *testing.T) {
	sys := newStack(t)
	check := func(img convgpu.Image, want convgpu.Size) {
		t.Helper()
		var total convgpu.Size
		c, err := sys.Run(context.Background(), convgpu.RunOptions{
			Image: img,
			Program: func(p *convgpu.Proc) error {
				_, tot, err := p.CUDA.MemGetInfo()
				total = tot
				return err
			},
		})
		if err != nil {
			t.Fatal(err)
		}
		c.Wait()
		if total != want {
			t.Fatalf("image %v: saw %v, want %v", img.Name, total, want)
		}
	}
	check(convgpu.CUDAImage("labelled", "256MiB"), 256*convgpu.MiB)
	check(convgpu.CUDAImage("bare", ""), convgpu.DefaultMemoryLimit)
}

func TestSystemMultiTenantSuspension(t *testing.T) {
	sys := newStack(t, convgpu.WithCapacity(1000*convgpu.MiB))
	release := make(chan struct{})
	started := make(chan struct{})
	big, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "big",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 700 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(600 * convgpu.MiB)
			if err != nil {
				return err
			}
			close(started)
			<-release
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	<-started

	var mu sync.Mutex
	var order []string
	small, err := sys.Run(context.Background(), convgpu.RunOptions{
		Name:         "small",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 500 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			// 400 MiB + 66 overhead exceeds the 300 MiB the scheduler
			// could grant while big holds 700: this call suspends until
			// big exits.
			ptr, err := p.CUDA.Malloc(400 * convgpu.MiB)
			if err != nil {
				return err
			}
			mu.Lock()
			order = append(order, "small-allocated")
			mu.Unlock()
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Give the small container time to reach its suspended allocation.
	deadline := time.Now().Add(2 * time.Second)
	for {
		snap := sys.Snapshot()
		suspended := false
		for _, info := range snap {
			if info.ID == "small" && info.Suspended {
				suspended = true
			}
		}
		if suspended {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("small container never suspended")
		}
		time.Sleep(time.Millisecond)
	}
	mu.Lock()
	order = append(order, "big-released")
	mu.Unlock()
	close(release)
	if err := big.Wait(); err != nil {
		t.Fatal(err)
	}
	if err := small.Wait(); err != nil {
		t.Fatal(err)
	}
	mu.Lock()
	defer mu.Unlock()
	if len(order) != 2 || order[0] != "big-released" || order[1] != "small-allocated" {
		t.Fatalf("order = %v, want big released before small allocated", order)
	}
}

func TestSystemSampleProgramThroughStack(t *testing.T) {
	sys := newStack(t)
	ct := convgpu.ContainerTypes()[0] // nano
	c, err := sys.Run(context.Background(), convgpu.RunOptions{
		Image:        convgpu.CUDAImage("sample", ""),
		NvidiaMemory: ct.GPUMemory,
		Program:      convgpu.SampleProgram(ct, 1e-9),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSystemMNISTThroughStack(t *testing.T) {
	sys := newStack(t)
	c, err := sys.Run(context.Background(), convgpu.RunOptions{
		Image:        convgpu.CUDAImage("tf", ""),
		NvidiaMemory: convgpu.GiB,
		Program: convgpu.MNISTProgram(convgpu.MNISTConfig{
			Steps: 5, StepTime: time.Microsecond, BatchBytes: 4096,
			ParamAllocs: 4, ParamBytes: convgpu.MiB, ReallocEvery: 2,
		}),
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

func TestSimulateFacade(t *testing.T) {
	trace := convgpu.GenerateTrace(6, 5*time.Second, 1)
	res, err := convgpu.SimulateContext(context.Background(), trace, convgpu.SimConfig{Algorithm: convgpu.BestFit})
	if err != nil {
		t.Fatal(err)
	}
	if res.FinishTime <= 0 || len(res.Containers) != 6 {
		t.Fatalf("result = %+v", res)
	}
}

func TestDefaultSweepDimensions(t *testing.T) {
	s := convgpu.DefaultSweep()
	if len(s.Counts) != 18 || s.Counts[0] != 4 || s.Counts[17] != 38 {
		t.Fatalf("counts = %v", s.Counts)
	}
	if s.Reps != 6 || len(s.Algorithms) != 4 {
		t.Fatalf("sweep = %+v", s)
	}
}

func TestBadAlgorithmConfig(t *testing.T) {
	_, err := convgpu.New(convgpu.WithBaseDir(t.TempDir()), convgpu.WithAlgorithm("lru"))
	if err == nil {
		t.Fatal("bad algorithm accepted")
	}
}
