package experiments

import (
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/metrics"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

func init() {
	register("deadlock", "program failure on raw GPU sharing vs. completion under ConVGPU (paper §I)", Deadlock)
}

// Deadlock demonstrates the paper's motivating failure (§I): two
// containers sharing one GPU through plain NVIDIA Docker collide on
// device memory — the loser's allocation fails outright ("a program
// failure[,] in the worst case a deadlock situation"). Under ConVGPU the
// same workloads both complete: the second container's allocation is
// suspended until the first releases its memory.
func Deadlock(opt Options) (*Report, error) {
	const want = 4 * bytesize.GiB // two of these cannot share a 5 GiB GPU

	// --- Without ConVGPU: raw device, concurrent allocation. ---
	rawDev := gpu.New(gpu.K20m())
	rawResults := make([]error, 2)
	first := make(chan struct{})
	var wg sync.WaitGroup
	for i := 0; i < 2; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			rt := cuda.NewRuntime(rawDev, 100+i)
			if i == 1 {
				<-first // deterministic loser
			}
			ptr, err := rt.Malloc(want)
			if i == 0 {
				close(first)
			}
			rawResults[i] = err
			if err == nil {
				// The winner holds the memory for the duration of the
				// experiment, like a real training job would.
				_ = ptr
			}
		}(i)
	}
	wg.Wait()

	// --- With ConVGPU: same demands, scheduler arbitration. ---
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		return nil, err
	}
	l, err := startLocal(st)
	if err != nil {
		return nil, err
	}
	defer l.Close()
	dev := gpu.New(gpu.K20m())
	limit := want + core.DefaultContextOverhead
	managed := make([]error, 2)
	done := make(chan int, 2)
	for i := 0; i < 2; i++ {
		id := core.ContainerID(fmt.Sprintf("job-%d", i))
		if _, err := l.control(protocol.TypeRegister, id, limit); err != nil {
			return nil, err
		}
		go func(i int, id core.ContainerID) {
			mod := wrapper.New(cuda.NewRuntime(dev, 200+i), l.daemon.Caller(id), 200+i)
			ptr, err := mod.Malloc(want)
			if err == nil {
				err = mod.Free(ptr)
			}
			if uerr := mod.UnregisterFatBinary(); err == nil {
				err = uerr
			}
			managed[i] = err
			if _, cerr := l.control(protocol.TypeClose, id, 0); err == nil && cerr != nil {
				managed[i] = cerr
			}
			done <- i
		}(i, id)
	}
	<-done
	<-done

	okStr := func(err error) float64 {
		if err == nil {
			return 1
		}
		return 0
	}
	t := &metrics.Table{
		Title: "A1: two 4 GiB containers on one 5 GiB GPU (1 = completed)",
		Cols:  []string{"container 1", "container 2"},
	}
	t.AddRow("raw sharing (NVIDIA Docker)", []float64{okStr(rawResults[0]), okStr(rawResults[1])})
	t.AddRow("with ConVGPU", []float64{okStr(managed[0]), okStr(managed[1])})

	rep := &Report{
		ID:     "deadlock",
		Title:  "raw GPU sharing failure vs. ConVGPU (paper §I motivation)",
		Tables: []*metrics.Table{t},
	}
	rep.Notes = append(rep.Notes,
		shapeNote("raw sharing: exactly one container fails with cudaErrorMemoryAllocation",
			(rawResults[0] == nil) != (rawResults[1] == nil) &&
				(rawResults[0] == cuda.ErrorMemoryAllocation || rawResults[1] == cuda.ErrorMemoryAllocation)),
		shapeNote("with ConVGPU: both containers complete",
			managed[0] == nil && managed[1] == nil),
	)
	return rep, nil
}
