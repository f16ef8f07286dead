package experiments

import (
	"fmt"
	"sort"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/cuda"
	"convgpu/internal/metrics"
)

func init() {
	register("fig4", "response time of hooked CUDA API calls with/without ConVGPU", Fig4)
}

// Fig4 measures the response time of the six CUDA APIs the paper's
// Figure 4 reports, with and without ConVGPU, on the latency-calibrated
// device. The paper's headline shapes:
//
//   - allocation calls with ConVGPU pay a clear middleware premium —
//     the UNIX-socket traffic dominates the difference. The paper
//     measured ~2x on its C implementation; this implementation waits
//     for one round trip, the decision, on binary frames (the confirm
//     is written and not waited for), a fraction of the device latency,
//     so the asserted shape is "well above the without time", not the
//     original factor;
//   - the first cudaMallocPitch is ~2x the later ones (it fetches
//     device properties for the pitch size);
//   - cudaMallocManaged dwarfs everything (~40x) because it maps host
//     and device memory;
//   - cudaFree adds almost nothing (the report is one socket write);
//   - cudaMemGetInfo is *faster* with ConVGPU (no device call at all).
func Fig4(opt Options) (*Report, error) {
	reps := 200
	if opt.Quick {
		reps = 30
	}
	r, err := newRig(true, 4*bytesize.GiB)
	if err != nil {
		return nil, err
	}
	defer r.Close()

	const allocSize = bytesize.MiB

	type row struct {
		name          string
		with, without time.Duration
	}
	var rows []row

	// measure reports the median per-call latency: robust against the
	// scheduling outliers that a mean would absorb (the paper likewise
	// averages 10 repetitions of a steady measurement).
	measure := func(n int, f func() error) (time.Duration, error) {
		samples := make([]time.Duration, 0, n)
		for i := 0; i < n; i++ {
			start := time.Now()
			if err := f(); err != nil {
				return 0, err
			}
			samples = append(samples, time.Since(start))
		}
		return median(samples), nil
	}

	// cudaMalloc + cudaFree (measured separately, same loop).
	var mallocWith, mallocWithout, freeWith, freeWithout time.Duration
	{
		var err error
		var ptr cuda.DevPtr
		mallocWith, err = measure(reps, func() error {
			p, err := r.Wrapped.Malloc(allocSize)
			ptr = p
			if err != nil {
				return err
			}
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("fig4 cudaMalloc with: %w", err)
		}
		_ = ptr
		// Free everything we allocated, measuring the frees.
		snapshot := r.dev.AllocCount()
		_ = snapshot
		freeWith, err = measureFreeAll(r, reps, allocSize, true)
		if err != nil {
			return nil, err
		}
		mallocWithout, err = measure(reps, func() error {
			_, err := r.Raw.Malloc(allocSize)
			return err
		})
		if err != nil {
			return nil, err
		}
		freeWithout, err = measureFreeAll(r, reps, allocSize, false)
		if err != nil {
			return nil, err
		}
	}
	rows = append(rows,
		row{"cudaMalloc", mallocWith, mallocWithout},
		row{"cudaFree", freeWith, freeWithout},
	)

	// cudaMallocManaged (128 MiB granularity: free each immediately to
	// avoid exhausting the limit).
	managedWith, err := measure(reps, func() error {
		p, err := r.Wrapped.MallocManaged(allocSize)
		if err != nil {
			return err
		}
		return deferredFree(r.Wrapped.Free, p)
	})
	if err != nil {
		return nil, err
	}
	managedWithout, err := measure(reps, func() error {
		p, err := r.Raw.MallocManaged(allocSize)
		if err != nil {
			return err
		}
		return deferredFree(r.Raw.Free, p)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"cudaMallocManaged", managedWith, managedWithout})

	// cudaMallocPitch, first call per process: a fresh wrapper must
	// fetch device properties.
	firstReps := reps / 4
	if firstReps < 5 {
		firstReps = 5
	}
	firstSamples := make([]time.Duration, 0, firstReps)
	for i := 0; i < firstReps; i++ {
		mod := r.FreshWrapped(20000 + i)
		start := time.Now()
		p, _, err := mod.MallocPitch(1024, 64)
		if err != nil {
			return nil, fmt.Errorf("fig4 first pitch: %w", err)
		}
		firstSamples = append(firstSamples, time.Since(start))
		if err := mod.Free(p); err != nil {
			return nil, err
		}
		if err := mod.UnregisterFatBinary(); err != nil {
			return nil, err
		}
	}
	pitchFirstWith := median(firstSamples)

	// cudaMallocPitch, subsequent calls (properties cached).
	pitchWith, err := measure(reps, func() error {
		p, _, err := r.Wrapped.MallocPitch(1024, 64)
		if err != nil {
			return err
		}
		return deferredFree(r.Wrapped.Free, p)
	})
	if err != nil {
		return nil, err
	}
	pitchWithout, err := measure(reps, func() error {
		p, _, err := r.Raw.MallocPitch(1024, 64)
		if err != nil {
			return err
		}
		return deferredFree(r.Raw.Free, p)
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows,
		row{"cudaMallocPitch (first)", pitchFirstWith, pitchWithout},
		row{"cudaMallocPitch", pitchWith, pitchWithout},
	)

	// cudaMemGetInfo: with ConVGPU the device is never touched.
	memInfoWith, err := measure(reps, func() error {
		_, _, err := r.Wrapped.MemGetInfo()
		return err
	})
	if err != nil {
		return nil, err
	}
	memInfoWithout, err := measure(reps, func() error {
		_, _, err := r.Raw.MemGetInfo()
		return err
	})
	if err != nil {
		return nil, err
	}
	rows = append(rows, row{"cudaMemGetInfo", memInfoWith, memInfoWithout})

	// Assemble the report.
	table := &metrics.Table{
		// µs: the table renders one decimal, which in the paper's ms
		// would round every row but cudaMallocManaged to 0.0 or 0.1.
		Title: "Fig. 4: response time of the API call from the container (µs)",
		Cols:  []string{"with ConVGPU", "without", "ratio"},
	}
	bar := &metrics.Bar{Title: "Fig. 4 (bars): with ConVGPU, ms", Unit: "ms"}
	for _, rw := range rows {
		ratio := 0.0
		if rw.without > 0 {
			ratio = float64(rw.with) / float64(rw.without)
		}
		table.AddRow(rw.name, []float64{us(rw.with), us(rw.without), ratio})
		bar.Add(rw.name, ms(rw.with))
	}
	rep := &Report{
		ID:     "fig4",
		Title:  "response time of hooked CUDA APIs (paper Fig. 4)",
		Tables: []*metrics.Table{table},
		Bars:   []*metrics.Bar{bar},
	}
	rep.Notes = append(rep.Notes,
		shapeNote("allocation pays the scheduler round trip", mallocWith > mallocWithout*11/10),
		shapeNote("first cudaMallocPitch above later calls", pitchFirstWith > pitchWith),
		shapeNote("cudaMallocManaged >> other allocations", managedWith > 5*mallocWith),
		shapeNote("cudaFree overhead small (one-way report)", freeWith < mallocWith),
		shapeNote("cudaMemGetInfo faster with ConVGPU", memInfoWith < memInfoWithout),
	)
	return rep, nil
}

// measureFreeAll frees `n` allocations of `size` made beforehand,
// timing each free on the wrapped or raw path. It allocates first
// without timing.
func measureFreeAll(r *rig, n int, size bytesize.Size, wrapped bool) (time.Duration, error) {
	ptrs := make([]cuda.DevPtr, 0, n)
	samples := make([]time.Duration, 0, n)
	for i := 0; i < n; i++ {
		var p cuda.DevPtr
		var err error
		if wrapped {
			p, err = r.Wrapped.Malloc(size)
		} else {
			p, err = r.Raw.Malloc(size)
		}
		if err != nil {
			return 0, err
		}
		ptrs = append(ptrs, p)
	}
	for _, p := range ptrs {
		start := time.Now()
		var err error
		if wrapped {
			err = r.Wrapped.Free(p)
		} else {
			err = r.Raw.Free(p)
		}
		if err != nil {
			return 0, err
		}
		samples = append(samples, time.Since(start))
	}
	if wrapped {
		if err := r.Wrapped.Flush(); err != nil {
			return 0, err
		}
	}
	return median(samples), nil
}

func deferredFree(free func(cuda.DevPtr) error, p cuda.DevPtr) error {
	return free(p)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// median returns the middle sample (of a copy; the input is unsorted).
func median(samples []time.Duration) time.Duration {
	if len(samples) == 0 {
		return 0
	}
	s := append([]time.Duration(nil), samples...)
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
	return s[len(s)/2]
}

func shapeNote(claim string, holds bool) string {
	if holds {
		return "shape holds: " + claim
	}
	return "SHAPE MISMATCH: " + claim
}
