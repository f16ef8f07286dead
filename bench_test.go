// Benchmarks regenerating the paper's evaluation, one family per table
// and figure (run `go test -bench=. -benchmem`):
//
//	BenchmarkFig4*      per-API response time with/without ConVGPU
//	BenchmarkFig5*      container creation with/without ConVGPU
//	BenchmarkFig6*      MNIST end-to-end with/without ConVGPU
//	BenchmarkFig7*      Table IV finish-time runs per algorithm
//	BenchmarkFig8*      Table V suspension runs per algorithm
//	BenchmarkTableII*   wrapper interception dispatch cost
//	BenchmarkAblation*  transport and grant-semantics design choices
//	BenchmarkMultiGPU / BenchmarkCluster   future-work extensions
//
// Domain results (seconds of simulated time, suspension) are attached
// with b.ReportMetric; `go run ./cmd/convgpu-bench -exp all` renders the
// same experiments as paper-shaped tables.
package convgpu_test

import (
	"context"
	"os"
	"path/filepath"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/container"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/gpu"
	"convgpu/internal/inproc"
	"convgpu/internal/ipc"
	"convgpu/internal/protocol"
	"convgpu/internal/sim"
	"convgpu/internal/workload"
	"convgpu/internal/wrapper"
)

// benchRig is the measured single-container path: latency-calibrated
// device, daemon over a real UNIX socket, wrapper module.
type benchRig struct {
	dev     *gpu.Device
	daemon  *daemon.Daemon
	ctl     *ipc.Client
	wrapCli *ipc.Client
	dir     string
	sockDir string // the registered container's socket directory

	raw     *cuda.Runtime
	wrapped *wrapper.Module
}

func newBenchRig(b *testing.B, withLatency bool) *benchRig {
	b.Helper()
	r := &benchRig{}
	var opts []gpu.Option
	if withLatency {
		opts = append(opts, gpu.WithLatency(gpu.PaperLatency(), nil))
	}
	r.dev = gpu.New(gpu.K20m(), opts...)
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	r.dir = b.TempDir()
	r.daemon, err = daemon.Start(daemon.Config{BaseDir: r.dir, Core: st})
	if err != nil {
		b.Fatal(err)
	}
	r.ctl, err = ipc.Dial(r.daemon.ControlSocket())
	if err != nil {
		b.Fatal(err)
	}
	resp, err := r.ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: "bench", Limit: int64(4 * bytesize.GiB),
	})
	if err != nil || !resp.OK {
		b.Fatalf("register: %v %v", resp, err)
	}
	r.sockDir = resp.SocketDir
	r.wrapCli, err = ipc.DialNegotiated(context.Background(), filepath.Join(r.sockDir, wrapper.SocketFileName))
	if err != nil {
		b.Fatal(err)
	}
	r.raw = cuda.NewRuntime(r.dev, 1)
	r.wrapped = wrapper.New(cuda.NewRuntime(r.dev, 2), r.wrapCli, 2)
	b.Cleanup(func() {
		r.wrapCli.Close()
		r.ctl.Close()
		r.daemon.Close()
	})
	return r
}

// --- Fig. 4: per-API response time ---

func BenchmarkFig4MallocWithConVGPU(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := r.wrapped.Malloc(bytesize.MiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.wrapped.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.wrapped.Flush()
}

func BenchmarkFig4MallocWithout(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := r.raw.Malloc(bytesize.MiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.raw.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MallocManagedWithConVGPU(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := r.wrapped.MallocManaged(bytesize.MiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.wrapped.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.wrapped.Flush()
}

func BenchmarkFig4MallocManagedWithout(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := r.raw.MallocManaged(bytesize.MiB)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.raw.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MallocPitchWithConVGPU(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _, err := r.wrapped.MallocPitch(1024, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.wrapped.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	r.wrapped.Flush()
}

func BenchmarkFig4MallocPitchWithout(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, _, err := r.raw.MallocPitch(1024, 64)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.raw.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFig4MallocPitchFirstCall measures the fresh-process case: the
// wrapper fetches device properties on the first pitched allocation.
func BenchmarkFig4MallocPitchFirstCall(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		mod := wrapper.New(cuda.NewRuntime(r.dev, 100+i), r.wrapCli, 100+i)
		ptr, _, err := mod.MallocPitch(1024, 64)
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		mod.Free(ptr)
		mod.UnregisterFatBinary()
		b.StartTimer()
	}
}

func BenchmarkFig4MemGetInfoWithConVGPU(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.wrapped.MemGetInfo(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkFig4MemGetInfoWithout(b *testing.B) {
	r := newBenchRig(b, true)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := r.raw.MemGetInfo(); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Fig. 5: container creation ---

func benchCreate(b *testing.B, withConVGPU bool) {
	dev := gpu.New(gpu.K20m())
	eng, err := container.NewEngine(container.Config{Device: dev})
	if err != nil {
		b.Fatal(err)
	}
	prog := func(p *container.Proc) error { return nil }
	if !withConVGPU {
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			c, err := eng.Create(container.Spec{Program: prog})
			if err != nil {
				b.Fatal(err)
			}
			b.StopTimer()
			eng.Remove(c.ID())
			b.StartTimer()
		}
		return
	}
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: b.TempDir(), Core: st})
	if err != nil {
		b.Fatal(err)
	}
	defer d.Close()
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		b.Fatal(err)
	}
	defer ctl.Close()
	nv := newNVDocker(eng, ctl)
	img := container.Image{Name: "cuda", Labels: map[string]string{"com.nvidia.volumes.needed": "nvidia_driver"}}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		c, err := nv.Create(context.Background(), nvOptions(img, 256*bytesize.MiB, prog))
		if err != nil {
			b.Fatal(err)
		}
		b.StopTimer()
		c.Start()
		c.Wait() // releases the registration via the exit hook
		eng.Remove(c.ID())
		b.StartTimer()
	}
}

func BenchmarkFig5CreateWithConVGPU(b *testing.B) { benchCreate(b, true) }
func BenchmarkFig5CreateWithout(b *testing.B)     { benchCreate(b, false) }

// --- Fig. 6: MNIST end-to-end ---

func benchMNIST(b *testing.B, withConVGPU bool) {
	r := newBenchRig(b, true)
	cfg := workload.MNISTConfig{
		Steps: 20, StepTime: 200 * time.Microsecond, BatchBytes: 256 * bytesize.KiB,
		ParamAllocs: 8, ParamBytes: 4 * bytesize.MiB, ReallocEvery: 10,
	}
	prog := workload.MNISTProgram(cfg)
	api := cuda.API(r.raw)
	if withConVGPU {
		api = r.wrapped
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := prog(&container.Proc{PID: 2, CUDA: api}); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if withConVGPU {
		r.wrapped.Flush()
	}
}

func BenchmarkFig6MNISTWithConVGPU(b *testing.B) { benchMNIST(b, true) }
func BenchmarkFig6MNISTWithout(b *testing.B)     { benchMNIST(b, false) }

// --- Fig. 7 / Table IV and Fig. 8 / Table V: the scheduling sweep ---

func benchSweepRun(b *testing.B, alg string, persistent bool) {
	trace := workload.GenerateTrace(38, workload.DefaultSpacing, 20170712)
	var finish, suspended time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, sim.Config{Algorithm: alg, AlgSeed: 1, PersistentGrants: persistent})
		if err != nil {
			b.Fatal(err)
		}
		finish = res.FinishTime
		suspended = res.AvgSuspended
	}
	b.ReportMetric(finish.Seconds(), "finish_s")
	b.ReportMetric(suspended.Seconds(), "avg_susp_s")
}

func BenchmarkFig7TableIV_FIFO(b *testing.B)      { benchSweepRun(b, core.AlgFIFO, false) }
func BenchmarkFig7TableIV_BestFit(b *testing.B)   { benchSweepRun(b, core.AlgBestFit, false) }
func BenchmarkFig7TableIV_RecentUse(b *testing.B) { benchSweepRun(b, core.AlgRecentUse, false) }
func BenchmarkFig7TableIV_Random(b *testing.B)    { benchSweepRun(b, core.AlgRandom, false) }

// Fig. 8 / Table V reports the suspension metric of the same runs; the
// dedicated benchmarks below run a heavier (26-container) point where
// the paper highlights the suspension divergence.
func benchSuspension(b *testing.B, alg string) {
	trace := workload.GenerateTrace(26, workload.DefaultSpacing, 20170712)
	var suspended time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := sim.Run(trace, sim.Config{Algorithm: alg, AlgSeed: 1})
		if err != nil {
			b.Fatal(err)
		}
		suspended = res.AvgSuspended
	}
	b.ReportMetric(suspended.Seconds(), "avg_susp_s")
}

func BenchmarkFig8TableV_FIFO(b *testing.B)      { benchSuspension(b, core.AlgFIFO) }
func BenchmarkFig8TableV_BestFit(b *testing.B)   { benchSuspension(b, core.AlgBestFit) }
func BenchmarkFig8TableV_RecentUse(b *testing.B) { benchSuspension(b, core.AlgRecentUse) }
func BenchmarkFig8TableV_Random(b *testing.B)    { benchSuspension(b, core.AlgRandom) }

// --- Table II: interception dispatch cost ---

// BenchmarkTableIIInterception measures the pure wrapper overhead with
// no transport and no device latency: the cost of the Table II hook
// logic itself.
func BenchmarkTableIIInterception(b *testing.B) {
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	hub := inproc.NewHub(st)
	if _, err := hub.Register("t", bytesize.GiB); err != nil {
		b.Fatal(err)
	}
	dev := gpu.New(gpu.K20m())
	mod := wrapper.New(cuda.NewRuntime(dev, 1), hub.Caller("t"), 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := mod.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := mod.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Ablations ---

func BenchmarkAblationGrantsReclaim(b *testing.B)    { benchSweepRun(b, core.AlgBestFit, false) }
func BenchmarkAblationGrantsPersistent(b *testing.B) { benchSweepRun(b, core.AlgBestFit, true) }

// --- Core scheduler micro-benchmarks ---

func BenchmarkCoreRequestAlloc(b *testing.B) {
	st, err := core.New(core.Config{Capacity: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := st.Register("c", 1<<39); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.RequestAlloc("c", 1, 4096)
		if err != nil || res.Decision != core.Accept {
			b.Fatalf("%v %v", res, err)
		}
		addr := uint64(i + 1)
		if err := st.ConfirmAlloc("c", 1, addr, 4096); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Free("c", 1, addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkCoreRedistribute measures one close with many paused
// containers to redistribute across.
func BenchmarkCoreRedistribute(b *testing.B) {
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		st, err := core.New(core.Config{Capacity: 1000 * bytesize.MiB, ContextOverhead: 1, Algorithm: core.BestFit{}})
		if err != nil {
			b.Fatal(err)
		}
		if _, err := st.Register("holder", 900*bytesize.MiB); err != nil {
			b.Fatal(err)
		}
		if res, err := st.RequestAlloc("holder", 1, 899*bytesize.MiB); err != nil || res.Decision != core.Accept {
			b.Fatalf("%v %v", res, err)
		}
		for j := 0; j < 32; j++ {
			id := core.ContainerID("p" + string(rune('a'+j%26)) + string(rune('0'+j/26)))
			if _, err := st.Register(id, 500*bytesize.MiB); err != nil {
				b.Fatal(err)
			}
			if _, err := st.RequestAlloc(id, 100+j, 400*bytesize.MiB); err != nil {
				b.Fatal(err)
			}
		}
		b.StartTimer()
		if _, _, err := st.Close("holder"); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Extensions ---

func BenchmarkMultiGPUPlacement(b *testing.B) {
	benchExtension(b, true)
}

func BenchmarkClusterPlacement(b *testing.B) {
	benchExtension(b, false)
}

func benchExtension(b *testing.B, multi bool) {
	trace := workload.GenerateTrace(32, workload.DefaultSpacing, 7)
	var finish time.Duration
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var res sim.Result
		var err error
		if multi {
			res, err = runMultiGPU(trace, 2)
		} else {
			res, err = runCluster(trace, 2)
		}
		if err != nil {
			b.Fatal(err)
		}
		finish = res.FinishTime
	}
	b.ReportMetric(finish.Seconds(), "finish_s")
}

func TestMain(m *testing.M) {
	os.Exit(m.Run())
}
