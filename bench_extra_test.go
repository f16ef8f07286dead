package convgpu_test

import (
	"bytes"
	"context"
	"encoding/json"
	"net"
	"net/http"
	"path/filepath"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/inproc"
	"convgpu/internal/plugin"
	"convgpu/internal/protocol"
	"convgpu/internal/wrapper"
)

// --- Driver-API path (paper §III-C dual coverage) ---

// BenchmarkDriverAPIMallocWithConVGPU measures the cuMemAlloc+cuMemFree
// cycle through the wrapper's Driver-API coverage, in-process transport.
func BenchmarkDriverAPIMallocWithConVGPU(b *testing.B) {
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	hub := inproc.NewHub(st)
	if _, err := hub.Register("d", bytesize.GiB); err != nil {
		b.Fatal(err)
	}
	dev := gpu.New(gpu.K20m())
	mod := wrapper.NewDriver(cuda.NewDriver(dev, 1), hub.Caller("d"), 1)
	if err := mod.Init(0); err != nil {
		b.Fatal(err)
	}
	if err := mod.CtxCreate(0); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := mod.MemAlloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := mod.MemFree(ptr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkStreamLaunch measures the pass-through kernel launch path —
// the part ConVGPU leaves untouched.
func BenchmarkStreamLaunch(b *testing.B) {
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	hub := inproc.NewHub(st)
	if _, err := hub.Register("s", bytesize.GiB); err != nil {
		b.Fatal(err)
	}
	dev := gpu.New(gpu.K20m())
	mod := wrapper.New(cuda.NewRuntime(dev, 1), hub.Caller("s"), 1)
	if _, err := mod.Malloc(4096); err != nil {
		b.Fatal(err) // create the context outside the loop
	}
	k := cuda.Kernel{Name: "bench", Duration: 0}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := mod.LaunchKernel(k, 0); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Docker legacy volume plugin HTTP path ---

type nopSched struct{}

func (nopSched) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	return &protocol.Message{Type: protocol.TypeResponse, OK: true}, nil
}

// BenchmarkPluginHTTPMountUnmount measures a Docker mount+unmount round
// trip against the plugin's HTTP endpoint over a UNIX socket.
func BenchmarkPluginHTTPMountUnmount(b *testing.B) {
	dir := b.TempDir()
	p := plugin.New(nopSched{})
	srv, err := plugin.ServeHTTP(p, filepath.Join(dir, "p.sock"), dir)
	if err != nil {
		b.Fatal(err)
	}
	defer srv.Close()
	sock := srv.Addr()
	client := &http.Client{Transport: &http.Transport{
		DialContext: func(ctx context.Context, network, addr string) (net.Conn, error) {
			return net.Dial("unix", sock)
		},
	}}
	post := func(endpoint string, body interface{}) error {
		buf, _ := json.Marshal(body)
		resp, err := client.Post("http://p"+endpoint, "application/json", bytes.NewReader(buf))
		if err != nil {
			return err
		}
		resp.Body.Close()
		return nil
	}
	if err := post("/VolumeDriver.Create", map[string]string{"Name": "nvidia_exitwatch_bench"}); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := post("/VolumeDriver.Mount", map[string]string{"Name": "nvidia_exitwatch_bench", "ID": "c"}); err != nil {
			b.Fatal(err)
		}
		if err := post("/VolumeDriver.Unmount", map[string]string{"Name": "nvidia_exitwatch_bench", "ID": "c"}); err != nil {
			b.Fatal(err)
		}
	}
}

// --- Sensitivity / extension benches ---

// BenchmarkSensitivityTightArrivals runs the 2s-spacing heavy-contention
// point of the sensitivity extension.
func BenchmarkSensitivityTightArrivals(b *testing.B) {
	benchTrace(b, 30, 2*time.Second)
}

func benchTrace(b *testing.B, n int, spacing time.Duration) {
	b.Helper()
	var finish time.Duration
	for i := 0; i < b.N; i++ {
		res, err := runSimTrace(n, spacing)
		if err != nil {
			b.Fatal(err)
		}
		finish = res.FinishTime
	}
	b.ReportMetric(finish.Seconds(), "finish_s")
}
