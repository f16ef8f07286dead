package convgpu_test

import (
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"convgpu"
	"convgpu/internal/leak"
	"convgpu/internal/obs"
)

func newStack(t *testing.T, opts ...convgpu.Option) *convgpu.Stack {
	t.Helper()
	// Registered before the Close cleanup below, so it runs after it:
	// a closed stack must have wound down every goroutine it started.
	leak.Check(t)
	opts = append([]convgpu.Option{convgpu.WithBaseDir(t.TempDir())}, opts...)
	st, err := convgpu.New(opts...)
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	return st
}

// runOne runs one small allocate/free container to completion.
func runOne(t *testing.T, run func(context.Context, convgpu.RunOptions) (*convgpu.Container, error), name string) {
	t.Helper()
	c, err := run(context.Background(), convgpu.RunOptions{
		Name:         name,
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			ptr, err := p.CUDA.Malloc(64 * convgpu.MiB)
			if err != nil {
				return err
			}
			return p.CUDA.Free(ptr)
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
}

// daemonWire sums the daemon-side wire counters: frames per codec (both
// directions) and completed codec handshakes.
func daemonWire(st *convgpu.Stack) (binaryIn, binaryOut, json, negotiations int64) {
	for _, p := range st.Observability().Registry().Snapshot() {
		if p.Labels["side"] != "daemon" {
			continue
		}
		switch {
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "binary" && p.Labels["direction"] == "in":
			binaryIn += p.Value
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "binary":
			binaryOut += p.Value
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "json":
			json += p.Value
		case p.Name == obs.MetricWireNegotiations:
			negotiations += p.Value
		}
	}
	return
}

// TestDataPathRidesBinary: a container's alloc/confirm/free loop travels
// as binary frames on the wrapper's socket — four per Malloc+Free: the
// alloc and its reply, the confirm and the free one-way — and the only
// JSON the daemon sees is each connection's codec probe and its answer.
// A wrapper dial that silently stayed on JSON, or a report that went
// back to waiting for its reply, fails here, not in a latency number.
func TestDataPathRidesBinary(t *testing.T) {
	st := newStack(t)
	in0, out0, json0, neg0 := daemonWire(st)
	if neg0 != 1 || json0 != 2 {
		t.Fatalf("after Start: %d handshakes, %d JSON frames; want the control channel's 1 and 2", neg0, json0)
	}
	const cycles = 10
	c, err := st.Run(context.Background(), convgpu.RunOptions{
		Name:         "cyc",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 512 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			for i := 0; i < cycles; i++ {
				ptr, err := p.CUDA.Malloc(convgpu.MiB)
				if err != nil {
					return err
				}
				if err := p.CUDA.Free(ptr); err != nil {
					return err
				}
			}
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	in, out, json, neg := daemonWire(st)
	if neg-neg0 != 1 {
		t.Errorf("wrapper connection handshakes = %d, want 1", neg-neg0)
	}
	// Beyond the cycles: the control channel's register and close and
	// the procexit at the program's end, one request and one reply each.
	if in, out := in-in0, out-out0; in != 3*cycles+3 || out != cycles+3 {
		t.Errorf("binary frames over %d cycles: %d in, %d out; want %d in (alloc, confirm, free) and %d out (the alloc's reply)",
			cycles, in, out, 3*cycles+3, cycles+3)
	}
	if got := json - json0; got != 2*(neg-neg0) {
		t.Errorf("JSON frames grew by %d, want only the probe and its answer (%d)", got, 2*(neg-neg0))
	}
}

func TestStackLifecycleAndIntrospection(t *testing.T) {
	st := newStack(t, convgpu.WithAlgorithm(convgpu.BestFit), convgpu.WithCapacity(2*convgpu.GiB))
	if st.Algorithm() != convgpu.BestFit {
		t.Fatalf("algorithm = %q", st.Algorithm())
	}
	runOne(t, st.Run, "c1")

	// Stats of the live daemon.
	data, err := st.Stats(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var stats struct {
		Algorithm string `json:"algorithm"`
		Metrics   []struct {
			Name   string            `json:"name"`
			Labels map[string]string `json:"labels"`
			Value  int64             `json:"value"`
		} `json:"metrics"`
	}
	if err := json.Unmarshal(data, &stats); err != nil {
		t.Fatalf("stats not JSON: %v\n%s", err, data)
	}
	if stats.Algorithm != convgpu.BestFit {
		t.Fatalf("stats algorithm = %q", stats.Algorithm)
	}
	accepts := int64(-1)
	for _, m := range stats.Metrics {
		if m.Name == "convgpu_scheduler_events_total" && m.Labels["kind"] == "accept" {
			accepts = m.Value
		}
	}
	if accepts < 1 {
		t.Fatalf("accept counter = %d, want >= 1", accepts)
	}

	// Trace of the live daemon, filtered to the container.
	data, err = st.Trace(context.Background(), "c1")
	if err != nil {
		t.Fatal(err)
	}
	var trace struct {
		Events []struct {
			Kind string `json:"kind"`
			CSeq uint64 `json:"cseq"`
		} `json:"events"`
	}
	if err := json.Unmarshal(data, &trace); err != nil {
		t.Fatal(err)
	}
	if len(trace.Events) == 0 || trace.Events[0].Kind != "register" || trace.Events[0].CSeq != 1 {
		t.Fatalf("trace = %+v", trace.Events)
	}

	// Dump includes pool identity.
	data, err = st.Dump(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	var dump struct {
		Capacity int64 `json:"capacity"`
	}
	if err := json.Unmarshal(data, &dump); err != nil {
		t.Fatal(err)
	}
	if dump.Capacity != int64(2*convgpu.GiB) {
		t.Fatalf("dump capacity = %d", dump.Capacity)
	}

	// The HTTP surface serves the same registry.
	h, err := st.AdminHandler()
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(h)
	defer srv.Close()
	resp, err := srv.Client().Get(srv.URL + "/v1/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if !strings.Contains(string(body), `convgpu_scheduler_events_total{algorithm="bestfit",kind="accept"}`) {
		t.Fatalf("/v1/metrics missing accept counter:\n%.2000s", body)
	}
	if !strings.Contains(string(body), "convgpu_ipc_rtt_seconds_count") {
		t.Fatalf("/v1/metrics missing RTT histogram:\n%.2000s", body)
	}
}

func TestStackNotStarted(t *testing.T) {
	st, err := convgpu.New()
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	if _, err := st.Run(context.Background(), convgpu.RunOptions{}); !errors.Is(err, convgpu.ErrNotStarted) {
		t.Fatalf("Run before Start: %v", err)
	}
	if _, err := st.Stats(context.Background()); !errors.Is(err, convgpu.ErrNotStarted) {
		t.Fatalf("Stats before Start: %v", err)
	}
	if st.ControlSocket() != "" {
		t.Fatal("ControlSocket non-empty before Start")
	}
}

func TestStackCloseIdempotentAndRestartRefused(t *testing.T) {
	st := newStack(t)
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	if err := st.Start(context.Background()); err == nil {
		t.Fatal("Start after Close succeeded")
	}
}

func TestOptionValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		opt  convgpu.Option
	}{
		{"empty basedir", convgpu.WithBaseDir("")},
		{"zero capacity", convgpu.WithCapacity(0)},
		{"empty algorithm", convgpu.WithAlgorithm("")},
		{"negative lease", convgpu.WithLease(-time.Second)},
		{"negative timeout", convgpu.WithCallTimeout(-1)},
		{"nil obs", convgpu.WithObservability(nil)},
	} {
		if _, err := convgpu.New(tc.opt); err == nil {
			t.Errorf("%s: New succeeded", tc.name)
		}
	}
	if _, err := convgpu.New(convgpu.WithAlgorithm("nope")); err == nil {
		t.Error("unknown algorithm: New succeeded")
	}
}

// TestAlgorithmAliasIsCanonicalEverywhere: an alias selects its policy,
// and the stack, its telemetry and the stats document all carry the
// canonical name, never the caller's spelling.
func TestAlgorithmAliasIsCanonicalEverywhere(t *testing.T) {
	st, err := convgpu.New(convgpu.WithAlgorithm("BF"))
	if err != nil {
		t.Fatal(err)
	}
	if got := st.Algorithm(); got != convgpu.BestFit {
		t.Errorf("Stack.Algorithm() = %q, want %q", got, convgpu.BestFit)
	}
	if got := st.Observability().Algorithm(); got != convgpu.BestFit {
		t.Errorf("Observability().Algorithm() = %q, want %q", got, convgpu.BestFit)
	}
}

func TestSimulateContextCancelled(t *testing.T) {
	trace := convgpu.GenerateTrace(8, 5*time.Second, 42)
	cancelled, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := convgpu.SimulateContext(cancelled, trace, convgpu.SimConfig{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled simulate: %v", err)
	}
}

func TestSentinelErrors(t *testing.T) {
	st := newStack(t, convgpu.WithCapacity(1*convgpu.GiB))

	// Registration beyond capacity surfaces ErrOverCapacity across the
	// daemon socket via the response's machine-readable code.
	_, err := st.Run(context.Background(), convgpu.RunOptions{
		Image:        convgpu.CUDAImage("big", ""),
		NvidiaMemory: 8 * convgpu.GiB,
		Program:      func(p *convgpu.Proc) error { return nil },
	})
	if !errors.Is(err, convgpu.ErrOverCapacity) {
		t.Fatalf("over-capacity run: %v", err)
	}

	// An in-container allocation beyond the limit is rejected; the
	// wrapper surfaces ErrRejected.
	var mallocErr error
	c, err := st.Run(context.Background(), convgpu.RunOptions{
		Name:         "rej",
		Image:        convgpu.CUDAImage("app", ""),
		NvidiaMemory: 256 * convgpu.MiB,
		Program: func(p *convgpu.Proc) error {
			_, mallocErr = p.CUDA.Malloc(512 * convgpu.MiB)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		t.Fatal(err)
	}
	if !errors.Is(mallocErr, convgpu.ErrRejected) {
		t.Fatalf("over-limit malloc: %v", mallocErr)
	}
}
