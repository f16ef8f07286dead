package experiments

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/gpu"
	"convgpu/internal/inproc"
	"convgpu/internal/ipc"
	"convgpu/internal/metrics"
	"convgpu/internal/protocol"
	"convgpu/internal/sim"
	"convgpu/internal/wrapper"
)

func init() {
	register("ablation-transport", "scheduler round-trip cost: in-process vs UNIX socket vs TCP (paper §III-A)", AblationTransport)
	register("ablation-grants", "grant semantics: reclaiming vs persistent assignments under load", AblationGrants)
}

// forwardHandler bridges an ipc server onto an in-process caller: the
// daemon's message semantics without the daemon, isolating transport
// cost.
type forwardHandler struct {
	caller wrapper.Caller
}

// Handle implements ipc.Handler. Each message is served on its own
// goroutine so a suspended request never stalls the connection; the
// pooled request is cloned because it must outlive Handle (ipc.Handler's
// ownership window).
func (h forwardHandler) Handle(conn *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	req := msg.Clone()
	go func() {
		resp, err := h.caller.Call(context.Background(), req)
		if err != nil {
			respond(&protocol.Message{OK: false, Error: err.Error()})
			return
		}
		respond(resp)
	}()
}

// Closed implements ipc.Handler.
func (h forwardHandler) Closed(conn *ipc.ServerConn) {}

// AblationTransport measures a full wrapped cudaMalloc+cudaFree cycle
// over three transports on the paper's wire — JSON lines, where every
// report is a request/response exchange: alloc, confirm and free are
// three round trips. The paper chose UNIX sockets over TCP for
// "complexity and low performance" reasons and could not use plain
// shared memory for safety (§III-A); the in-process row shows how much
// of ConVGPU's overhead is transport versus scheduler logic.
func AblationTransport(opt Options) (*Report, error) {
	reps := 500
	if opt.Quick {
		reps = 50
	}
	// Zero-latency device: only middleware cost remains.
	measure := func(mkCaller func(hub *inproc.Hub) (wrapper.Caller, func(), error)) (time.Duration, error) {
		st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
		if err != nil {
			return 0, err
		}
		hub := inproc.NewHub(st)
		if _, err := hub.Register("t", bytesize.GiB); err != nil {
			return 0, err
		}
		caller, cleanup, err := mkCaller(hub)
		if err != nil {
			return 0, err
		}
		defer cleanup()
		dev := gpu.New(gpu.K20m())
		mod := wrapper.New(cuda.NewRuntime(dev, 7), caller, 7)
		// Warm up (context overhead, socket buffers).
		for i := 0; i < 5; i++ {
			p, err := mod.Malloc(4096)
			if err != nil {
				return 0, err
			}
			if err := mod.Free(p); err != nil {
				return 0, err
			}
		}
		if err := mod.Flush(); err != nil {
			return 0, err
		}
		start := time.Now()
		for i := 0; i < reps; i++ {
			p, err := mod.Malloc(4096)
			if err != nil {
				return 0, err
			}
			if err := mod.Free(p); err != nil {
				return 0, err
			}
		}
		if err := mod.Flush(); err != nil {
			return 0, err
		}
		return time.Since(start) / time.Duration(reps), nil
	}

	direct, err := measure(func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
		return hub.Caller("t"), func() {}, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-transport direct: %w", err)
	}
	unix, err := measure(func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
		dir, err := os.MkdirTemp("", "convgpu-abl")
		if err != nil {
			return nil, nil, err
		}
		srv, err := ipc.Listen(filepath.Join(dir, "s.sock"), forwardHandler{hub.Caller("t")})
		if err != nil {
			os.RemoveAll(dir)
			return nil, nil, err
		}
		// Bare Dial on both transports: A2a compares the paper's wire,
		// JSON lines, over UNIX and TCP; the negotiated data path is
		// what fig4 measures.
		cli, err := ipc.Dial(srv.Addr())
		if err != nil {
			srv.Close()
			os.RemoveAll(dir)
			return nil, nil, err
		}
		return cli, func() { cli.Close(); srv.Close(); os.RemoveAll(dir) }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-transport unix: %w", err)
	}
	tcp, err := measure(func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
		srv, err := ipc.ListenNet("tcp", "127.0.0.1:0", forwardHandler{hub.Caller("t")})
		if err != nil {
			return nil, nil, err
		}
		cli, err := ipc.DialNet("tcp", srv.Addr())
		if err != nil {
			srv.Close()
			return nil, nil, err
		}
		return cli, func() { cli.Close(); srv.Close() }, nil
	})
	if err != nil {
		return nil, fmt.Errorf("ablation-transport tcp: %w", err)
	}

	t := &metrics.Table{
		Title: "A2a: wrapped cudaMalloc+cudaFree cycle by scheduler transport (µs)",
		Cols:  []string{"µs/cycle"},
	}
	t.AddRow("in-process (no transport)", []float64{us(direct)})
	t.AddRow("UNIX domain socket (paper's choice)", []float64{us(unix)})
	t.AddRow("TCP loopback", []float64{us(tcp)})
	return &Report{
		ID:     "ablation-transport",
		Title:  "scheduler transport cost (paper §III-A design choice)",
		Tables: []*metrics.Table{t},
		Notes: []string{
			shapeNote("UNIX socket cheaper than TCP", unix < tcp),
			shapeNote("transport dominates middleware cost (socket >> in-process)", unix > 2*direct),
		},
	}, nil
}

// AblationGrants compares the two readings of the paper's assignment
// semantics under heavy load: the default, which reclaims the unused
// assignments of paused containers at every redistribution, and the
// persistent reading, where assignments stick until the container
// closes. The persistent reading strands memory with paused containers
// and wedges Recent-Use and Random — evidence that a working ConVGPU
// must reclaim, even though the paper never says so explicitly.
func AblationGrants(opt Options) (*Report, error) {
	counts := []int{24, 38}
	reps := 4
	if opt.Quick {
		counts = []int{24}
		reps = 2
	}
	t := &metrics.Table{Title: "A2b: grant semantics under load", ColHeader: "containers"}
	for _, n := range counts {
		t.Cols = append(t.Cols, fmt.Sprintf("finish@%d (s)", n), fmt.Sprintf("stalls@%d", n))
	}
	type mode struct {
		name                      string
		persistent, faultTolerant bool
	}
	modes := []mode{
		{"reclaim", false, false},
		{"persistent", true, false},
		{"persistent+rescue", true, true},
	}
	stalls := map[string]int{}
	for _, m := range modes {
		for _, alg := range core.AlgorithmNames() {
			var cells []float64
			for _, n := range counts {
				s := sim.Sweep{
					Counts:     []int{n},
					Algorithms: []string{alg},
					Reps:       reps,
					BaseSeed:   20170712,
					Config: sim.Config{
						PersistentGrants: m.persistent,
						FaultTolerant:    m.faultTolerant,
					},
				}
				res, err := s.Run()
				if err != nil {
					return nil, err
				}
				cell := res.Cells[alg][n]
				cells = append(cells, cell.FinishTime.Seconds(), float64(cell.Stalls))
				stalls[m.name] += cell.Stalls
			}
			t.AddRow(fmt.Sprintf("%s (%s)", alg, m.name), cells)
		}
	}
	return &Report{
		ID:     "ablation-grants",
		Title:  "reclaiming vs persistent grant assignments, with and without the [10] rescue pass",
		Tables: []*metrics.Table{t},
		Notes: []string{
			shapeNote("reclaiming semantics never wedge", stalls["reclaim"] == 0),
			shapeNote("persistent semantics wedge Recent-Use/Random under load", stalls["persistent"] > 0),
			shapeNote("the fault-tolerance rescue pass [10] removes every persistent-mode wedge",
				stalls["persistent+rescue"] == 0),
		},
	}, nil
}
