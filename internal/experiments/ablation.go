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

// Handle implements ipc.Handler. The request is served where it was
// read, inside its ownership window: nothing in these experiments is
// ever suspended, and a goroutine per message put a scheduler hand-off
// into every round trip — more spread between two runs of one transport
// than there is distance between UNIX and TCP.
func (h forwardHandler) Handle(conn *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	resp, err := h.caller.Call(context.Background(), msg)
	if err != nil {
		respond(&protocol.Message{OK: false, Error: err.Error()})
		return
	}
	respond(resp)
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
//
// The transports take turns, a round of cycles each, and a row is its
// transport's median round: measured one after the other, a burst from
// a neighbour on the machine landed on one transport whole and flipped
// the comparison.
func AblationTransport(opt Options) (*Report, error) {
	const rounds = 20
	perRound := 50
	if opt.Quick {
		perRound = 25
	}
	// Zero-latency device: only middleware cost remains. setup returns
	// one transport, warmed, as the function that times a round on it.
	setup := func(mkCaller func(hub *inproc.Hub) (wrapper.Caller, func(), error)) (round func() (time.Duration, error), cleanup func(), err error) {
		st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
		if err != nil {
			return nil, nil, err
		}
		hub := inproc.NewHub(st)
		if _, err := hub.Register("t", bytesize.GiB); err != nil {
			return nil, nil, err
		}
		caller, cleanup, err := mkCaller(hub)
		if err != nil {
			return nil, nil, err
		}
		dev := gpu.New(gpu.K20m())
		mod := wrapper.New(cuda.NewRuntime(dev, 7), caller, 7)
		cycles := func(n int) error {
			for i := 0; i < n; i++ {
				p, err := mod.Malloc(4096)
				if err != nil {
					return err
				}
				if err := mod.Free(p); err != nil {
					return err
				}
			}
			return mod.Flush()
		}
		// Warm up (context overhead, socket buffers).
		if err := cycles(5); err != nil {
			cleanup()
			return nil, nil, err
		}
		return func() (time.Duration, error) {
			start := time.Now()
			err := cycles(perRound)
			return time.Since(start) / time.Duration(perRound), err
		}, cleanup, nil
	}

	transports := []struct {
		name string
		mk   func(hub *inproc.Hub) (wrapper.Caller, func(), error)
	}{
		{"direct", func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
			return hub.Caller("t"), func() {}, nil
		}},
		{"unix", func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
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
		}},
		{"tcp", func(hub *inproc.Hub) (wrapper.Caller, func(), error) {
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
		}},
	}
	round := make([]func() (time.Duration, error), len(transports))
	for i, tr := range transports {
		r, cleanup, err := setup(tr.mk)
		if err != nil {
			return nil, fmt.Errorf("ablation-transport %s: %w", tr.name, err)
		}
		defer cleanup()
		round[i] = r
	}
	samples := make([][]time.Duration, len(transports))
	for r := 0; r < rounds; r++ {
		for i, tr := range transports {
			d, err := round[i]()
			if err != nil {
				return nil, fmt.Errorf("ablation-transport %s: %w", tr.name, err)
			}
			samples[i] = append(samples[i], d)
		}
	}
	direct, unix, tcp := median(samples[0]), median(samples[1]), median(samples[2])

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
