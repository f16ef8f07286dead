package sim

import (
	"testing"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/policy"
	"convgpu/internal/workload"
)

// TestSimulationHistoryStructurallySafe replays a contended Table III
// trace under every algorithm with the structural history checker
// attached: whatever schedule the discrete-event loop produces, the
// core's event stream must respect conservation, ticket discipline and
// per-container FIFO, and must end fully drained — the simulator runs
// every container to completion.
func TestSimulationHistoryStructurallySafe(t *testing.T) {
	const capacity = 5 * bytesize.GiB
	trace := workload.GenerateTrace(24, workload.DefaultSpacing/4, 7)
	for _, algName := range core.AlgorithmNames() {
		algName := algName
		t.Run(algName, func(t *testing.T) {
			alg, err := policy.NewWake(algName, policy.Config{Seed: 11})
			if err != nil {
				t.Fatal(err)
			}
			clk := clock.NewManual()
			st, err := core.New(core.Config{Capacity: capacity, Algorithm: alg, Clock: clk})
			if err != nil {
				t.Fatal(err)
			}
			hist := &model.History{}
			st.SetObserver(hist.Observer())
			res, err := RunWith(trace, st, clk, Config{Capacity: capacity, Algorithm: algName})
			if err != nil {
				t.Fatal(err)
			}
			if res.Stalled {
				t.Fatal("run stalled")
			}
			if res.SuspendedCount == 0 {
				t.Fatal("trace produced no suspensions; the history check is vacuous")
			}
			if hist.Len() == 0 {
				t.Fatal("observer captured no events")
			}
			if err := hist.CheckDrained(func(int) bytesize.Size { return capacity }); err != nil {
				t.Fatalf("simulation history violates structural invariants: %v", err)
			}
		})
	}
}
