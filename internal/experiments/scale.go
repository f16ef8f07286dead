package experiments

import (
	"fmt"
	"time"

	"convgpu/internal/core"
	"convgpu/internal/metrics"
	"convgpu/internal/policy"
	"convgpu/internal/sim"
)

func init() {
	register("fig78-scale",
		"Fig. 7/8 re-test at 100x the paper's cohort: 3200 containers under all seven wake policies", Fig78Scale)
}

// Fig78Scale re-runs the paper's Fig. 7/8 experiment two orders of
// magnitude past the testbed: a single 3200-container cohort (the paper
// tops out at 38, with 32 as the last Best-Fit win reported) under all
// seven wake policies, not just the paper's four. The
// question it answers is whether Best-Fit's finish-time advantage — the
// paper's headline claim — survives when the queue is deep enough that
// its starvation pathology (Fig. 8's caveat) has 100x the opportunity
// to bite. Quick mode runs a 320-container cohort for CI.
func Fig78Scale(opt Options) (*Report, error) {
	s := sim.DefaultSweep()
	s.Counts = []int{3200}
	s.Reps = 1
	s.Algorithms = policy.WakeNames()
	if opt.Quick {
		s.Counts = []int{320}
	}
	res, err := s.Run()
	if err != nil {
		return nil, err
	}
	rep := &Report{
		ID:    "fig78-scale",
		Title: "finished/suspended time at 100x the paper's scale, all seven wake policies (extends Fig. 7/8)",
		Tables: []*metrics.Table{
			res.FinishTable(), res.SuspendTable(), res.UtilizationTable(),
		},
	}
	rep.Notes = appendScaleNotes(rep.Notes, res)
	return rep, nil
}

func appendScaleNotes(notes []string, res *sim.SweepResult) []string {
	n := res.Sweep.Counts[0]
	// Claim under test: Best-Fit stays fastest (or within noise of
	// fastest) when the paper's 32-container "heavy load" regime is
	// scaled 100x.
	bf := res.Cells[core.AlgBestFit][n].FinishTime
	fastest, fastestAlg := bf, core.AlgBestFit
	var worst time.Duration
	for _, alg := range res.Sweep.Algorithms {
		ft := res.Cells[alg][n].FinishTime
		if ft < fastest {
			fastest, fastestAlg = ft, alg
		}
		if ft > worst {
			worst = ft
		}
	}
	gap := 0.0
	if fastest > 0 {
		gap = float64(bf-fastest) / float64(fastest)
	}
	notes = append(notes, shapeNote(
		fmt.Sprintf("Best-Fit within 5%% of the fastest policy (%s) at %d containers (gap %.1f%%, spread to worst %.0fs)",
			fastestAlg, n, gap*100, seconds(worst-fastest)),
		gap < 0.05))
	// Fig. 8's starvation caveat, quantified at scale: does Best-Fit
	// pay for its packing with the worst average suspension?
	bfSusp := res.Cells[core.AlgBestFit][n].AvgSuspended
	maxSusp := time.Duration(0)
	for _, alg := range res.Sweep.Algorithms {
		if s := res.Cells[alg][n].AvgSuspended; s > maxSusp {
			maxSusp = s
		}
	}
	notes = append(notes, fmt.Sprintf(
		"Best-Fit average suspension at %d containers: %.0fs (worst policy: %.0fs) — the paper's Fig. 8 starvation caveat, 100x deeper queue",
		n, seconds(bfSusp), seconds(maxSusp)))
	stalls := 0
	for _, m := range res.Cells {
		for _, c := range m {
			stalls += c.Stalls
		}
	}
	notes = append(notes, shapeNote(fmt.Sprintf("no run wedged at scale (%d stalls)", stalls), stalls == 0))
	return notes
}
