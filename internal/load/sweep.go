package load

import (
	"context"
	"fmt"
	"time"
)

// PolicyPair is one (wake, placement) combination under test.
type PolicyPair struct {
	Wake  string
	Place string
}

// generateAt produces the scenario's request stream at an offered-load
// multiplier: the arrival process runs loadX times faster while
// classes, service times and deadline budgets stay identical (the
// class/type stream is seeded independently of arrival instants).
func generateAt(scn Scenario, loadX float64) ([]Request, error) {
	if loadX <= 0 {
		return nil, fmt.Errorf("load: non-positive load multiplier %g", loadX)
	}
	scn = scn.withDefaults()
	scn.MeanSpacing = time.Duration(float64(scn.MeanSpacing) / loadX)
	if scn.MeanSpacing <= 0 {
		return nil, fmt.Errorf("load: load multiplier %g collapses arrival spacing", loadX)
	}
	return scn.Generate()
}

// sweep runs every (load multiplier × pair) cell of one path through run
// and collects the runs into sec. Cells run sequentially and each is
// seeded from the scenario unless base carries a seed.
func sweep(scn Scenario, pairs []PolicyPair, loads []float64, base Config, sec Section,
	run func([]Request, Config) (RunResult, error)) (Section, error) {
	scn = scn.withDefaults()
	if len(loads) == 0 {
		loads = []float64{1}
	}
	for _, loadX := range loads {
		reqs, err := generateAt(scn, loadX)
		if err != nil {
			return Section{}, err
		}
		for _, p := range pairs {
			cfg := base
			cfg.Wake = p.Wake
			cfg.Place = p.Place
			if cfg.Seed == 0 {
				cfg.Seed = scn.Seed
			}
			res, err := run(reqs, cfg)
			if err != nil {
				return Section{}, fmt.Errorf("load: %s %s/%s@%g: %w", sec.Path, p.Wake, p.Place, loadX, err)
			}
			sec.Runs = append(sec.Runs, BuildRunReport(p.Wake, p.Place, loadX, res))
		}
	}
	return sec, nil
}

// RunInProcessSweep runs every (pair × load multiplier) cell on the
// in-process virtual-clock path and returns the report section.
// Deterministic: the same inputs yield the identical section.
func RunInProcessSweep(ctx context.Context, scn Scenario, pairs []PolicyPair, loads []float64, ecfg Config) (Section, error) {
	return sweep(scn, pairs, loads, ecfg, Section{Path: "inprocess", Deterministic: true, TimeScale: 1},
		func(reqs []Request, cfg Config) (RunResult, error) { return RunInProcess(ctx, reqs, cfg) })
}

// RunWireSweep is RunInProcessSweep over the daemon+IPC wire path.
// Timings are real (compressed by wcfg.TimeScale), so the section is
// marked non-deterministic.
func RunWireSweep(ctx context.Context, scn Scenario, pairs []PolicyPair, loads []float64, wcfg WireConfig) (Section, error) {
	wcfg = wcfg.withDefaults()
	return sweep(scn, pairs, loads, wcfg.Config, Section{Path: "wire", TimeScale: wcfg.TimeScale},
		func(reqs []Request, cfg Config) (RunResult, error) {
			w := wcfg
			w.Config = cfg
			return RunWire(ctx, reqs, w)
		})
}

// NewReport assembles the report envelope for a scenario.
func NewReport(scn Scenario, devices int, sections ...Section) *Report {
	scn = scn.withDefaults()
	r := &Report{
		Schema:     ReportSchema,
		Scenario:   scn.Name,
		Seed:       scn.Seed,
		Arrival:    string(scn.Arrival),
		Containers: scn.Containers,
		Devices:    devices,
		Sections:   sections,
	}
	r.SortRuns()
	return r
}
