// Package experiments regenerates every table and figure of the paper's
// evaluation (Section IV), plus the ablations DESIGN.md calls out and
// the future-work extensions. Each experiment returns a Report that the
// convgpu-bench command renders.
package experiments

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"convgpu/internal/metrics"
)

// Report is one experiment's rendered outcome.
type Report struct {
	// ID is the experiment id ("fig4", "table3", ...).
	ID string
	// Title describes the paper artifact being regenerated.
	Title string
	// Tables holds numeric grids (paper tables and figure data series).
	Tables []*metrics.Table
	// Bars holds bar-chart views (the paper's Fig. 4/5/6 are bars).
	Bars []*metrics.Bar
	// Notes records shape checks against the paper's claims and any
	// caveats (absolute numbers are not expected to match a 2017
	// testbed).
	Notes []string
}

// Render writes the report as text.
func (r *Report) Render(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "=== %s: %s ===\n", r.ID, r.Title); err != nil {
		return err
	}
	for _, b := range r.Bars {
		if err := b.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, t := range r.Tables {
		if err := t.Render(w); err != nil {
			return err
		}
		fmt.Fprintln(w)
	}
	for _, n := range r.Notes {
		if _, err := fmt.Fprintf(w, "note: %s\n", n); err != nil {
			return err
		}
	}
	return nil
}

// CSV writes every table of the report as CSV blocks.
func (r *Report) CSV(w io.Writer) error {
	for _, t := range r.Tables {
		if _, err := fmt.Fprintf(w, "# %s\n", t.Title); err != nil {
			return err
		}
		if err := t.CSV(w); err != nil {
			return err
		}
	}
	return nil
}

// Options tunes experiment cost.
type Options struct {
	// Quick shrinks repetitions and sweep sizes for CI-speed runs.
	Quick bool
}

// runner is an experiment entry point.
type runner func(Options) (*Report, error)

var registry = map[string]runner{}
var descriptions = map[string]string{}

func register(id, desc string, fn runner) {
	registry[id] = fn
	descriptions[id] = desc
}

// IDs lists the experiment ids in stable order.
func IDs() []string {
	out := make([]string, 0, len(registry))
	for id := range registry {
		out = append(out, id)
	}
	sort.Strings(out)
	return out
}

// Describe returns the one-line description of an experiment id.
func Describe(id string) string { return descriptions[id] }

// Run executes one experiment by id ("all" runs every one and returns a
// merged report).
func Run(id string, opt Options) (*Report, error) {
	if strings.EqualFold(id, "all") {
		merged := &Report{ID: "all", Title: "every experiment"}
		for _, eid := range IDs() {
			r, err := registry[eid](opt)
			if err != nil {
				return nil, fmt.Errorf("experiment %s: %w", eid, err)
			}
			merged.Tables = append(merged.Tables, r.Tables...)
			merged.Bars = append(merged.Bars, r.Bars...)
			for _, n := range r.Notes {
				merged.Notes = append(merged.Notes, eid+": "+n)
			}
		}
		return merged, nil
	}
	fn, ok := registry[strings.ToLower(id)]
	if !ok {
		return nil, fmt.Errorf("experiments: unknown experiment %q (have %s)", id, strings.Join(IDs(), ", "))
	}
	return fn(opt)
}
