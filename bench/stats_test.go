package main

import (
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"convgpu/internal/metrics"
)

func TestPctSortedMatchesPercentile(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, n := range []int{1, 2, 3, 10, 1001} {
		xs := make([]uint32, n)
		fs := make([]float64, n)
		for i := range xs {
			xs[i] = uint32(rng.Intn(1e6))
			fs[i] = float64(xs[i])
		}
		slices.Sort(xs)
		for _, p := range []float64{0, 0.5, 0.9, 0.99, 1} {
			if got, want := pctSorted(xs, p), metrics.Percentile(fs, p); math.Abs(got-want) > 1e-6 {
				t.Errorf("n=%d p=%v: got %v, want %v", n, p, got, want)
			}
		}
	}
	if pctSorted(nil, 0.5) != 0 {
		t.Error("empty input must read 0")
	}
}

// synthetic fills windows with latencies around 18 µs (tail to 40 µs)
// and, in the stalled windows, a burst of multi-millisecond stalls.
func synthetic(windows int, stalled map[int]bool) *sampler {
	rng := rand.New(rand.NewSource(7))
	s := newSampler(nil, refPingPong, windows, 100*time.Millisecond)
	for w := 0; w < windows; w++ {
		for i := 0; i < 2000; i++ {
			d := 18*time.Microsecond + time.Duration(rng.ExpFloat64()*float64(6*time.Microsecond))
			s.done(d)
		}
		if stalled[w] {
			for i := 0; i < 40; i++ {
				s.done(time.Duration(2+rng.Intn(6)) * time.Millisecond)
			}
		}
		s.closeWindow()
	}
	return s
}

func TestWindowMedianIgnoresStalls(t *testing.T) {
	quiet := synthetic(30, nil).result()
	noisy := synthetic(30, map[int]bool{3: true, 4: true, 17: true, 29: true}).result()
	for _, c := range []struct {
		name        string
		quiet, with float64
	}{{"p50", quiet.p50us, noisy.p50us}, {"p90", quiet.p90us, noisy.p90us}} {
		if rel := math.Abs(c.with/c.quiet - 1); rel > 0.01 {
			t.Errorf("window-median %s moved %.1f%% under stalls (%.3f → %.3f µs)", c.name, 100*rel, c.quiet, c.with)
		}
	}
	// The whole-run estimators the benchmark does not use do move.
	if noisy.maxus < 100*quiet.maxus/10 || noisy.stallShare < 0.3 {
		t.Errorf("stalls not visible where they should be: max %.0f µs, stall share %.2f", noisy.maxus, noisy.stallShare)
	}
	if quiet.stallShare != 0 {
		t.Errorf("quiet run reports stall share %v", quiet.stallShare)
	}
	if noisy.samples != 30*2000+4*40 || noisy.windows != 30 {
		t.Errorf("samples %d windows %d", noisy.samples, noisy.windows)
	}
}

// A machine that runs 1.5× slower for most of a run slows the operation
// and the reference alike: the value at reference speed must not move,
// the clock's reading must.
func TestReferenceScalingCancelsSlowPhases(t *testing.T) {
	run := func(slowFrom int) measured {
		rng := rand.New(rand.NewSource(3))
		s := newSampler(nil, refPingPong, 40, 100*time.Millisecond)
		for w := 0; w < 40; w++ {
			factor := 1.0
			if w >= slowFrom {
				factor = 1.5
			}
			for i := 0; i < 2000; i++ {
				d := 18*time.Microsecond + time.Duration(rng.ExpFloat64()*float64(6*time.Microsecond))
				s.done(time.Duration(float64(d) * factor))
			}
			s.closeWindow()
			s.wins[w].ref = ref0[refPingPong] * factor * (1 + 0.02*rng.NormFloat64())
		}
		return s.result()
	}
	quiet, slow := run(40), run(10)
	if rel := math.Abs(slow.p50us/quiet.p50us - 1); rel > 0.01 {
		t.Errorf("p50 at reference speed moved %.1f%% (%.2f → %.2f µs)", 100*rel, quiet.p50us, slow.p50us)
	}
	if rel := math.Abs(slow.p90us/quiet.p90us - 1); rel > 0.02 {
		t.Errorf("p90 at reference speed moved %.1f%%", 100*rel)
	}
	if slow.rawP50us < 1.4*quiet.rawP50us {
		t.Errorf("the clock's p50 should show the slow phase: %.2f vs %.2f µs", slow.rawP50us, quiet.rawP50us)
	}
}

// Every window is workload and reference by turns: each holds samples of
// both, whichever reference the workload is scaled by.
func TestRunInterleavesReference(t *testing.T) {
	dir := filepath.Join(runRoot, fmt.Sprint("stats", os.Getpid()))
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	defer os.RemoveAll(dir)
	calib, err := newCalibrator(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer calib.close()
	for _, kind := range []refKind{refPingPong, refFsync} {
		s := newSampler(calib, kind, 2, time.Second)
		s.run(2, 2*slice, func() (time.Duration, error) {
			time.Sleep(time.Millisecond)
			return time.Millisecond, nil
		})
		if len(s.wins) != 2 {
			t.Fatalf("reference %d: %d windows, want 2", kind, len(s.wins))
		}
		for i, w := range s.wins {
			if w.n < 2 || w.ref <= 0 || w.p50 < 1e6 {
				t.Errorf("reference %d window %d: %d samples, p50 %v ns, reference %v ns", kind, i, w.n, w.p50, w.ref)
			}
		}
		if m := s.result(); m.p50us <= 0 || m.failed != 0 {
			t.Errorf("reference %d: p50 %v us at reference speed, %d failed", kind, m.p50us, m.failed)
		}
	}
}

func TestSamplerCountsDeadlineMissesAndErrors(t *testing.T) {
	s := newSampler(nil, refPingPong, 1, time.Millisecond)
	s.done(10 * time.Microsecond)
	s.done(2 * time.Millisecond) // over the deadline
	s.fail(errHandoffTimeout)
	s.closeWindow()
	m := s.result()
	if m.attempted != 3 || m.failed != 2 || m.samples != 2 {
		t.Errorf("attempted %d failed %d samples %d, want 3 2 2", m.attempted, m.failed, m.samples)
	}
	if s.firstErr != errHandoffTimeout {
		t.Errorf("first error %v", s.firstErr)
	}
}

func TestSeriesCountsWhatItDrops(t *testing.T) {
	s := newSeries(4)
	for i := 0; i < 10; i++ {
		s.add(int64(i))
	}
	s.add(-5)
	if s.n() != 11 || len(s.xs) != 4 || s.dropped != 7 {
		t.Errorf("n %d kept %d dropped %d", s.n(), len(s.xs), s.dropped)
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if q1, q3 := quartiles(xs); q1 != 2.75 || q3 != 8.25 {
		t.Errorf("quartiles %v %v, want 2.75 8.25", q1, q3)
	}
	// statistics.quantiles([1, 2, 4, 8, 16], n=4) == [1.5, 4.0, 12.0]
	if q1, q3 := quartiles([]float64{1, 2, 4, 8, 16}); q1 != 1.5 || q3 != 12 {
		t.Errorf("quartiles %v %v, want 1.5 12", q1, q3)
	}
}
