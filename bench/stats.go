package main

import (
	"fmt"
	"slices"
	"time"

	"convgpu/internal/metrics"
)

// pctSorted is the p-quantile (0..1) of ascending xs by linear
// interpolation — metrics.Percentile without the copy and the sort, so a
// window of 50k samples is summarised without allocating.
func pctSorted(xs []uint32, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	pos := p * float64(len(xs)-1)
	lo := int(pos)
	if lo+1 >= len(xs) {
		return float64(xs[len(xs)-1])
	}
	frac := pos - float64(lo)
	return float64(xs[lo])*(1-frac) + float64(xs[lo+1])*frac
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

// series is a preallocated bag of durations in nanoseconds; samples past
// its capacity are counted but not kept.
type series struct {
	xs      []uint32
	dropped int
}

func newSeries(capacity int) *series { return &series{xs: make([]uint32, 0, capacity)} }

func (s *series) add(ns int64) {
	if len(s.xs) == cap(s.xs) {
		s.dropped++
		return
	}
	if ns < 0 {
		ns = 0
	}
	if ns > 1<<32-1 {
		ns = 1<<32 - 1
	}
	s.xs = append(s.xs, uint32(ns))
}

func (s *series) n() int { return len(s.xs) + s.dropped }

// pct sorts the kept samples in place and returns their p-quantile in ns.
func (s *series) pct(p float64) float64 {
	slices.Sort(s.xs)
	return pctSorted(s.xs, p)
}

// winStat summarises one timed window, in nanoseconds.
type winStat struct {
	n                  int
	p50, p90, p99, max float64
	sum                float64
	// stall is the time spent in operations slower than stallFactor
	// times the window's median: hypervisor and scheduler stalls.
	stall float64
	// ref is the reference operation's median over the slices of
	// reference work inside the window; rss the resident set at its end.
	ref, rss float64
}

const stallFactor = 20

// sampler records the latency of one closed-loop client window by
// window, and within each window the speed of the machine (calib.go).
// All memory is allocated up front; done and closeWindow do not
// allocate, so the garbage collector sees only the system's own garbage.
type sampler struct {
	cur      *series
	wins     []winStat
	deadline time.Duration
	calib    *calibrator
	kind     refKind

	attempted, failed int64
	firstErr          error
	elapsed           time.Duration
}

// slice is the stretch of a window after which the reference runs: a
// window is whole slices, each the workload first and the reference last.
const slice = 50 * time.Millisecond

// samplerCap bounds one window's kept samples (4 MiB): a one-second
// window holds 55k malloc+free cycles today and would need a 1 µs cycle
// to overflow.
const samplerCap = 1 << 20

func newSampler(calib *calibrator, kind refKind, windows int, deadline time.Duration) *sampler {
	s := &sampler{cur: newSeries(samplerCap), wins: make([]winStat, 0, windows), deadline: deadline, calib: calib, kind: kind}
	// Touch every page now so the resident set does not grow with the
	// number of samples a faster system produces.
	s.cur.xs = s.cur.xs[:cap(s.cur.xs)]
	clear(s.cur.xs)
	s.cur.xs = s.cur.xs[:0]
	return s
}

// done records one completed operation; one slower than the deadline
// counts as failed. The deadlines are those of a hung operation, seconds:
// this machine's host stops a VM for 100 ms now and then, which is not a
// failure of the code under test.
func (s *sampler) done(d time.Duration) {
	s.attempted++
	if d > s.deadline {
		s.failed++
	}
	s.cur.add(int64(d))
}

// fail records one operation that returned an error.
func (s *sampler) fail(err error) {
	s.attempted++
	s.failed++
	if s.firstErr == nil {
		s.firstErr = err
	}
}

// closeWindow summarises the window's samples and measures the
// reference; without a calibrator the machine counts as at reference speed.
func (s *sampler) closeWindow() {
	xs := s.cur.xs
	slices.Sort(xs)
	w := winStat{n: s.cur.n(), p50: pctSorted(xs, 0.5), p90: pctSorted(xs, 0.9), p99: pctSorted(xs, 0.99), ref: ref0[s.kind]}
	if s.calib != nil {
		w.ref = s.calib.median()
	}
	w.rss = residentMiB()
	for _, x := range xs {
		w.sum += float64(x)
		if float64(x) > stallFactor*w.p50 {
			w.stall += float64(x)
		}
	}
	if len(xs) > 0 {
		w.max = float64(xs[len(xs)-1])
	}
	s.wins = append(s.wins, w)
	s.cur.xs, s.cur.dropped = xs[:0], 0
}

// run drives op in a closed loop for the given number of windows, each
// of the given length including its reference work. op returns the
// latency it measured, which need not be its whole duration.
func (s *sampler) run(windows int, length time.Duration, op func() (time.Duration, error)) {
	parts := max(int(length/slice), 1)
	for w := 0; w < windows; w++ {
		start := time.Now()
		if s.calib != nil {
			s.calib.begin()
		}
		for i := 1; i <= parts; i++ {
			end := start.Add(length*time.Duration(i)/time.Duration(parts) - refSlice[s.kind])
			for first := true; first || time.Now().Before(end); first = false {
				if d, err := op(); err != nil {
					s.fail(err)
				} else {
					s.done(d)
				}
			}
			if s.calib != nil {
				s.calib.slice(s.kind, refSlice[s.kind])
			}
		}
		s.elapsed += time.Since(start)
		s.closeWindow()
	}
}

// overWindows is a quantile across windows of one per-window statistic:
// the kind of estimator every reported latency uses, because a
// millisecond stall moves one window's tail but not the median of a
// hundred windows.
func (s *sampler) overWindows(q float64, f func(winStat) float64) float64 {
	vals := make([]float64, len(s.wins))
	for i, w := range s.wins {
		vals[i] = f(w)
	}
	return metrics.Percentile(vals, q)
}

// atRefSpeed is a statistic scaled, window by window, to the reference
// speed, in µs: the quantile across windows that suits the reference.
func (s *sampler) atRefSpeed(f func(winStat) float64) float64 {
	return s.overWindows(acrossWindows[s.kind], func(w winStat) float64 { return f(w) / w.ref }) * ref0[s.kind] / 1e3
}

func (s *sampler) samples() (n int) {
	for _, w := range s.wins {
		n += w.n
	}
	return n
}

// measured is what a timed phase reports for its operation. The
// percentiles are at reference speed; the raw ones are as the clock read.
type measured struct {
	p50us, p90us, p99us   float64
	rawP50us, rawP90us    float64
	refus, maxus, rssMiB  float64
	opsPerSec, stallShare float64
	samples, windows      int
	attempted, failed     int64
}

// printWindows shows each window's median, tail and reference, so that
// an outlying run can be told apart from an outlying window.
func (s *sampler) printWindows() {
	fmt.Print("# per-window p50/p90/reference us:")
	for _, w := range s.wins {
		fmt.Printf(" %.1f/%.1f/%.2f", w.p50/1e3, w.p90/1e3, w.ref/1e3)
	}
	fmt.Println()
}

func (s *sampler) result() measured {
	m := measured{
		p50us:     s.atRefSpeed(func(w winStat) float64 { return w.p50 }),
		p90us:     s.atRefSpeed(func(w winStat) float64 { return w.p90 }),
		p99us:     s.atRefSpeed(func(w winStat) float64 { return w.p99 }),
		rawP50us:  s.overWindows(0.5, func(w winStat) float64 { return w.p50 }) / 1e3,
		rawP90us:  s.overWindows(0.5, func(w winStat) float64 { return w.p90 }) / 1e3,
		refus:     s.overWindows(0.5, func(w winStat) float64 { return w.ref }) / 1e3,
		rssMiB:    s.overWindows(0.5, func(w winStat) float64 { return w.rss }),
		samples:   s.samples(),
		windows:   len(s.wins),
		attempted: s.attempted,
		failed:    s.failed,
	}
	var sum, stall float64
	for _, w := range s.wins {
		m.maxus = max(m.maxus, w.max/1e3)
		sum += w.sum
		stall += w.stall
	}
	if sum > 0 {
		m.stallShare = stall / sum
	}
	if s.elapsed > 0 {
		m.opsPerSec = float64(m.samples) / s.elapsed.Seconds()
	}
	return m
}
