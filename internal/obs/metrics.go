// Package obs is ConVGPU's runtime observability layer: lock-free
// counters and fixed-bucket latency histograms for the scheduler's hot
// path, a ring-buffer event tracer with per-container causal ordering,
// and the renderers (Prometheus text, JSON) behind the documents
// internal/admin serves under /v1.
//
// Everything a hot path touches is a plain atomic operation: recording
// a counter increment or a histogram observation allocates nothing and
// takes no lock, so the 0 allocs/op accept path of DESIGN.md §7 is
// preserved with observability enabled. Aggregation cost — snapshots,
// JSON rendering, gauge evaluation — is paid only when somebody asks
// (a /v1/stats request, a /v1/metrics scrape).
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math/bits"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing value. The zero Counter is
// ready to use; all methods are safe for concurrent use and lock-free.
type Counter struct{ v atomic.Uint64 }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n.
func (c *Counter) Add(n uint64) { c.v.Add(n) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.v.Load() }

// HistBuckets is the number of exponential latency buckets. Bucket i
// holds observations at or below 1µs·2^i, so the range spans 1µs to
// ~16s before the overflow bucket — wide enough for a 35µs paper-scale
// API call and for a multi-second suspension alike.
const HistBuckets = 25

// Histogram is a fixed-bucket latency histogram: exponential bucket
// bounds, atomic counters, no locks, no allocation per observation.
// The zero Histogram is ready to use.
type Histogram struct {
	counts [HistBuckets + 1]atomic.Uint64 // +1: overflow bucket; their sum is the count
	sum    atomic.Int64                   // nanoseconds
}

// Observe records one duration: one atomic add, two when it is not zero.
func (h *Histogram) Observe(d time.Duration) {
	ns := max(d.Nanoseconds(), 0)
	h.counts[bucketOf(ns)].Add(1)
	if ns > 0 {
		h.sum.Add(ns)
	}
}

// bucketOf maps nanoseconds to a bucket index: the smallest i with
// ns <= 1000<<i, computed with one bit-length instruction.
func bucketOf(ns int64) int {
	us := uint64(ns) / 1000
	if us <= 1 {
		return 0
	}
	i := bits.Len64(us - 1) // ceil(log2(us))
	if i > HistBuckets {
		return HistBuckets
	}
	return i
}

// BucketBound returns the inclusive upper bound of bucket i; the last
// bucket (index HistBuckets) is unbounded.
func BucketBound(i int) time.Duration {
	return time.Microsecond << i
}

// Count returns the number of observations.
func (h *Histogram) Count() uint64 {
	var n uint64
	for i := range h.counts {
		n += h.counts[i].Load()
	}
	return n
}

// Sum returns the total observed time.
func (h *Histogram) Sum() time.Duration { return time.Duration(h.sum.Load()) }

// HistogramSnapshot is a point-in-time copy of a histogram.
type HistogramSnapshot struct {
	Count   uint64   `json:"count"`
	SumNs   int64    `json:"sum_ns"`
	Buckets []uint64 `json:"buckets"` // cumulative is derived by readers
}

// Snapshot copies the histogram. The per-bucket loads are not mutually
// atomic — a scrape racing observations may be off by in-flight ops —
// which is the standard contract for lock-free metric export.
func (h *Histogram) Snapshot() HistogramSnapshot {
	s := HistogramSnapshot{SumNs: h.sum.Load(), Buckets: make([]uint64, len(h.counts))}
	for i := range h.counts {
		s.Buckets[i] = h.counts[i].Load()
		s.Count += s.Buckets[i]
	}
	return s
}

// Labels attaches dimensions (e.g. algorithm, socket) to a metric.
type Labels map[string]string

// render produces the canonical `{k="v",...}` form, keys sorted, so a
// (name, labels) pair has exactly one identity in the registry.
func (l Labels) render() string {
	if len(l) == 0 {
		return ""
	}
	keys := make([]string, 0, len(l))
	for k := range l {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	b.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, "%s=%q", k, l[k])
	}
	b.WriteByte('}')
	return b.String()
}

// metricKind discriminates registry entries.
type metricKind string

const (
	kindCounter   metricKind = "counter"
	kindGauge     metricKind = "gauge"
	kindHistogram metricKind = "histogram"
)

// metricItem is one registered metric.
type metricItem struct {
	name   string
	help   string
	labels Labels
	lstr   string // rendered labels, the identity suffix
	kind   metricKind

	counter *Counter
	hist    *Histogram
	gauge   func() int64
}

// Registry holds named metrics for export. Registration is idempotent
// on (name, labels): re-registering returns (or, for gauges, replaces)
// the existing entry, so a restarted daemon can rebind a long-lived
// registry without duplicating series.
type Registry struct {
	mu    sync.Mutex
	items []*metricItem
	index map[string]*metricItem // name + rendered labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{index: make(map[string]*metricItem)}
}

func (r *Registry) upsert(name, help string, labels Labels, kind metricKind) *metricItem {
	key := name + labels.render()
	if it, ok := r.index[key]; ok {
		return it
	}
	it := &metricItem{name: name, help: help, labels: labels, lstr: labels.render(), kind: kind}
	switch kind {
	case kindCounter:
		it.counter = &Counter{}
	case kindHistogram:
		it.hist = &Histogram{}
	}
	r.items = append(r.items, it)
	r.index[key] = it
	return it
}

// NewCounter registers (or retrieves) a counter.
func (r *Registry) NewCounter(name, help string, labels Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.upsert(name, help, labels, kindCounter).counter
}

// NewHistogram registers (or retrieves) a latency histogram.
func (r *Registry) NewHistogram(name, help string, labels Labels) *Histogram {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.upsert(name, help, labels, kindHistogram).hist
}

// GaugeFunc registers a gauge evaluated at export time — the natural
// shape for values the scheduler already maintains exactly (pool bytes,
// queue depth): zero hot-path cost, always-consistent reads. Re-register
// to replace the function (e.g. after a daemon restart swaps the core).
func (r *Registry) GaugeFunc(name, help string, labels Labels, fn func() int64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	it := r.upsert(name, help, labels, kindGauge)
	it.gauge = fn
}

// snapshotItems copies the item list so export can run without the lock.
func (r *Registry) snapshotItems() []*metricItem {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]*metricItem, len(r.items))
	copy(out, r.items)
	return out
}

// MetricPoint is one metric in a JSON snapshot.
type MetricPoint struct {
	Name   string             `json:"name"`
	Kind   string             `json:"kind"`
	Labels Labels             `json:"labels,omitempty"`
	Value  int64              `json:"value,omitempty"`     // counter, gauge
	Hist   *HistogramSnapshot `json:"histogram,omitempty"` // histogram
}

// Snapshot returns every registered metric's current value, in
// registration order.
func (r *Registry) Snapshot() []MetricPoint {
	items := r.snapshotItems()
	out := make([]MetricPoint, 0, len(items))
	for _, it := range items {
		p := MetricPoint{Name: it.name, Kind: string(it.kind), Labels: it.labels}
		switch it.kind {
		case kindCounter:
			p.Value = int64(it.counter.Value())
		case kindGauge:
			if it.gauge != nil {
				p.Value = it.gauge()
			}
		case kindHistogram:
			s := it.hist.Snapshot()
			p.Hist = &s
		}
		out = append(out, p)
	}
	return out
}

// MarshalJSON renders the snapshot (Registry serializes as its points).
func (r *Registry) MarshalJSON() ([]byte, error) {
	return json.Marshal(r.Snapshot())
}

// WritePrometheus renders every metric in the Prometheus text exposition
// format (counters and gauges as single samples, histograms as
// cumulative _bucket/_sum/_count series with `le` in seconds).
func (r *Registry) WritePrometheus(w io.Writer) error {
	seen := make(map[string]bool)
	for _, it := range r.snapshotItems() {
		if !seen[it.name] {
			seen[it.name] = true
			if it.help != "" {
				if _, err := fmt.Fprintf(w, "# HELP %s %s\n", it.name, it.help); err != nil {
					return err
				}
			}
			if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", it.name, it.kind); err != nil {
				return err
			}
		}
		switch it.kind {
		case kindCounter:
			if _, err := fmt.Fprintf(w, "%s%s %d\n", it.name, it.lstr, it.counter.Value()); err != nil {
				return err
			}
		case kindGauge:
			var v int64
			if it.gauge != nil {
				v = it.gauge()
			}
			if _, err := fmt.Fprintf(w, "%s%s %d\n", it.name, it.lstr, v); err != nil {
				return err
			}
		case kindHistogram:
			if err := writePromHistogram(w, it); err != nil {
				return err
			}
		}
	}
	return nil
}

// writePromHistogram emits the cumulative bucket series for one
// histogram item.
func writePromHistogram(w io.Writer, it *metricItem) error {
	s := it.hist.Snapshot()
	var cum uint64
	for i, c := range s.Buckets {
		cum += c
		le := "+Inf"
		if i < HistBuckets {
			le = fmt.Sprintf("%g", BucketBound(i).Seconds())
		}
		if err := writePromSample(w, it.name+"_bucket", it.labels, "le", le, cum); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%s_sum%s %g\n", it.name, it.lstr,
		time.Duration(s.SumNs).Seconds()); err != nil {
		return err
	}
	_, err := fmt.Fprintf(w, "%s_count%s %d\n", it.name, it.lstr, s.Count)
	return err
}

// writePromSample emits one sample with the item's labels plus one
// extra label (the histogram `le`).
func writePromSample(w io.Writer, name string, labels Labels, extraK, extraV string, v uint64) error {
	merged := make(Labels, len(labels)+1)
	for k, val := range labels {
		merged[k] = val
	}
	merged[extraK] = extraV
	_, err := fmt.Fprintf(w, "%s%s %d\n", name, merged.render(), v)
	return err
}
