package obs

import (
	"encoding/json"
	"fmt"
	"strings"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
)

func TestCounter(t *testing.T) {
	var c Counter
	if c.Value() != 0 {
		t.Fatalf("zero Counter = %d", c.Value())
	}
	c.Inc()
	c.Add(4)
	if c.Value() != 5 {
		t.Fatalf("Counter = %d, want 5", c.Value())
	}
}

func TestHistogramBuckets(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want int
	}{
		{0, 0},
		{500 * time.Nanosecond, 0},
		{time.Microsecond, 0},
		{time.Microsecond + 1, 0}, // sub-µs truncation: resolution is 1µs
		{2 * time.Microsecond, 1},
		{3 * time.Microsecond, 2},
		{4 * time.Microsecond, 2},
		{time.Millisecond, 10}, // 1024µs bound
		{time.Second, 20},      // ~1.05s bound
		{time.Hour, HistBuckets},
	}
	for _, tc := range cases {
		if got := bucketOf(tc.d.Nanoseconds()); got != tc.want {
			t.Errorf("bucketOf(%v) = %d, want %d", tc.d, got, tc.want)
		}
	}
	// Every bucket's bound must actually contain what bucketOf sends it.
	for i := 0; i < HistBuckets; i++ {
		if got := bucketOf(BucketBound(i).Nanoseconds()); got > i {
			t.Errorf("BucketBound(%d)=%v lands in bucket %d", i, BucketBound(i), got)
		}
	}
}

func TestHistogramObserve(t *testing.T) {
	var h Histogram
	h.Observe(-time.Second) // clamped to 0, lands in bucket 0
	if h.Snapshot().Buckets[0] != 1 || h.Sum() != 0 {
		t.Fatalf("negative observation not clamped: %+v", h.Snapshot())
	}
	h = Histogram{}
	h.Observe(time.Microsecond)
	h.Observe(2 * time.Microsecond)
	h.Observe(time.Hour) // overflow bucket
	if h.Count() != 3 {
		t.Fatalf("Count = %d, want 3", h.Count())
	}
	if want := time.Hour + 3*time.Microsecond; h.Sum() != want {
		t.Fatalf("Sum = %v, want %v", h.Sum(), want)
	}
	s := h.Snapshot()
	if s.Buckets[0] != 1 || s.Buckets[1] != 1 || s.Buckets[HistBuckets] != 1 {
		t.Fatalf("bucket spread = %v", s.Buckets)
	}
}

func TestRegistryIdempotent(t *testing.T) {
	r := NewRegistry()
	a := r.NewCounter("x_total", "help", Labels{"k": "v"})
	b := r.NewCounter("x_total", "help", Labels{"k": "v"})
	if a != b {
		t.Fatal("re-registering the same (name, labels) returned a new counter")
	}
	c := r.NewCounter("x_total", "help", Labels{"k": "w"})
	if a == c {
		t.Fatal("distinct labels shared a counter")
	}
	// Gauge re-registration replaces the function (daemon-restart rebind).
	r.GaugeFunc("g", "", nil, func() int64 { return 1 })
	r.GaugeFunc("g", "", nil, func() int64 { return 2 })
	for _, p := range r.Snapshot() {
		if p.Name == "g" && p.Value != 2 {
			t.Fatalf("gauge after rebind = %d, want 2", p.Value)
		}
	}
}

func TestWritePrometheus(t *testing.T) {
	r := NewRegistry()
	r.NewCounter("convgpu_test_total", "A counter.", Labels{"algorithm": "fifo"}).Add(7)
	r.GaugeFunc("convgpu_test_gauge", "A gauge.", nil, func() int64 { return 42 })
	h := r.NewHistogram("convgpu_test_seconds", "A histogram.", Labels{"socket": "control"})
	h.Observe(3 * time.Microsecond)
	h.Observe(time.Hour)

	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	for _, want := range []string{
		"# TYPE convgpu_test_total counter",
		`convgpu_test_total{algorithm="fifo"} 7`,
		"convgpu_test_gauge 42",
		"# TYPE convgpu_test_seconds histogram",
		`convgpu_test_seconds_bucket{le="+Inf",socket="control"} 2`,
		`convgpu_test_seconds_count{socket="control"} 2`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("prometheus output missing %q:\n%s", want, out)
		}
	}
	// Buckets must be cumulative: the 4µs bucket already holds the 3µs
	// observation, and +Inf holds both.
	if !strings.Contains(out, `convgpu_test_seconds_bucket{le="4e-06",socket="control"} 1`) {
		t.Errorf("cumulative bucket missing:\n%s", out)
	}
}

func TestTracerCausalOrder(t *testing.T) {
	tr := NewTracer(16)
	at := time.Unix(0, 1000)
	tr.Record(at, "register", "a", 0, 0, 0, 0)
	tr.Record(at, "register", "b", 0, 0, 0, 0)
	tr.Record(at, "accept", "a", 1, 100, 0, 0)
	tr.Record(at, "close", "a", 0, 0, 0, 0)
	tr.EndContainer("a")
	tr.Record(at, "register", "a", 0, 0, 0, 0) // re-registered ID restarts

	evs := tr.Events("a")
	if len(evs) != 4 {
		t.Fatalf("filtered events = %d, want 4", len(evs))
	}
	wantCSeq := []uint64{1, 2, 3, 1}
	for i, e := range evs {
		if e.CSeq != wantCSeq[i] {
			t.Errorf("event %d (%s) cseq = %d, want %d", i, e.Kind, e.CSeq, wantCSeq[i])
		}
	}
	// Global order is total and increasing.
	all := tr.Events("")
	for i := 1; i < len(all); i++ {
		if all[i].Seq <= all[i-1].Seq {
			t.Fatalf("global seq not increasing: %v", all)
		}
	}
}

// TestTracerSlotAndCounterEdges covers what writing a slot in place and
// counting by pointer could get wrong: a scheduler event that lands on an
// admin event's slot inherits none of its fields, ending the container
// that recorded last restarts its causal order, and containers that take
// turns keep one continuous order each.
func TestTracerSlotAndCounterEdges(t *testing.T) {
	at := time.Unix(0, 5)

	tr := NewTracer(2)
	tr.RecordAdmin(at, "admin_drain", "req-1", "node 0")
	tr.Record(at, "accept", "a", 1, 10, 0, 0)
	tr.Record(at, "free", "a", 1, 10, 0, 0) // the ring wraps onto the admin slot
	for _, e := range tr.Events("") {
		if e.RequestID != "" || e.Detail != "" {
			t.Errorf("scheduler event %+v kept the overwritten admin event's fields", e)
		}
		if e.Container != "a" || e.At != 5 || e.PID != 1 || e.Amount != 10 {
			t.Errorf("event %+v lost a field", e)
		}
	}

	tr = NewTracer(16)
	tr.Record(at, "register", "a", 0, 0, 0, 0)
	tr.Record(at, "accept", "a", 1, 10, 0, 0)
	tr.EndContainer("a") // a recorded last
	tr.Record(at, "register", "a", 0, 0, 0, 0)
	if evs := tr.Events("a"); len(evs) != 3 || evs[2].CSeq != 1 {
		t.Errorf("after EndContainer of the container that recorded last: %+v, want cseq 1 last", evs)
	}

	tr = NewTracer(64)
	for i := 0; i < 10; i++ {
		tr.Record(at, "accept", "a", 1, 0, 0, 0)
		tr.Record(at, "accept", "b", 1, 0, 0, 0)
		tr.Record(at, "accept", "b", 1, 0, 0, 0)
		tr.RecordAdmin(at, "admin_compact", "", "")
	}
	for _, c := range []string{"a", "b"} {
		for i, e := range tr.Events(c) {
			if e.CSeq != uint64(i+1) {
				t.Fatalf("container %s event %d: cseq %d, want %d", c, i, e.CSeq, i+1)
			}
		}
	}
}

// TestTraceEventString pins the three shapes the daemon's -status tail
// prints: a scheduler event with and without a pid, and an admin verb.
func TestTraceEventString(t *testing.T) {
	for _, tc := range []struct {
		e    TraceEvent
		want string
	}{
		{TraceEvent{Seq: 7, Kind: "accept", Container: "c1", PID: 42, Amount: 10 << 20}, "#7 accept c1 pid=42 10MiB"},
		{TraceEvent{Seq: 8, Kind: "close", Container: "c1", Amount: 1 << 30}, "#8 close c1 1GiB"},
		{TraceEvent{Seq: 9, Kind: "admin_drain", RequestID: "req-1", Detail: "node 0"}, "#9 admin_drain node 0 req-1"},
	} {
		if got := tc.e.String(); got != tc.want {
			t.Errorf("String() = %q, want %q", got, tc.want)
		}
	}
}

func TestTracerWrapAndLimit(t *testing.T) {
	tr := NewTracer(4)
	at := time.Unix(0, 0)
	for i := 0; i < 10; i++ {
		tr.Record(at, "accept", "c", 1, int64(i), 0, 0)
	}
	if tr.Len() != 4 {
		t.Fatalf("Len = %d, want 4", tr.Len())
	}
	data, err := tr.DumpLimit("", 2)
	if err != nil {
		t.Fatal(err)
	}
	var d TraceDump
	if err := json.Unmarshal(data, &d); err != nil {
		t.Fatal(err)
	}
	if d.Total != 10 || d.Dropped != 6 {
		t.Fatalf("total=%d dropped=%d, want 10/6", d.Total, d.Dropped)
	}
	if len(d.Events) != 2 || d.Events[1].Seq != 10 {
		t.Fatalf("limited dump kept %v", d.Events)
	}
	// Disabled retention still assigns sequence numbers.
	off := NewTracer(-1)
	off.Record(at, "accept", "c", 1, 0, 0, 0)
	if off.Len() != 0 {
		t.Fatal("disabled tracer retained events")
	}
}

// mib sizes test allocations.
func mib(n int) bytesize.Size { return bytesize.Size(n) * bytesize.MiB }

func TestBindCoreCountsEvents(t *testing.T) {
	st := core.MustNew(core.Config{Capacity: mib(1000), ContextOverhead: 1})
	o := New(Config{Algorithm: "fifo"})
	o.BindCore(st)

	if _, err := st.Register("c1", mib(500)); err != nil {
		t.Fatal(err)
	}
	res, err := st.RequestAlloc("c1", 1, mib(100))
	if err != nil || res.Decision != core.Accept {
		t.Fatalf("alloc: %v %v", res.Decision, err)
	}
	if err := st.ConfirmAlloc("c1", 1, 0x1000, mib(100)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := st.Close("c1"); err != nil {
		t.Fatal(err)
	}

	if n := o.EventCount(core.EvRegister); n != 1 {
		t.Fatalf("register count = %d, want 1", n)
	}
	if n := o.EventCount(core.EvAccept); n != 1 {
		t.Fatalf("accept count = %d, want 1", n)
	}
	if n := o.EventCounts()["close"]; n != 1 {
		t.Fatalf("close count = %d, want 1", n)
	}
	// The trace mirrors the event log with causal order.
	evs := o.Tracer().Events("c1")
	if len(evs) == 0 || evs[0].Kind != "register" || evs[0].CSeq != 1 {
		t.Fatalf("trace = %+v", evs)
	}
	// Gauges read the live core: everything closed, pool fully free.
	var poolFree, containers int64 = -1, -1
	for _, p := range o.Registry().Snapshot() {
		switch p.Name {
		case MetricPoolFree:
			poolFree = p.Value
		case MetricContainers:
			containers = p.Value
		}
	}
	if poolFree != int64(mib(1000)) || containers != 0 {
		t.Fatalf("gauges: pool=%d containers=%d", poolFree, containers)
	}
}

func TestStatsJSON(t *testing.T) {
	st := core.MustNew(core.Config{Capacity: mib(100), ContextOverhead: 1})
	o := New(Config{Algorithm: "bestfit"})
	o.BindCore(st)
	if _, err := st.Register("c1", mib(50)); err != nil {
		t.Fatal(err)
	}

	data, err := o.StatsJSON()
	if err != nil {
		t.Fatal(err)
	}
	var p StatsPayload
	if err := json.Unmarshal(data, &p); err != nil {
		t.Fatal(err)
	}
	if p.Algorithm != "bestfit" || len(p.Metrics) == 0 {
		t.Fatalf("stats payload: %+v", p)
	}
}

// TestTracerSlotSharesTheNamedCounter: a scheduler event caches its
// container's causal counter in the core's slot, and an event recorded by
// name (the daemon's attach) counts on in the same sequence, either way
// round; a slot that comes empty (a new container, a new observer) finds
// the counter by name, and a closed container's next life starts at 1.
func TestTracerSlotSharesTheNamedCounter(t *testing.T) {
	tr := NewTracer(64)
	at := time.Unix(0, 5)
	var slot, fresh any
	tr.record(at, "register", "a", &slot, 0, 0, 0, 0)
	tr.Record(at, "attach", "a", 1, 0, 0, 0)
	tr.record(at, "accept", "a", &slot, 1, 10, 0, 0)
	tr.record(at, "free", "a", &fresh, 1, 10, 0, 0)
	tr.Record(at, "attach", "a", 2, 0, 0, 0)
	tr.record(at, "accept", "a", &slot, 1, 10, 0, 0)
	if slot == nil || slot != fresh {
		t.Errorf("slots hold %v and %v, want the one counter", slot, fresh)
	}
	tr.EndContainer("a")
	var next any
	tr.record(at, "register", "a", &next, 0, 0, 0, 0)
	var got []uint64
	for _, e := range tr.Events("a") {
		got = append(got, e.CSeq)
	}
	if want := "[1 2 3 4 5 6 1]"; fmt.Sprint(got) != want {
		t.Errorf("cseq %v, want %s", got, want)
	}
}
