package main

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around
// that layer's exported function. Spans of one operation share Req; the
// operation's own span has Parent -1.
type span struct {
	Name   string `json:"name"`
	Layer  string `json:"layer"`
	Req    int64  `json:"req"`
	ID     int32  `json:"id"`
	Parent int32  `json:"parent"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Self   int64  `json:"self_ns"`
}

// tracerCap bounds the spans kept in memory and written out (about
// 10k traced cycles); later spans are counted, not kept. The metrics do
// not depend on the cap: durations also go to per-step series.
const tracerCap = 1 << 16

// tracer keeps spans in memory until the run ends. A nil *tracer records
// nothing, so traced and untraced phases share one code path.
type tracer struct {
	t0    time.Time
	spans []span
	// limit is how many spans may be kept so far; a run with several
	// traced phases raises it phase by phase so each keeps its share.
	limit   int
	dropped int64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, tracerCap), limit: tracerCap}
}

// now is the trace clock: nanoseconds since the tracer was made, or
// since the process started when there is no tracer.
func (t *tracer) now() int64 {
	if t == nil {
		return int64(time.Since(processStart))
	}
	return int64(time.Since(t.t0))
}

var processStart = time.Now()

// open starts a span and returns its id, or -1 when nothing is kept.
func (t *tracer) open(name, layer string, req int64, parent int32, start int64) int32 {
	if t == nil {
		return -1
	}
	if len(t.spans) >= t.limit {
		t.dropped++
		return -1
	}
	id := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Layer: layer, Req: req, ID: id, Parent: parent, Start: start, End: start})
	return id
}

func (t *tracer) close(id int32, end int64) {
	if t != nil && id >= 0 {
		t.spans[id].End = end
	}
}

// add records a finished span.
func (t *tracer) add(name, layer string, req int64, parent int32, start, end int64) {
	t.close(t.open(name, layer, req, parent, start), end)
}

// selfTimes fills each span's Self: its duration minus the part of that
// interval its direct children cover (overlapping children count once).
func selfTimes(spans []span) {
	children := make(map[int32][]int32)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], s.ID)
		}
	}
	for i := range spans {
		p := &spans[i]
		kids := children[p.ID]
		sort.Slice(kids, func(a, b int) bool { return spans[kids[a]].Start < spans[kids[b]].Start })
		covered, edge := int64(0), p.Start
		for _, k := range kids {
			lo, hi := max(spans[k].Start, edge), min(spans[k].End, p.End)
			if hi > lo {
				covered += hi - lo
				edge = hi
			}
		}
		p.Self = (p.End - p.Start) - covered
	}
}

// coverage is the share of the named operation spans' time that their
// children account for: 1 − Σ self ÷ Σ duration. selfTimes must have run.
func coverage(spans []span, root string) float64 {
	var self, total int64
	for _, s := range spans {
		if s.Parent < 0 && s.Name == root {
			self += s.Self
			total += s.End - s.Start
		}
	}
	if total == 0 {
		return 0
	}
	return 1 - float64(self)/float64(total)
}

// selfByLayer sums self time per layer.
func selfByLayer(spans []span) map[string]int64 {
	out := make(map[string]int64)
	for _, s := range spans {
		out[s.Layer] += s.Self
	}
	return out
}

// write stores the kept spans as one JSON document.
func (t *tracer) write(path string) error {
	doc := struct {
		Dropped int64  `json:"dropped_spans"`
		Spans   []span `json:"spans"`
	}{t.dropped, t.spans}
	data, err := json.Marshal(doc)
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
