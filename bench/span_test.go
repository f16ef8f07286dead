package main

import "testing"

func TestSelfTimes(t *testing.T) {
	tr := newTracer()
	// op ⊃ {a ⊃ {a1}, b, z (zero length), o (overlaps b)}
	op := tr.open("op", "bench", 1, -1, 0)
	a := tr.open("a", "x", 1, op, 10)
	tr.add("a1", "y", 1, a, 12, 20)
	tr.close(a, 40)
	tr.add("b", "x", 1, op, 40, 70)
	tr.add("z", "x", 1, op, 75, 75)
	tr.add("o", "x", 1, op, 60, 80)
	tr.close(op, 100)
	// A second operation with no children at all.
	tr.add("op", "bench", 2, -1, 200, 250)

	selfTimes(tr.spans)
	want := map[string]int64{"a": 22, "a1": 8, "b": 30, "z": 0, "o": 20}
	for _, s := range tr.spans {
		if s.Name == "op" {
			continue
		}
		if s.Self != want[s.Name] {
			t.Errorf("%s: self %d, want %d", s.Name, s.Self, want[s.Name])
		}
	}
	// op 1: 100 long, children cover [10,40] ∪ [40,70] ∪ [70,80] = 70.
	if got := tr.spans[op].Self; got != 30 {
		t.Errorf("op: self %d, want 30", got)
	}
	// Coverage over both ops: 1 − (30+50)/(100+50).
	if got, want := coverage(tr.spans, "op"), 1-80.0/150; got != want {
		t.Errorf("coverage %v, want %v", got, want)
	}
	if got := selfByLayer(tr.spans); got["x"] != 22+30+0+20 || got["y"] != 8 || got["bench"] != 80 {
		t.Errorf("self by layer %v", got)
	}
}

func TestTracerKeepsNoMoreThanItsLimit(t *testing.T) {
	tr := newTracer()
	tr.limit = 2
	tr.add("a", "x", 1, -1, 0, 1)
	tr.add("b", "x", 2, -1, 1, 2)
	if id := tr.open("c", "x", 3, -1, 2); id != -1 {
		t.Errorf("span kept past the limit: id %d", id)
	}
	tr.close(-1, 3)
	if len(tr.spans) != 2 || tr.dropped != 1 {
		t.Errorf("kept %d dropped %d", len(tr.spans), tr.dropped)
	}
	var off *tracer
	off.add("a", "x", 1, -1, 0, 1) // a nil tracer records nothing
	if off.now() < 0 {
		t.Error("nil tracer has no clock")
	}
}
