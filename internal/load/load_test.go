package load

import (
	"bytes"
	"context"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/model"
	"convgpu/internal/obs"
	"convgpu/internal/workload"
)

func smokeScenario(n int) Scenario {
	return Scenario{
		Name:        "smoke",
		Containers:  n,
		Seed:        20260808,
		Arrival:     ArrivalBursty,
		MeanSpacing: 2 * time.Second,
	}
}

// TestGenerateDeterministic: the same scenario yields the identical
// request stream, and every class appears under the default mix at a
// reasonable size.
func TestGenerateDeterministic(t *testing.T) {
	scn := smokeScenario(200)
	a, err := scn.Generate()
	if err != nil {
		t.Fatal(err)
	}
	b, err := scn.Generate()
	if err != nil {
		t.Fatal(err)
	}
	if len(a) != 200 || len(b) != 200 {
		t.Fatalf("got %d and %d requests", len(a), len(b))
	}
	seen := map[Class]int{}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("request %d differs between identical scenarios: %+v vs %+v", i, a[i], b[i])
		}
		seen[a[i].Class]++
		if a[i].Cycles < 1 || a[i].Service <= 0 || a[i].Slack <= 0 {
			t.Fatalf("request %d malformed: %+v", i, a[i])
		}
	}
	for _, c := range Classes() {
		if seen[c] == 0 {
			t.Errorf("class %s never drawn in 200 requests", c)
		}
	}
	if tr, _ := smokeScenario(200).Generate(); tr[5].Class != a[5].Class {
		t.Errorf("class stream not reproducible")
	}
}

// TestRunInProcessDeterministic: the full report of a small sweep is
// byte-identical across two runs with the same seed — the replay
// guarantee the wire path cannot give.
func TestRunInProcessDeterministic(t *testing.T) {
	run := func() []byte {
		scn := smokeScenario(80)
		sec, err := RunInProcessSweep(context.Background(), scn,
			[]PolicyPair{{"fifo", "leastloaded"}, {"bestfit", "bestfit"}, {"fairshare", "fragaware"}},
			[]float64{1, 4}, Config{Devices: 2})
		if err != nil {
			t.Fatal(err)
		}
		b, err := NewReport(scn, 2, sec).JSON()
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatalf("same seed produced different reports:\n--- run1 ---\n%s\n--- run2 ---\n%s", a, b)
	}
}

// TestRunInProcessOutcomes sanity-checks the measurements of one run:
// everything completes, admit waits appear once the load multiplier
// pushes past capacity, and deadlines behave monotonically with load.
func TestRunInProcessOutcomes(t *testing.T) {
	scn := smokeScenario(120)
	calm, err := generateAt(scn, 1)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), calm, Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatalf("calm run stalled")
	}
	rr := BuildRunReport("fifo", "leastloaded", 1, res)
	if rr.Incomplete != 0 {
		t.Fatalf("%d incomplete requests in calm run", rr.Incomplete)
	}
	if rr.AdmitLatency.N == 0 || rr.SuspendWait.N != 120 {
		t.Fatalf("tail populations wrong: admit %d suspend %d", rr.AdmitLatency.N, rr.SuspendWait.N)
	}
	if rr.GoodputPerSec <= 0 || rr.SLOAttainment <= 0 {
		t.Fatalf("no goodput measured: %+v", rr)
	}

	hot, err := generateAt(scn, 20)
	if err != nil {
		t.Fatal(err)
	}
	hres, err := RunInProcess(context.Background(), hot, Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	hrr := BuildRunReport("fifo", "leastloaded", 20, hres)
	if hrr.AdmitLatency.Max <= rr.AdmitLatency.Max {
		t.Errorf("20x load did not raise worst admit wait: calm %v hot %v", rr.AdmitLatency.Max, hrr.AdmitLatency.Max)
	}
	if hrr.SLOAttainment > rr.SLOAttainment {
		t.Errorf("20x load improved SLO attainment: calm %.3f hot %.3f", rr.SLOAttainment, hrr.SLOAttainment)
	}
}

// TestRunInProcessObs: the run feeds the observability bundle — admit
// latency through the core's admit observer, deadline counters and the
// goodput gauge through the engine.
func TestRunInProcessObs(t *testing.T) {
	o := obs.New(obs.Config{Algorithm: "fifo"})
	scn := smokeScenario(60)
	reqs, err := generateAt(scn, 8)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunInProcess(context.Background(), reqs, Config{Devices: 2, Obs: o}); err != nil {
		t.Fatal(err)
	}
	if got := o.DeadlineMet.Value() + o.DeadlineMissed.Value(); got != 60 {
		t.Errorf("deadline counters saw %d completions, want 60", got)
	}
	if o.AdmitLatency.Count() == 0 {
		t.Errorf("admit-latency histogram never observed")
	}
}

// TestRunInProcessHeterogeneous: MIG-style unequal capacities flow
// through the engine; a fragaware placement run completes on a topology
// where the uniform capacity assumption would reject xlarge containers.
func TestRunInProcessHeterogeneous(t *testing.T) {
	scn := smokeScenario(60)
	reqs, err := generateAt(scn, 2)
	if err != nil {
		t.Fatal(err)
	}
	res, err := RunInProcess(context.Background(), reqs, Config{
		Wake:       "bestfit",
		Place:      "fragaware",
		Devices:    3,
		Capacities: []bytesize.Size{20 * bytesize.GiB, 5 * bytesize.GiB, 5 * bytesize.GiB},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Stalled {
		t.Fatalf("heterogeneous run stalled")
	}
}

// TestWireSmoke drives a small scenario through the real daemon+IPC
// stack and checks the section carries plausible, non-deterministic
// real-time measurements.
func TestWireSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("wire smoke needs real time")
	}
	scn := Scenario{
		Name:        "wire-smoke",
		Containers:  40,
		Seed:        7,
		Arrival:     ArrivalPoisson,
		MeanSpacing: 400 * time.Millisecond,
		Mix:         []MixEntry{{ClassInference, 3}, {ClassStreaming, 1}},
	}
	o := obs.New(obs.Config{Algorithm: "fifo"})
	sec, err := RunWireSweep(context.Background(), scn,
		[]PolicyPair{{"fifo", "leastloaded"}}, []float64{1},
		WireConfig{Config: Config{Devices: 2, Obs: o}, TimeScale: 0.1})
	if err != nil {
		t.Fatal(err)
	}
	if sec.Deterministic {
		t.Fatalf("wire section must be marked non-deterministic")
	}
	run := sec.Runs[0]
	if run.Incomplete != 0 || run.Stalled {
		t.Fatalf("wire run incomplete: %+v", run)
	}
	if run.AdmitLatency.N != 40 {
		t.Fatalf("expected 40 admit waits, got %d", run.AdmitLatency.N)
	}
	// Real socket round trips cannot be instant.
	if run.AdmitLatency.Max <= 0 {
		t.Fatalf("wire admit waits all zero — not measuring the socket path")
	}
	// Every connection negotiated: alloc and its reply, confirm and free
	// (one-way) rode binary, and the daemon saw JSON only as codec probes.
	var binaryIn, binaryOut, json, negotiations int64
	for _, p := range o.Registry().Snapshot() {
		switch {
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "binary" && p.Labels["direction"] == "in":
			binaryIn += p.Value
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "binary":
			binaryOut += p.Value
		case p.Name == obs.MetricWireFrames && p.Labels["codec"] == "json":
			json += p.Value
		case p.Name == obs.MetricWireNegotiations:
			negotiations += p.Value
		}
	}
	if negotiations != 41 {
		t.Errorf("codec handshakes = %d, want 41 (40 containers + the control channel)", negotiations)
	}
	// Per container the daemon answers register, alloc, procexit and
	// close; what arrives beyond the answered is one-way — every confirm,
	// and the frees of requests that run more than one cycle.
	if binaryOut < 4*40 || binaryIn-binaryOut < 40 {
		t.Errorf("binary frames: %d in, %d out; want >= %d out and >= %d more in than out (one-way confirms)",
			binaryIn, binaryOut, 4*40, 40)
	}
	if json != 2*negotiations {
		t.Errorf("JSON frames = %d, want only the %d probes and answers", json, 2*negotiations)
	}
}

// TestShrinkSLOViolation reproduces the shrunk-reproducer path: a
// scenario that misses its SLO is reduced with the generic ddmin to a
// minimal failing request subset which still violates, and the shrunk
// stream is materially smaller than the original.
func TestShrinkSLOViolation(t *testing.T) {
	scn := smokeScenario(100)
	reqs, err := generateAt(scn, 30) // heavy overload: deadlines will miss
	if err != nil {
		t.Fatal(err)
	}
	slo := SLO{MinAttainment: 0.99}
	fails := func(cand []Request) bool {
		if len(cand) == 0 {
			return false
		}
		res, err := RunInProcess(context.Background(), cand, Config{Devices: 2})
		if err != nil {
			return false
		}
		rep := NewReport(scn, 2, Section{Path: "inprocess", Deterministic: true, TimeScale: 1,
			Runs: []RunReport{BuildRunReport("fifo", "leastloaded", 30, res)}})
		return len(CheckSLO(rep, slo)) > 0
	}
	if !fails(reqs) {
		t.Skipf("overload scenario unexpectedly met its SLO; nothing to shrink")
	}
	shrunk := model.Minimize(reqs, fails)
	if !fails(shrunk) {
		t.Fatalf("shrunk stream no longer violates the SLO")
	}
	if len(shrunk) >= len(reqs) {
		t.Fatalf("ddmin failed to shrink: %d -> %d requests", len(reqs), len(shrunk))
	}
	t.Logf("shrunk SLO reproducer: %d -> %d requests", len(reqs), len(shrunk))
}

// TestCheckSLO exercises the checker's three rules directly.
func TestCheckSLO(t *testing.T) {
	rep := &Report{Schema: ReportSchema, Sections: []Section{{
		Path: "inprocess",
		Runs: []RunReport{
			{Wake: "fifo", Place: "ll", LoadX: 1, SLOAttainment: 0.5, AdmitLatency: Tails{P99: 2.0}, Stalled: true},
			{Wake: "bestfit", Place: "ll", LoadX: 1, SLOAttainment: 1.0, AdmitLatency: Tails{P99: 0.001}},
		},
	}}}
	vs := CheckSLO(rep, SLO{MinAttainment: 0.9, MaxAdmitP99: 100 * time.Millisecond, NoStalls: true})
	if len(vs) != 3 {
		t.Fatalf("want 3 violations for the first run, got %d: %v", len(vs), vs)
	}
	for _, v := range vs {
		if v.Wake != "fifo" {
			t.Errorf("violation attributed to wrong run: %v", v)
		}
	}
}

// TestReportRoundTrip: JSON out, parse back, and the text rendering
// mentions each section.
func TestReportRoundTrip(t *testing.T) {
	scn := smokeScenario(40)
	sec, err := RunInProcessSweep(context.Background(), scn,
		[]PolicyPair{{"fifo", "leastloaded"}}, []float64{1, 2}, Config{Devices: 2})
	if err != nil {
		t.Fatal(err)
	}
	rep := NewReport(scn, 2, sec)
	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	back, err := ParseReport(b)
	if err != nil {
		t.Fatal(err)
	}
	if len(back.Sections) != 1 || len(back.Sections[0].Runs) != 2 {
		t.Fatalf("round trip lost runs: %+v", back)
	}
	var buf bytes.Buffer
	if err := back.Render(&buf); err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(buf.Bytes(), []byte("goodput")) || !bytes.Contains(buf.Bytes(), []byte("inprocess")) {
		t.Fatalf("text rendering incomplete:\n%s", buf.String())
	}
}

// TestPartialGrantWedgeIsReported is the sim test of the same name
// through the harness: the three-container reproducer of the
// partial-grant wedge (TESTING.md) on one device ends Stalled with the
// two xlarge requests incomplete — what `contention` scenario seed 2
// reaches at 3200 requests — and the run still returns its report.
func TestPartialGrantWedgeIsReported(t *testing.T) {
	batch := func(seq int, typeName string, arrival time.Duration) Request {
		ct, err := workload.TypeByName(typeName)
		if err != nil {
			t.Fatal(err)
		}
		return Request{Seq: seq, Class: ClassBatch, Type: ct, Arrival: arrival,
			Service: ct.SampleDuration(), Cycles: 1, Slack: 2, Grace: time.Second}
	}
	alone, err := RunInProcess(context.Background(), []Request{batch(0, "large", 0)}, Config{Devices: 1})
	if err != nil {
		t.Fatal(err)
	}
	done := alone.Outcomes[0].Finished
	reqs := []Request{
		batch(0, "large", 0),
		batch(1, "xlarge", done-50*time.Millisecond),
		batch(2, "xlarge", done+30*time.Millisecond),
	}
	for _, wake := range core.AlgorithmNames() {
		res, err := RunInProcess(context.Background(), reqs, Config{Wake: wake, Devices: 1})
		if err != nil {
			t.Fatalf("%s: %v", wake, err)
		}
		rr := BuildRunReport(wake, "leastloaded", 1, res)
		if !res.Stalled || rr.Incomplete != 2 {
			t.Errorf("%s: stalled=%v incomplete=%d, want the wedge with 2 incomplete", wake, res.Stalled, rr.Incomplete)
		}
		if !res.Outcomes[0].Completed || res.Outcomes[1].Completed || res.Outcomes[2].Completed {
			t.Errorf("%s: outcomes %+v, want only the large request complete", wake, res.Outcomes)
		}
		if len(res.AdmitWaits) != 1 {
			t.Errorf("%s: %d admissions recorded, want only the large request's", wake, len(res.AdmitWaits))
		}
	}
}
