package obs_test

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/cluster"
	"convgpu/internal/core"
	"convgpu/internal/multigpu"
	"convgpu/internal/obs"
)

var update = flag.Bool("update", false, "rewrite the testdata goldens from this binary's output")

const mib = bytesize.MiB

func must(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

// lifecycle drives one scripted sequence through a backend under the
// manual clock: three registrations (a and b take 900 MiB each, c gets
// what is left of a device), an in-grant accept/confirm/free, a suspend,
// the close that resumes it three virtual seconds later, a reject, a
// process exit and the closes. Every topology below places a and c on
// one device, so the same calls produce the same verdicts on all three.
func lifecycle(t *testing.T, st core.Scheduler, clk *clock.Manual) {
	t.Helper()
	alloc := func(id core.ContainerID, pid int, size bytesize.Size, want core.Decision) {
		t.Helper()
		res, err := st.RequestAlloc(id, pid, size)
		must(t, err)
		if res.Decision != want {
			t.Fatalf("alloc %s %v = %v, want %v", id, size, res.Decision, want)
		}
	}
	for _, r := range []struct {
		id    core.ContainerID
		limit bytesize.Size
	}{{"a", 900 * mib}, {"b", 900 * mib}, {"c", 500 * mib}} {
		_, err := st.Register(r.id, r.limit)
		must(t, err)
	}
	clk.Advance(time.Second)
	alloc("a", 11, 100*mib, core.Accept)
	must(t, st.ConfirmAlloc("a", 11, 0x1000, 100*mib))
	_, _, err := st.Free("a", 11, 0x1000)
	must(t, err)
	alloc("c", 31, 300*mib, core.Suspend)
	clk.Advance(3 * time.Second)
	_, u, err := st.Close("a")
	must(t, err)
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "c" {
		t.Fatalf("close a admitted %+v, want c's parked request", u.Admitted)
	}
	must(t, st.ConfirmAlloc("c", 31, 0x3000, 300*mib))
	alloc("b", 21, 950*mib, core.Reject)
	clk.Advance(time.Second)
	_, _, err = st.ProcessExit("c", 31)
	must(t, err)
	_, _, err = st.Close("c")
	must(t, err)
	_, _, err = st.Close("b")
	must(t, err)
}

// failover is the cluster's second act: f parks on node 0, the node
// fails, f's ticket migrates to node 1 and is resumed there two virtual
// seconds later by e's close; node 0 is then revived and serves g from
// the member the failover installed.
func failover(t *testing.T, c *cluster.Cluster, clk *clock.Manual) {
	t.Helper()
	clk.Advance(time.Second)
	for _, r := range []struct {
		id    core.ContainerID
		limit bytesize.Size
	}{{"d", 900 * mib}, {"e", 900 * mib}, {"f", 500 * mib}} {
		_, err := c.Register(r.id, r.limit)
		must(t, err)
	}
	if res, err := c.RequestAlloc("f", 61, 300*mib); err != nil || res.Decision != core.Suspend {
		t.Fatalf("alloc f = %+v, %v; want suspend", res, err)
	}
	rep, err := c.FailNode(0)
	must(t, err)
	migrated := 0
	for _, mv := range rep.Moves {
		for _, tm := range mv.Tickets {
			if tm.Outcome == core.TicketMigrated {
				migrated++
			}
		}
	}
	if migrated != 1 {
		t.Fatalf("failover report %+v, want one migrated ticket", rep)
	}
	clk.Advance(2 * time.Second)
	_, u, err := c.Close("e")
	must(t, err)
	if len(u.Admitted) != 1 || u.Admitted[0].Container != "f" {
		t.Fatalf("close e admitted %+v, want f's migrated request", u.Admitted)
	}
	must(t, c.ConfirmAlloc("f", 61, 0x6000, 300*mib))
	_, _, err = c.ProcessExit("f", 61)
	must(t, err)
	_, _, err = c.Close("f")
	must(t, err)
	_, _, err = c.Close("d")
	must(t, err)
	must(t, c.Revive(0))
	_, err = c.Register("g", 300*mib)
	must(t, err)
	if node, _, err := c.NodePlacement("g"); err != nil || node != 0 {
		t.Fatalf("g placed on node %d (%v), want the revived node 0", node, err)
	}
	if res, err := c.RequestAlloc("g", 71, 100*mib); err != nil || res.Decision != core.Accept {
		t.Fatalf("alloc g = %+v, %v; want accept", res, err)
	}
	must(t, c.ConfirmAlloc("g", 71, 0x7000, 100*mib))
	_, _, err = c.Close("g")
	must(t, err)
}

// TestGoldenTraceAndMetrics pins, byte for byte across commits, the two
// documents an operator reads scheduler events from — the tracer's dump
// and the event-counter and admit-latency series of the Prometheus text
// — for one scripted sequence on each topology. The backend is driven
// directly (the daemon adds nothing to either document). Regenerate,
// on purpose, with -update.
func TestGoldenTraceAndMetrics(t *testing.T) {
	device := func(clk clock.Clock) core.Config {
		return core.Config{Capacity: 1000 * mib, ContextOverhead: mib, Clock: clk}
	}
	topologies := []struct {
		name  string
		build func(clk *clock.Manual) (core.Scheduler, error)
	}{
		{"1device", func(clk *clock.Manual) (core.Scheduler, error) {
			return core.New(device(clk))
		}},
		{"2devices", func(clk *clock.Manual) (core.Scheduler, error) {
			return multigpu.New(multigpu.Config{Devices: 2, CapacityPerDevice: 1000 * mib, Device: device(clk)})
		}},
		{"2nodes", func(clk *clock.Manual) (core.Scheduler, error) {
			return cluster.New(cluster.Config{Nodes: 2, GPUsPerNode: 1, CapacityPerGPU: 1000 * mib, Device: device(clk)})
		}},
	}
	for _, topo := range topologies {
		t.Run(topo.name, func(t *testing.T) {
			clk := clock.NewManual()
			st, err := topo.build(clk)
			if err != nil {
				t.Fatal(err)
			}
			o := obs.New(obs.Config{Algorithm: st.AlgorithmName()})
			o.BindCore(st)
			lifecycle(t, st, clk)
			if c, ok := st.(*cluster.Cluster); ok {
				failover(t, c, clk)
			}
			if err := st.CheckInvariants(); err != nil {
				t.Fatal(err)
			}

			trace, err := o.Tracer().Dump("")
			if err != nil {
				t.Fatal(err)
			}
			var prom bytes.Buffer
			if err := o.Registry().WritePrometheus(&prom); err != nil {
				t.Fatal(err)
			}
			var got bytes.Buffer
			got.Write(trace)
			got.WriteByte('\n')
			for _, line := range strings.SplitAfter(prom.String(), "\n") {
				if strings.HasPrefix(line, obs.MetricEvents) || strings.HasPrefix(line, obs.MetricAdmitLatency) {
					got.WriteString(line)
				}
			}

			path := filepath.Join("testdata", "events_"+topo.name+".golden")
			if *update {
				if err := os.MkdirAll("testdata", 0o755); err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(path, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
				return
			}
			want, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("trace and metrics differ from %s (regenerate with -update only if the change is intended)\n--- got ---\n%s\n--- want ---\n%s", path, got.Bytes(), want)
			}
		})
	}
}
