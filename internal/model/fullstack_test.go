package model_test

import (
	"context"
	"errors"
	"fmt"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/clock"
	"convgpu/internal/core"
	"convgpu/internal/daemon"
	"convgpu/internal/errs"
	"convgpu/internal/ipc"
	"convgpu/internal/model"
	"convgpu/internal/policy"
	"convgpu/internal/protocol"
)

// The full-stack conformance test runs the same oracle over the real
// service path: every scheduler operation crosses the daemon's UNIX
// sockets through the pooled protocol codec, suspended allocations
// really block in ipc.Client.Call until a redistribution releases their
// parked response, and dropped tickets are produced the way production
// produces them — by killing the connection that carried the request.
// The wireSched adapter below translates the harness's core.Scheduler
// calls into that wire traffic and reconstructs results from the
// daemon's observable outputs (responses and the core event log);
// introspection reads (Snapshot, Devices, CheckInvariants) go straight
// to the in-process backend, since they are observation, not behavior.

const wireCallTimeout = 5 * time.Second

// eventCapture collects core events through SetObserver; the adapter
// mines it for suspend tickets and resume/drop sequences.
type eventCapture struct {
	mu  sync.Mutex
	evs []core.EventRecord
}

func (c *eventCapture) observe(e core.EventRecord) {
	c.mu.Lock()
	c.evs = append(c.evs, e)
	c.mu.Unlock()
}

func (c *eventCapture) len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.evs)
}

func (c *eventCapture) since(cursor int) []core.EventRecord {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]core.EventRecord(nil), c.evs[cursor:]...)
}

// callResult is a parked Call's eventual outcome.
type callResult struct {
	resp *protocol.Message
	err  error
}

// parkedWire is one suspended allocation in flight: its dedicated
// connection (closing it is how a single ticket gets dropped) and the
// channel its blocked Call resolves on.
type parkedWire struct {
	cli    *ipc.Client
	done   chan callResult
	id     core.ContainerID
	pid    int
	ticket core.Ticket
}

// wireSched drives a daemon over its sockets while satisfying
// core.Scheduler for the conformance harness. The embedded Scheduler is
// the daemon's in-process backend, serving the introspection surface;
// every mutating method below overrides it with wire traffic.
type wireSched struct {
	core.Scheduler
	d    *daemon.Daemon
	ctl  *ipc.Client
	cap  *eventCapture
	ctx  context.Context
	dirs map[core.ContainerID]string
	conn map[core.ContainerID]*ipc.Client

	parked    map[core.Ticket]*parkedWire
	parkOrder []core.Ticket
}

func newWireSched(inner core.Scheduler, baseDir string) (*wireSched, error) {
	d, err := daemon.Start(daemon.Config{BaseDir: baseDir, Core: inner})
	if err != nil {
		return nil, err
	}
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		d.Close()
		return nil, err
	}
	w := &wireSched{
		Scheduler: inner,
		d:         d,
		ctl:       ctl,
		cap:       &eventCapture{},
		ctx:       context.Background(),
		dirs:      make(map[core.ContainerID]string),
		conn:      make(map[core.ContainerID]*ipc.Client),
		parked:    make(map[core.Ticket]*parkedWire),
	}
	// Replaces the obs observer the daemon installed — this test asserts
	// scheduling behavior, not telemetry.
	inner.SetObserver(w.cap.observe)
	return w, nil
}

func (w *wireSched) shutdown() {
	for _, p := range w.parked {
		p.cli.Close()
	}
	for _, c := range w.conn {
		c.Close()
	}
	w.ctl.Close()
	w.d.Close()
}

// wireErr reconstructs the sentinel of a failure response so the
// harness's error classes line up across the socket: a coded failure's
// from its wire code, a core-internal one (which has no code) from its
// text.
func wireErr(resp *protocol.Message) error {
	if resp.OK {
		return nil
	}
	s := resp.Error
	if sentinel := errs.FromCode(resp.Code); sentinel != nil {
		return fmt.Errorf("%w: over the wire: %s", sentinel, s)
	}
	for _, m := range []struct {
		substr string
		err    error
	}{
		{"already registered", core.ErrDuplicateContainer},
		{"limit must be positive", core.ErrInvalidLimit},
		{"non-positive limit", core.ErrInvalidLimit}, // protocol-level validation fires first
		{"size must be positive", core.ErrInvalidSize},
		{"non-positive size", core.ErrInvalidSize}, // protocol-level validation fires first
		{"unknown allocation address", core.ErrUnknownAddr},
		{"unknown pid", core.ErrUnknownPID},
		{"without an accepted request", core.ErrNotCharged},
		{"limit differs", core.ErrLimitMismatch},
		{"cannot restore", core.ErrRestoreInfeasible},
	} {
		if strings.Contains(s, m.substr) {
			return fmt.Errorf("%w: over the wire: %s", m.err, s)
		}
	}
	return errors.New(s)
}

func (w *wireSched) call(cli *ipc.Client, msg *protocol.Message) (*protocol.Message, error) {
	ctx, cancel := context.WithTimeout(w.ctx, wireCallTimeout)
	defer cancel()
	resp, err := cli.Call(ctx, msg)
	if err != nil {
		return nil, fmt.Errorf("wire transport: %w", err)
	}
	return resp, nil
}

func (w *wireSched) Register(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	resp, err := w.call(w.ctl, &protocol.Message{Type: protocol.TypeRegister, Container: string(id), Limit: int64(limit)})
	if err != nil {
		return 0, err
	}
	if werr := wireErr(resp); werr != nil {
		return 0, werr
	}
	cli, err := ipc.Dial(filepath.Join(resp.SocketDir, protocol.SocketFileName))
	if err != nil {
		return 0, fmt.Errorf("dial container socket: %w", err)
	}
	w.dirs[id] = resp.SocketDir
	w.conn[id] = cli
	return bytesize.Size(resp.Granted), nil
}

// RequestAlloc sends the allocation on a dedicated connection. An
// accepted or rejected request answers immediately; a suspended one
// blocks, and the adapter recovers its ticket from the EvSuspend record
// the core logged before parking.
func (w *wireSched) RequestAlloc(id core.ContainerID, pid int, size bytesize.Size) (core.AllocResult, error) {
	if _, ok := w.conn[id]; !ok {
		// No socket exists for an unregistered container; the expected
		// error comes from the backend directly.
		return w.Scheduler.RequestAlloc(id, pid, size)
	}
	cursor := w.cap.len()
	cli, err := ipc.Dial(filepath.Join(w.dirs[id], protocol.SocketFileName))
	if err != nil {
		return core.AllocResult{}, fmt.Errorf("dial for alloc: %w", err)
	}
	done := make(chan callResult, 1)
	go func() {
		resp, err := cli.Call(w.ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: pid, Size: int64(size), API: "cudaMalloc"})
		done <- callResult{resp: resp, err: err}
	}()
	deadline := time.Now().Add(wireCallTimeout)
	for {
		select {
		case r := <-done:
			cli.Close()
			if r.err != nil {
				return core.AllocResult{}, fmt.Errorf("wire transport: %w", r.err)
			}
			if werr := wireErr(r.resp); werr != nil {
				return core.AllocResult{}, werr
			}
			switch r.resp.Decision {
			case protocol.DecisionAccept:
				return core.AllocResult{Decision: core.Accept}, nil
			case protocol.DecisionReject:
				return core.AllocResult{Decision: core.Reject}, nil
			default:
				return core.AllocResult{}, fmt.Errorf("wire alloc answered with decision %q", r.resp.Decision)
			}
		default:
		}
		for _, e := range w.cap.since(cursor) {
			if e.Kind == core.EvSuspend && e.Container == id && e.PID == pid && e.Amount == size {
				p := &parkedWire{cli: cli, done: done, id: id, pid: pid, ticket: e.Ticket}
				w.parked[e.Ticket] = p
				w.parkOrder = append(w.parkOrder, e.Ticket)
				return core.AllocResult{Decision: core.Suspend, Ticket: e.Ticket}, nil
			}
		}
		if time.Now().After(deadline) {
			cli.Close()
			return core.AllocResult{}, fmt.Errorf("alloc neither answered nor suspended within %v", wireCallTimeout)
		}
		time.Sleep(time.Millisecond)
	}
}

func (w *wireSched) ConfirmAlloc(id core.ContainerID, pid int, addr uint64, size bytesize.Size) error {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.ConfirmAlloc(id, pid, addr, size)
	}
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeConfirm, PID: pid, Addr: addr, Size: int64(size)})
	if err != nil {
		return err
	}
	return wireErr(resp)
}

func (w *wireSched) AbortAlloc(id core.ContainerID, pid int, size bytesize.Size) (core.Update, error) {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.AbortAlloc(id, pid, size)
	}
	cursor := w.cap.len()
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeAbort, PID: pid, Size: int64(size)})
	if err != nil {
		return core.Update{}, err
	}
	if werr := wireErr(resp); werr != nil {
		return core.Update{}, werr
	}
	return w.collectUpdate(cursor, nil)
}

func (w *wireSched) Free(id core.ContainerID, pid int, addr uint64) (bytesize.Size, core.Update, error) {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.Free(id, pid, addr)
	}
	cursor := w.cap.len()
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeFree, PID: pid, Addr: addr})
	if err != nil {
		return 0, core.Update{}, err
	}
	if werr := wireErr(resp); werr != nil {
		return 0, core.Update{}, werr
	}
	u, err := w.collectUpdate(cursor, nil)
	return bytesize.Size(resp.Free), u, err
}

func (w *wireSched) ProcessExit(id core.ContainerID, pid int) (bytesize.Size, core.Update, error) {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.ProcessExit(id, pid)
	}
	cancelled := w.takeParked(func(p *parkedWire) bool { return p.id == id && p.pid == pid })
	cursor := w.cap.len()
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeProcExit, PID: pid})
	if err != nil {
		return 0, core.Update{}, err
	}
	if werr := wireErr(resp); werr != nil {
		return 0, core.Update{}, werr
	}
	u, err := w.collectUpdate(cursor, cancelled)
	return bytesize.Size(resp.Free), u, err
}

func (w *wireSched) Close(id core.ContainerID) (bytesize.Size, core.Update, error) {
	if _, ok := w.dirs[id]; !ok {
		// Never registered on the wire (or long closed): the daemon
		// answers unknown-container; the single-State backend's close
		// idempotence must still shine through, so ask it directly.
		return w.Scheduler.Close(id)
	}
	cancelled := w.takeParked(func(p *parkedWire) bool { return p.id == id })
	cursor := w.cap.len()
	resp, err := w.call(w.ctl, &protocol.Message{Type: protocol.TypeClose, Container: string(id)})
	if err != nil {
		return 0, core.Update{}, err
	}
	if werr := wireErr(resp); werr != nil {
		return 0, core.Update{}, werr
	}
	if c, ok := w.conn[id]; ok {
		c.Close()
		delete(w.conn, id)
	}
	delete(w.dirs, id)
	u, err := w.collectUpdate(cursor, cancelled)
	return bytesize.Size(resp.Free), u, err
}

func (w *wireSched) MemInfo(id core.ContainerID) (free, total bytesize.Size, err error) {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.MemInfo(id)
	}
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeMemInfo})
	if err != nil {
		return 0, 0, err
	}
	if werr := wireErr(resp); werr != nil {
		return 0, 0, werr
	}
	return bytesize.Size(resp.Free), bytesize.Size(resp.Total), nil
}

// DropPending drops one parked ticket the production way: it kills the
// connection whose allocation holds that ticket, and the daemon's
// connection-death path (releaseConn → core.DropPending) does the rest.
func (w *wireSched) DropPending(id core.ContainerID, tickets []core.Ticket) (core.Update, error) {
	if len(tickets) != 1 {
		return w.Scheduler.DropPending(id, tickets)
	}
	p, ok := w.parked[tickets[0]]
	if !ok || p.id != id {
		// Nothing parked under that ticket: a no-op on every layer.
		return w.Scheduler.DropPending(id, tickets)
	}
	cursor := w.cap.len()
	w.removeParked(tickets[0])
	p.cli.Close()
	// Wait for the daemon to notice the dead connection and drop the
	// ticket; the EvDrop record marks the core call that also performed
	// the redistribution.
	deadline := time.Now().Add(wireCallTimeout)
	for {
		dropped := false
		for _, e := range w.cap.since(cursor) {
			if e.Kind == core.EvDrop && e.Ticket == tickets[0] && e.Container == id {
				dropped = true
			}
		}
		if dropped {
			break
		}
		if time.Now().After(deadline) {
			return core.Update{}, fmt.Errorf("daemon never dropped ticket %d after its connection died", tickets[0])
		}
		time.Sleep(time.Millisecond)
	}
	return w.collectUpdate(cursor, nil)
}

func (w *wireSched) Restore(id core.ContainerID, pid int, addr uint64, size bytesize.Size) error {
	cli, ok := w.conn[id]
	if !ok {
		return w.Scheduler.Restore(id, pid, addr, size)
	}
	resp, err := w.call(cli, &protocol.Message{Type: protocol.TypeRestore, PID: pid, Addr: addr, Size: int64(size)})
	if err != nil {
		return err
	}
	return wireErr(resp)
}

// takeParked removes (and returns, in park order) every parked entry
// matching the predicate — the tickets the next operation will cancel.
func (w *wireSched) takeParked(match func(*parkedWire) bool) []*parkedWire {
	var out []*parkedWire
	var keep []core.Ticket
	for _, t := range w.parkOrder {
		p := w.parked[t]
		if match(p) {
			out = append(out, p)
			delete(w.parked, t)
		} else {
			keep = append(keep, t)
		}
	}
	w.parkOrder = keep
	return out
}

func (w *wireSched) removeParked(t core.Ticket) {
	delete(w.parked, t)
	keep := w.parkOrder[:0]
	for _, o := range w.parkOrder {
		if o != t {
			keep = append(keep, o)
		}
	}
	w.parkOrder = keep
}

// collectUpdate reconstructs the core.Update of the operation that ran
// since cursor: admitted tickets come from the EvResume records the
// core logged during the call (in admission order); cancelled ones are
// the parked entries the caller pre-identified. Every affected parked
// call is then awaited: admitted ones must resolve with an accept (and
// leave the adapter ready for the harness's confirm), cancelled ones
// with a failure.
func (w *wireSched) collectUpdate(cursor int, cancelled []*parkedWire) (core.Update, error) {
	var u core.Update
	for _, e := range w.cap.since(cursor) {
		if e.Kind == core.EvResume {
			u.Admitted = append(u.Admitted, core.Admitted{Container: e.Container, Ticket: e.Ticket})
		}
	}
	for _, a := range u.Admitted {
		p, ok := w.parked[a.Ticket]
		if !ok {
			return u, fmt.Errorf("core resumed ticket %d the adapter has nothing parked for", a.Ticket)
		}
		w.removeParked(a.Ticket)
		select {
		case r := <-p.done:
			p.cli.Close()
			if r.err != nil {
				return u, fmt.Errorf("admitted ticket %d failed on the wire: %w", a.Ticket, r.err)
			}
			if werr := wireErr(r.resp); werr != nil {
				return u, fmt.Errorf("admitted ticket %d answered an error: %w", a.Ticket, werr)
			}
			if r.resp.Decision != protocol.DecisionAccept {
				return u, fmt.Errorf("admitted ticket %d answered decision %q", a.Ticket, r.resp.Decision)
			}
		case <-time.After(wireCallTimeout):
			return u, fmt.Errorf("admitted ticket %d never released its parked response", a.Ticket)
		}
	}
	for _, p := range cancelled {
		u.Cancelled = append(u.Cancelled, core.Admitted{Container: p.id, Ticket: p.ticket})
		select {
		case r := <-p.done:
			p.cli.Close()
			if r.err == nil && wireErr(r.resp) == nil && r.resp.Decision == protocol.DecisionAccept {
				return u, fmt.Errorf("cancelled request of %s pid=%d was accepted", p.id, p.pid)
			}
		case <-time.After(wireCallTimeout):
			return u, fmt.Errorf("cancelled request of %s pid=%d never released", p.id, p.pid)
		}
	}
	return u, nil
}

// fullStackBackend builds a model.Backend whose real side is a live
// daemon in its own directory. Each New() tears the previous daemon
// down (the shrinker re-runs streams many times) and starts a fresh one.
func fullStackBackend(t *testing.T, alg string, seed int64) (model.Backend, func() *wireSched) {
	t.Helper()
	var last *wireSched
	t.Cleanup(func() {
		if last != nil {
			last.shutdown()
		}
	})
	n := 0
	return model.Backend{
		Name: "daemon-wire",
		New: func() (core.Scheduler, error) {
			if last != nil {
				last.shutdown()
				last = nil
			}
			a, err := policy.NewWake(alg, policy.Config{Seed: seed})
			if err != nil {
				return nil, err
			}
			inner, err := core.New(core.Config{Capacity: capacity, ContextOverhead: overhead, Algorithm: a})
			if err != nil {
				return nil, err
			}
			n++
			w, err := newWireSched(inner, filepath.Join(t.TempDir(), fmt.Sprintf("cv%d", n)))
			if err != nil {
				return nil, err
			}
			last = w
			return w, nil
		},
		Model: func() *model.Model {
			return model.New(model.Config{
				Devices: 1, Capacity: capacity, Overhead: overhead,
				Algorithm: alg, AlgSeeds: []int64{seed},
			})
		},
	}, func() *wireSched { return last }
}

// TestFullStackConformance drives the daemon+ipc+protocol stack through
// the oracle: every op of the generated stream is real socket traffic
// against a live daemon, and the oracle demands the same decisions,
// tickets, update sequences and snapshots the in-process backends give.
func TestFullStackConformance(t *testing.T) {
	if testing.Short() {
		t.Skip("full-stack conformance dials hundreds of sockets; skipped in -short")
	}
	for _, alg := range core.AlgorithmNames() {
		alg := alg
		t.Run(alg, func(t *testing.T) {
			// Seed 35 is chosen for park-path density: at 150 ops it parks
			// ~14 allocations and resumes ~8 of them (the guard below keeps
			// that property from silently rotting).
			seed := int64(35)
			b, lastSched := fullStackBackend(t, alg, seed)
			g := model.DefaultGenConfig()
			ops := model.Generate(seed, fullStackOps(), g)
			div, err := model.RunOps(b, ops)
			if err != nil {
				t.Fatalf("harness error: %v", err)
			}
			if div != nil {
				reportDivergence(t, b, alg, seed, ops, div)
			}
			// Guard against a degenerate stream: the run must have parked
			// allocations on the wire and released some of them, or this
			// test only covered the trivial accept path.
			w := lastSched()
			var suspends, resumes int
			for _, e := range w.cap.since(0) {
				switch e.Kind {
				case core.EvSuspend:
					suspends++
				case core.EvResume:
					resumes++
				}
			}
			if suspends == 0 || resumes == 0 {
				t.Fatalf("stream never exercised the park path (suspends=%d resumes=%d) — regenerate with a harder profile", suspends, resumes)
			}
		})
	}
}

func fullStackOps() int {
	n := *opCount
	if n > 150 {
		n = 150 // each op is real socket traffic; cap the stream
	}
	return n
}

// waitUntil polls cond (the sequential tests' only concession to the
// daemon's background goroutines).
func waitUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(wireCallTimeout)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

func mustOK(t *testing.T, cli *ipc.Client, msg *protocol.Message) *protocol.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), wireCallTimeout)
	defer cancel()
	resp, err := cli.Call(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("call failed: %s", resp.Error)
	}
	return resp
}

// TestFullStackRestartRecovery kills a daemon and verifies that the
// replacement's recovery from its log plus the wrappers' Restore replay
// reproduce exactly the state the reference model predicts. Recovery
// order is the container IDs' lexicographic order — deliberately
// different from registration order here — a closed container's session
// must not come back, and a request that was parked at crash time is
// lost on both sides.
func TestFullStackRestartRecovery(t *testing.T) {
	base := filepath.Join(t.TempDir(), "cv")
	mkCore := func() core.Scheduler {
		a, err := policy.NewWake(core.AlgBestFit, policy.Config{Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		st, err := core.New(core.Config{Capacity: capacity, ContextOverhead: overhead, Algorithm: a})
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	w, err := newWireSched(mkCore(), base)
	if err != nil {
		t.Fatal(err)
	}

	const (
		mib300 = 300 * bytesize.MiB
		mib200 = 200 * bytesize.MiB
	)
	// Registration order c2, c1, c3 — recovery will run c2, c3 (c1 closes).
	for _, reg := range []struct {
		id    core.ContainerID
		limit bytesize.Size
	}{{"c2", 500 * bytesize.MiB}, {"c1", 400 * bytesize.MiB}, {"c3", 600 * bytesize.MiB}} {
		if _, err := w.Register(reg.id, reg.limit); err != nil {
			t.Fatalf("register %s: %v", reg.id, err)
		}
	}
	alloc := func(id core.ContainerID, pid int, size bytesize.Size, addr uint64) {
		t.Helper()
		res, err := w.RequestAlloc(id, pid, size)
		if err != nil || res.Decision != core.Accept {
			t.Fatalf("alloc %s: %+v %v", id, res, err)
		}
		if err := w.ConfirmAlloc(id, pid, addr, size); err != nil {
			t.Fatalf("confirm %s: %v", id, err)
		}
	}
	alloc("c2", 1, mib300, 0x100)
	alloc("c1", 1, mib200, 0x200)
	// c3's request parks: pool is empty (500+400+124 grants) and its
	// grant cannot cover 400MiB+overhead.
	res, err := w.RequestAlloc("c3", 2, 400*bytesize.MiB)
	if err != nil || res.Decision != core.Suspend {
		t.Fatalf("c3 alloc should suspend, got %+v %v", res, err)
	}
	if _, _, err := w.Close("c1"); err != nil {
		t.Fatalf("close c1: %v", err)
	}

	// Crash. The parked response dies with the daemon.
	w.shutdown()

	inner2 := mkCore()
	d2, err := daemon.Start(daemon.Config{BaseDir: base, Core: inner2})
	if err != nil {
		t.Fatalf("restart: %v", err)
	}
	defer d2.Close()

	// Wrapper replay: each surviving container re-attaches and restores
	// its live allocations.
	replay := func(id core.ContainerID, pid int, restore func(cli *ipc.Client)) {
		t.Helper()
		cli, err := ipc.Dial(filepath.Join(base, "containers", string(id), protocol.SocketFileName))
		if err != nil {
			t.Fatalf("dial recovered %s: %v", id, err)
		}
		defer cli.Close()
		mustOK(t, cli, &protocol.Message{Type: protocol.TypeAttach, PID: pid})
		if restore != nil {
			restore(cli)
		}
	}
	replay("c2", 1, func(cli *ipc.Client) {
		mustOK(t, cli, &protocol.Message{Type: protocol.TypeRestore, PID: 1, Addr: 0x100, Size: int64(mib300)})
	})
	replay("c3", 2, nil)

	// The model replays recovery the same way the daemon does: sorted
	// session order, placement pinned first, then idempotent
	// registration, then the wrappers' restores.
	m := model.New(model.Config{Devices: 1, Capacity: capacity, Overhead: overhead, Algorithm: core.AlgBestFit, AlgSeeds: []int64{1}})
	for _, reg := range []struct {
		id    core.ContainerID
		limit bytesize.Size
	}{{"c2", 500 * bytesize.MiB}, {"c3", 600 * bytesize.MiB}} {
		if err := m.RestorePlacement(reg.id, 0); err != nil {
			t.Fatal(err)
		}
		if _, err := m.EnsureRegistered(reg.id, reg.limit, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := m.Restore("c2", 1, 0x100, mib300); err != nil {
		t.Fatal(err)
	}

	if err := inner2.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if _, err := inner2.Info("c1"); err == nil {
		t.Fatal("closed container c1 was resurrected by recovery")
	}
	views := m.Containers()
	snap := inner2.Snapshot()
	if len(snap) != len(views) {
		t.Fatalf("recovered %d containers, model has %d", len(snap), len(views))
	}
	byID := make(map[core.ContainerID]core.ContainerInfo)
	for _, info := range snap {
		byID[info.ID] = info
	}
	for _, v := range views {
		info, ok := byID[v.ID]
		if !ok {
			t.Fatalf("model container %s missing after recovery", v.ID)
		}
		if info.Limit != v.Limit || info.Grant != v.Grant || info.Used != v.Used || info.Pending != v.Pending {
			t.Fatalf("%s after recovery: real limit=%v grant=%v used=%v pending=%d, model limit=%v grant=%v used=%v pending=%d",
				v.ID, info.Limit, info.Grant, info.Used, info.Pending, v.Limit, v.Grant, v.Used, v.Pending)
		}
	}
	if got, want := inner2.PoolFree(), m.Pools()[0]; got != want {
		t.Fatalf("pool after recovery: real %v, model %v", got, want)
	}
	// The parked request did not survive on either side.
	if info := byID["c3"]; info.Pending != 0 {
		t.Fatalf("c3 pending after crash = %d, want 0 (parked requests die with the daemon)", info.Pending)
	}
}

// TestFullStackLeaseExpiryConformance checks that the daemon's lease
// reaper is observationally a Close: a container that goes silent past
// its lease leaves the stack in exactly the state the model predicts
// for an explicit close — including the redistribution that releases
// another container's parked request.
func TestFullStackLeaseExpiryConformance(t *testing.T) {
	clk := clock.NewManual()
	a, err := policy.NewWake(core.AlgFIFO, policy.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	st, err := core.New(core.Config{Capacity: capacity, ContextOverhead: overhead, Algorithm: a, Clock: clk})
	if err != nil {
		t.Fatal(err)
	}
	const lease = time.Minute
	d, err := daemon.Start(daemon.Config{
		BaseDir: filepath.Join(t.TempDir(), "cv"),
		Core:    st, Lease: lease, Clock: clk,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		t.Fatal(err)
	}
	defer ctl.Close()

	ctx := context.Background()
	reg := func(id string, limit bytesize.Size) *ipc.Client {
		t.Helper()
		resp := mustOK(t, ctl, &protocol.Message{Type: protocol.TypeRegister, Container: id, Limit: int64(limit)})
		cli, err := ipc.Dial(filepath.Join(resp.SocketDir, protocol.SocketFileName))
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cli.Close() })
		return cli
	}
	dead := reg("dead", 700*bytesize.MiB)
	live := reg("live", 600*bytesize.MiB)

	mustOK(t, dead, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(600 * bytesize.MiB)})
	mustOK(t, dead, &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Addr: 0x1, Size: int64(600 * bytesize.MiB)})

	// live's request cannot fit its partial grant: it parks.
	parked := make(chan callResult, 1)
	go func() {
		resp, err := live.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: int64(400 * bytesize.MiB)})
		parked <- callResult{resp: resp, err: err}
	}()
	waitUntil(t, "live's request to park", func() bool {
		info, err := st.Info("live")
		return err == nil && info.Pending == 1
	})

	// Advance virtual time; live heartbeats every check interval, dead
	// stays silent and is reaped.
	hb, err := ipc.Dial(filepath.Join(filepath.Dir(d.ControlSocket()), "containers", "live", protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	defer hb.Close()
	for i := 0; i < 6; i++ {
		waitUntil(t, "reap loop armed", func() bool { return clk.Pending() > 0 })
		clk.Advance(lease / 4)
		mustOK(t, hb, &protocol.Message{Type: protocol.TypeHeartbeat, PID: 2})
	}
	waitUntil(t, "dead container reaped", func() bool {
		_, err := st.Info("dead")
		return err != nil
	})
	// The reap's redistribution released live's parked request.
	select {
	case r := <-parked:
		if r.err != nil || !r.resp.OK || r.resp.Decision != protocol.DecisionAccept {
			t.Fatalf("parked request after reap: %+v %v", r.resp, r.err)
		}
	case <-time.After(wireCallTimeout):
		t.Fatal("parked request never released by the lease reap")
	}
	mustOK(t, live, &protocol.Message{Type: protocol.TypeConfirm, PID: 2, Addr: 0x2, Size: int64(400 * bytesize.MiB)})

	// The model sees the same history with the reap spelled Close.
	m := model.New(model.Config{Devices: 1, Capacity: capacity, Overhead: overhead, Algorithm: core.AlgFIFO, AlgSeeds: []int64{1}})
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	mustG := func(_ bytesize.Size, err error) { t.Helper(); must(err) }
	mustG(m.Register("dead", 700*bytesize.MiB, 0))
	mustG(m.Register("live", 600*bytesize.MiB, 0))
	if res, err := m.RequestAlloc("dead", 1, 600*bytesize.MiB); err != nil || res.Decision != core.Accept {
		t.Fatalf("model dead alloc: %+v %v", res, err)
	}
	must(m.ConfirmAlloc("dead", 1, 0x1, 600*bytesize.MiB))
	res, err := m.RequestAlloc("live", 2, 400*bytesize.MiB)
	if err != nil || res.Decision != core.Suspend {
		t.Fatalf("model live alloc: %+v %v", res, err)
	}
	_, u, err := m.Close("dead")
	must(err)
	if len(u.Admitted) != 1 || u.Admitted[0].Ticket != res.Ticket {
		t.Fatalf("model close admitted %+v, want live's ticket %d", u.Admitted, res.Ticket)
	}
	must(m.ConfirmAlloc("live", 2, 0x2, 400*bytesize.MiB))

	if err := st.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	views := m.Containers()
	snap := st.Snapshot()
	if len(snap) != 1 || len(views) != 1 {
		t.Fatalf("after reap: real has %d containers, model %d, want 1", len(snap), len(views))
	}
	if got, want := snap[0], views[0]; got.ID != want.ID || got.Limit != want.Limit ||
		got.Grant != want.Grant || got.Used != want.Used || got.Pending != want.Pending {
		t.Fatalf("after reap: real %+v, model %+v", got, want)
	}
	if got, want := st.PoolFree(), m.Pools()[0]; got != want {
		t.Fatalf("pool after reap: real %v, model %v", got, want)
	}
}

func mustOKRec(t *testing.T, r *ipc.Reconnector, msg *protocol.Message) *protocol.Message {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), wireCallTimeout)
	defer cancel()
	resp, err := r.Call(ctx, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !resp.OK {
		t.Fatalf("call failed: %s", resp.Error)
	}
	return resp
}

// TestFullStackBinaryRestartRecovery kills and restarts the daemon
// mid-run under a Reconnector — the wrapper's production transport —
// and asserts the reconnecting side re-negotiates the binary codec on
// the fresh connection (or, with CONVGPU_WIRE_JSON set, cleanly stays on
// JSON), replays its session through Attach+Restore, and lands in
// exactly the state the reference model predicts for recovery. The
// codec negotiation was previously only chaos-tested on connections
// that stayed up; this pins the restart path.
func TestFullStackBinaryRestartRecovery(t *testing.T) {
	for _, tc := range []struct {
		name       string
		pinJSON    bool
		wantBinary bool
	}{
		{"binary-renegotiated", false, true},
		{"json-pinned", true, false},
	} {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			if tc.pinJSON {
				t.Setenv("CONVGPU_WIRE_JSON", "1")
			}
			base := filepath.Join(t.TempDir(), "cv")
			mkCore := func() core.Scheduler {
				a, err := policy.NewWake(core.AlgBestFit, policy.Config{Seed: 1})
				if err != nil {
					t.Fatal(err)
				}
				st, err := core.New(core.Config{Capacity: capacity, ContextOverhead: overhead, Algorithm: a})
				if err != nil {
					t.Fatal(err)
				}
				return st
			}
			d1, err := daemon.Start(daemon.Config{BaseDir: base, Core: mkCore()})
			if err != nil {
				t.Fatal(err)
			}
			ctl, err := ipc.Dial(d1.ControlSocket())
			if err != nil {
				t.Fatal(err)
			}
			const (
				mib300 = 300 * bytesize.MiB
				limC1  = 400 * bytesize.MiB
				limC2  = 500 * bytesize.MiB
			)
			reg1 := mustOK(t, ctl, &protocol.Message{Type: protocol.TypeRegister, Container: "c1", Limit: int64(limC1)})
			sock := filepath.Join(reg1.SocketDir, protocol.SocketFileName)
			mustOK(t, ctl, &protocol.Message{Type: protocol.TypeRegister, Container: "c2", Limit: int64(limC2)})
			ctl.Close()

			// The replay hook is the wrapper's in miniature: re-attach the
			// session on every fresh connection, then restore each live
			// allocation.
			ctx := context.Background()
			type liveAlloc struct {
				pid  int
				addr uint64
				size bytesize.Size
			}
			var (
				liveMu sync.Mutex
				live   []liveAlloc
			)
			rec := ipc.NewReconnector(ipc.ReconnectConfig{
				Network: "unix", Addr: sock,
				Backoff:     ipc.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
				CallTimeout: wireCallTimeout,
				Seed:        1,
				OnReconnect: func(c *ipc.Client) error {
					resp, err := c.Call(ctx, &protocol.Message{Type: protocol.TypeAttach, PID: 1})
					if err != nil {
						return err
					}
					if !resp.OK {
						return errors.New(resp.Error)
					}
					liveMu.Lock()
					defer liveMu.Unlock()
					for _, a := range live {
						resp, err := c.Call(ctx, &protocol.Message{Type: protocol.TypeRestore, PID: a.pid, Addr: a.addr, Size: int64(a.size)})
						if err != nil {
							return err
						}
						if !resp.OK {
							return errors.New(resp.Error)
						}
					}
					return nil
				},
			})
			defer rec.Close()

			if resp := mustOKRec(t, rec, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(mib300), API: "cudaMalloc"}); resp.Decision != protocol.DecisionAccept {
				t.Fatalf("alloc decision %q, want accept", resp.Decision)
			}
			mustOKRec(t, rec, &protocol.Message{Type: protocol.TypeConfirm, PID: 1, Addr: 0x100, Size: int64(mib300)})
			liveMu.Lock()
			live = append(live, liveAlloc{1, 0x100, mib300})
			liveMu.Unlock()

			c, err := rec.Connect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := c.BinaryNegotiated(); got != tc.wantBinary {
				t.Fatalf("before restart: BinaryNegotiated = %v, want %v", got, tc.wantBinary)
			}
			if g := rec.Generation(); g != 1 {
				t.Fatalf("generation before restart = %d, want 1", g)
			}

			// Crash and restart on the same base dir: recovery from the log
			// re-registers the survivors, the reconnecting client replays.
			d1.Close()
			inner2 := mkCore()
			d2, err := daemon.Start(daemon.Config{BaseDir: base, Core: inner2})
			if err != nil {
				t.Fatalf("restart: %v", err)
			}
			defer d2.Close()

			// The first Call after the crash surfaces the dead connection
			// (calls are never retried — allocation requests are not
			// idempotent); the next one redials, re-negotiates the codec,
			// and replays the session through the hook.
			waitUntil(t, "reconnector to heal onto the new daemon", func() bool {
				resp, err := rec.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, PID: 1})
				return err == nil && resp.OK
			})
			if g := rec.Generation(); g != 2 {
				t.Fatalf("generation after restart = %d, want 2 (exactly one reconnect)", g)
			}
			healed, err := rec.Connect(ctx)
			if err != nil {
				t.Fatal(err)
			}
			if got := healed.BinaryNegotiated(); got != tc.wantBinary {
				t.Fatalf("after restart: BinaryNegotiated = %v, want %v", got, tc.wantBinary)
			}

			// The recovered daemon matches the model's replay of recovery:
			// sorted session order, placement pinned first, idempotent
			// registration, then the restore the hook replayed.
			m := model.New(model.Config{Devices: 1, Capacity: capacity, Overhead: overhead, Algorithm: core.AlgBestFit, AlgSeeds: []int64{1}})
			for _, reg := range []struct {
				id    core.ContainerID
				limit bytesize.Size
			}{{"c1", limC1}, {"c2", limC2}} {
				if err := m.RestorePlacement(reg.id, 0); err != nil {
					t.Fatal(err)
				}
				if _, err := m.EnsureRegistered(reg.id, reg.limit, 0); err != nil {
					t.Fatal(err)
				}
			}
			if err := m.Restore("c1", 1, 0x100, mib300); err != nil {
				t.Fatal(err)
			}

			if err := inner2.CheckInvariants(); err != nil {
				t.Fatal(err)
			}
			views := m.Containers()
			snap := inner2.Snapshot()
			if len(snap) != len(views) {
				t.Fatalf("recovered %d containers, model has %d", len(snap), len(views))
			}
			byID := make(map[core.ContainerID]core.ContainerInfo)
			for _, info := range snap {
				byID[info.ID] = info
			}
			for _, v := range views {
				info, ok := byID[v.ID]
				if !ok {
					t.Fatalf("model container %s missing after recovery", v.ID)
				}
				if info.Limit != v.Limit || info.Grant != v.Grant || info.Used != v.Used || info.Pending != v.Pending {
					t.Fatalf("%s after recovery: real limit=%v grant=%v used=%v pending=%d, model limit=%v grant=%v used=%v pending=%d",
						v.ID, info.Limit, info.Grant, info.Used, info.Pending, v.Limit, v.Grant, v.Used, v.Pending)
				}
			}
			if got, want := inner2.PoolFree(), m.Pools()[0]; got != want {
				t.Fatalf("pool after recovery: real %v, model %v", got, want)
			}
		})
	}
}
