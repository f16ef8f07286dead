package main

import (
	"context"
	"fmt"
	"math/rand"
	"path/filepath"
	"sync"
	"time"

	"convgpu"
	"convgpu/internal/core"
	"convgpu/internal/ipc"
	"convgpu/internal/multigpu"
	"convgpu/internal/nvdocker"
	"convgpu/internal/policy"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
	"convgpu/internal/wrapper"
)

// leafProbes times each layer directly, from outside, by calling its
// exported functions: the numbers a change to one layer should move
// first. They are the same on every workload; what a workload makes the
// layers do is measured around its own operations instead.
func leafProbes(o *options, rep *report) error {
	probeProtocol(o, rep)
	if err := probeCore(o, rep); err != nil {
		return fmt.Errorf("core: %w", err)
	}
	probePolicy(o, rep)
	echoJSON, err := probeIPC(o, rep)
	if err != nil {
		return fmt.Errorf("ipc: %w", err)
	}
	if err := probeWAL(o, rep); err != nil {
		return fmt.Errorf("wal: %w", err)
	}
	if err := probeStack(o, rep, echoJSON); err != nil {
		return fmt.Errorf("stack: %w", err)
	}
	return nil
}

// probeBudget bounds one probe whatever the machine does.
const probeBudget = 500 * time.Millisecond

// timeEach times up to n calls of f one by one.
func timeEach(n int, f func(i int) error) (*series, error) {
	s := newSeries(n)
	begin := time.Now()
	for i := 0; i < n && time.Since(begin) < probeBudget; i++ {
		start := time.Now()
		if err := f(i); err != nil {
			return s, err
		}
		s.add(int64(time.Since(start)))
	}
	return s, nil
}

// perCallNs times batches of calls too short to time one by one and
// returns the median batch's time per call.
func perCallNs(batches, size int, f func()) (float64, int) {
	s := newSeries(batches)
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < size; i++ {
			f()
		}
		s.add(int64(time.Since(start)))
	}
	return s.pct(0.5) / float64(size), batches * size
}

func us(ns float64) float64 { return ns / 1e3 }

func probeProtocol(o *options, rep *report) {
	req := &protocol.Message{Type: protocol.TypeAlloc, Seq: 123456, PID: 41, Size: 4 << 20, API: "cudaMalloc"}
	resp := &protocol.Message{Type: protocol.TypeResponse, Seq: 123456, OK: true, Decision: protocol.DecisionAccept}
	buf := make([]byte, 0, 256)
	frame, _ := protocol.AppendEncodeBinary(nil, resp)
	line, _ := protocol.Encode(resp)
	var m protocol.Message
	batches := o.scaled(200)

	v, n := perCallNs(batches, 100, func() { buf, _ = protocol.AppendEncodeBinary(buf[:0], req) })
	rep.set("protocol.binary_encode_ns", v, n)
	v, n = perCallNs(batches, 100, func() {
		op, size, seq, _ := protocol.ParseBinaryHeader(frame[:protocol.BinaryHeaderSize])
		m.Reset()
		protocol.DecodeBinaryInto(&m, op, seq, frame[protocol.BinaryHeaderSize:protocol.BinaryHeaderSize+size])
	})
	rep.set("protocol.binary_decode_ns", v, n)
	v, n = perCallNs(batches, 100, func() { buf = protocol.AppendEncode(buf[:0], req) })
	rep.set("protocol.json_encode_ns", v, n)
	v, n = perCallNs(batches, 100, func() {
		m.Reset()
		protocol.DecodeInto(&m, line)
	})
	rep.set("protocol.json_decode_ns", v, n)
}

// probeCore times the scheduler with no transport: the fast path a cycle
// takes three times, and the slow paths a handoff crosses, with the
// resident cohort registered so the scans are not over an empty table.
func probeCore(o *options, rep *report) error {
	alg, err := policy.NewWake(convgpu.BestFit, policy.Config{})
	if err != nil {
		return err
	}
	st, err := core.New(core.Config{Capacity: convgpu.GiB + residents*residentSize, Algorithm: alg})
	if err != nil {
		return err
	}
	for i := 0; i < residents; i++ {
		if _, err := st.Register(core.ContainerID(fmt.Sprintf("%s%02d", residentTag, i)), residentSize); err != nil {
			return err
		}
	}

	if _, err := st.Register("c", 512*convgpu.MiB); err != nil {
		return err
	}
	n := o.scaled(20000)
	request, confirm, free := newSeries(n), newSeries(n), newSeries(n)
	for i := 0; i < n; i++ {
		addr := uint64(i + 1)
		t0 := time.Now()
		res, err := st.RequestAlloc("c", 1, 4096)
		t1 := time.Now()
		if err != nil || res.Decision != core.Accept {
			return fmt.Errorf("fast path: %v %v", res.Decision, err)
		}
		if err := st.ConfirmAlloc("c", 1, addr, 4096); err != nil {
			return err
		}
		t2 := time.Now()
		if _, _, err := st.Free("c", 1, addr); err != nil {
			return err
		}
		t3 := time.Now()
		request.add(int64(t1.Sub(t0)))
		confirm.add(int64(t2.Sub(t1)))
		free.add(int64(t3.Sub(t2)))
	}
	if _, _, err := st.Close("c"); err != nil {
		return err
	}
	rep.set("core.request_alloc_ns", request.pct(0.5), n)
	rep.set("core.confirm_ns", confirm.pct(0.5), n)
	rep.set("core.free_ns", free.pct(0.5), n)

	n = o.scaled(2000)
	suspend, closeAdmit := newSeries(n), newSeries(n)
	for i := 0; i < n; i++ {
		if _, err := st.Register("a", handoffLimit); err != nil {
			return err
		}
		if res, err := st.RequestAlloc("a", 1, 600*convgpu.MiB); err != nil || res.Decision != core.Accept {
			return fmt.Errorf("holder: %v %v", res.Decision, err)
		}
		if err := st.ConfirmAlloc("a", 1, 1, 600*convgpu.MiB); err != nil {
			return err
		}
		if _, err := st.Register("b", handoffLimit); err != nil {
			return err
		}
		t0 := time.Now()
		res, err := st.RequestAlloc("b", 2, 600*convgpu.MiB)
		t1 := time.Now()
		if err != nil || res.Decision != core.Suspend {
			return fmt.Errorf("newcomer: %v %v", res.Decision, err)
		}
		_, u, err := st.Close("a")
		t2 := time.Now()
		if err != nil || len(u.Admitted) != 1 {
			return fmt.Errorf("close admitted %d tickets: %v", len(u.Admitted), err)
		}
		if _, _, err := st.Close("b"); err != nil {
			return err
		}
		suspend.add(int64(t1.Sub(t0)))
		closeAdmit.add(int64(t2.Sub(t1)))
	}
	rep.set("core.suspend_ns", suspend.pct(0.5), n)
	rep.set("core.close_admit_ns", closeAdmit.pct(0.5), n)
	return nil
}

func probePolicy(o *options, rep *report) {
	rng := rand.New(rand.NewSource(1))
	cands := make([]core.Candidate, 3200)
	for i := range cands {
		cands[i] = core.Candidate{
			ID:         core.ContainerID(fmt.Sprint("c", i)),
			CreatedSeq: uint64(i), SuspendSeq: uint64(rng.Intn(1 << 20)),
			Deficit: convgpu.Size(1+rng.Intn(4096)) * convgpu.MiB,
		}
	}
	pool := 2 * convgpu.GiB
	var sink int
	v, n := perCallNs(o.scaled(200), 100, func() { sink += core.BestFit{}.Pick(pool, cands[:32]) })
	rep.set("policy.pick_32_ns", v, n)
	v, n = perCallNs(o.scaled(500), 1, func() { sink += core.BestFit{}.Pick(pool, cands) })
	rep.set("policy.pick_3200_ns", v, n)
	devs := make([]multigpu.DeviceInfo, 4)
	for i := range devs {
		devs[i] = multigpu.DeviceInfo{Index: i, Capacity: 5 * convgpu.GiB, PoolFree: convgpu.Size(1+rng.Intn(5)) * convgpu.GiB, Containers: rng.Intn(100)}
	}
	v, n = perCallNs(o.scaled(200), 100, func() { sink += multigpu.LeastLoaded{}.Place(convgpu.GiB, devs) })
	rep.set("multigpu.place_ns", v, n)
	_ = sink
}

// echo answers every request with a bare ok: the transport's own cost.
type echo struct{}

func (echo) Handle(_ *ipc.ServerConn, _ *protocol.Message, respond func(*protocol.Message)) {
	m := protocol.AcquireMessage()
	m.OK = true
	respond(m)
}
func (echo) Closed(*ipc.ServerConn) {}

// roundTrip is one request/response on a raw client.
func roundTrip(cli *ipc.Client, m *protocol.Message) (*protocol.Message, error) {
	resp, err := cli.Call(context.Background(), m)
	if err != nil {
		return nil, err
	}
	if !resp.OK {
		err = fmt.Errorf("%s refused: %s", m.Type, resp.Error)
		protocol.ReleaseMessage(resp)
		return nil, err
	}
	return resp, nil
}

func ping(cli *ipc.Client) error {
	resp, err := roundTrip(cli, &protocol.Message{Type: protocol.TypeMemInfo, PID: 2})
	if err == nil {
		protocol.ReleaseMessage(resp)
	}
	return err
}

// dialBinary connects and negotiates the binary codec, as the stack's
// control channel does.
func dialBinary(path string) (*ipc.Client, error) {
	cli, err := ipc.Dial(path)
	if err != nil {
		return nil, err
	}
	if ok, err := cli.NegotiateBinary(context.Background()); err != nil || !ok {
		cli.Close()
		return nil, fmt.Errorf("binary codec not negotiated: %v", err)
	}
	return cli, nil
}

// probeIPC also returns the JSON echo round trip's median in µs, which
// probeStack subtracts from a round trip through the daemon.
func probeIPC(o *options, rep *report) (echoJSON float64, err error) {
	path := filepath.Join(o.runDir, "echo.sock")
	srv, err := ipc.Listen(path, echo{})
	if err != nil {
		return 0, err
	}
	defer srv.Close()
	bin, err := dialBinary(path)
	if err != nil {
		return 0, err
	}
	defer bin.Close()
	plain, err := ipc.Dial(path)
	if err != nil {
		return 0, err
	}
	defer plain.Close()

	n := o.scaled(5000)
	s, err := timeEach(n, func(int) error { return ping(bin) })
	if err != nil {
		return 0, err
	}
	rep.set("ipc.echo_rtt_p50_us", us(s.pct(0.5)), s.n())
	if s, err = timeEach(n, func(int) error { return ping(plain) }); err != nil {
		return 0, err
	}
	echoJSON = us(s.pct(0.5))
	rep.set("ipc.echo_rtt_json_p50_us", echoJSON, s.n())

	// Two callers keep two requests in flight on one connection; the
	// figure is wall time per call.
	var wg sync.WaitGroup
	errs := make([]error, 2)
	start := time.Now()
	for g := range errs {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n/2 && errs[g] == nil; i++ {
				errs[g] = ping(bin)
			}
		}()
	}
	wg.Wait()
	if errs[0] != nil || errs[1] != nil {
		return 0, fmt.Errorf("pipelined echo: %v %v", errs[0], errs[1])
	}
	rep.set("ipc.echo_rtt_depth2_us", us(float64(time.Since(start)))/float64(n/2*2), n/2*2)

	s, err = timeEach(o.scaled(300), func(int) error {
		cli, err := dialBinary(path)
		if err == nil {
			cli.Close()
		}
		return err
	})
	if err != nil {
		return 0, err
	}
	rep.set("ipc.dial_negotiate_us", us(s.pct(0.5)), s.n())
	return echoJSON, nil
}

func probeWAL(o *options, rep *report) error {
	rec := wal.Record{Kind: wal.KindGrant, Container: "cycle", Amount: 4096, PID: 1001}
	appendTo := func(l *wal.Log) func(int) error {
		return func(int) error {
			rec.At = time.Now().UnixNano()
			_, err := l.Append(rec)
			return err
		}
	}
	dir := filepath.Join(o.runDir, "probe-wal")
	l, err := wal.Open(wal.Options{Dir: dir, Sync: wal.SyncNone})
	if err != nil {
		return err
	}
	s, err := timeEach(o.scaled(5000), appendTo(l))
	l.Close()
	if err != nil {
		return err
	}
	rep.set("wal.append_nosync_us", us(s.pct(0.5)), s.n())

	if l, err = wal.Open(wal.Options{Dir: dir}); err != nil { // default policy: fsync on every append
		return err
	}
	s, err = timeEach(o.scaled(1000), appendTo(l))
	l.Close()
	if err != nil {
		return err
	}
	rep.set("wal.append_fsync_p50_us", us(s.pct(0.5)), s.n())
	rep.set("wal.append_fsync_p99_us", us(s.pct(0.99)), s.n())

	start := time.Now()
	if l, err = wal.Open(wal.Options{Dir: dir}); err != nil {
		return err
	}
	rep.set("wal.open_replay_s", time.Since(start).Seconds(), int(l.Stats().Replayed))
	return l.Close()
}

// probeStack times the daemon's round trips and one container's life on
// a stack of the common rig.
func probeStack(o *options, rep *report, echoJSON float64) error {
	r, err := newRig(o, convgpu.GiB, false)
	if err != nil {
		return err
	}
	defer r.remove()
	defer r.st.Close()
	if err := probeContainerSocket(o, rep, r, echoJSON); err != nil {
		return err
	}
	if err := probeControlSocket(o, rep, r); err != nil {
		return err
	}
	return probeContainerLife(o, rep, r)
}

// probeContainerSocket times a round trip on a container's socket, on
// the codec a wrapper gets.
func probeContainerSocket(o *options, rep *report, r *rig, echoJSON float64) error {
	c, err := r.create("probe", 128*convgpu.MiB, noop)
	if err != nil {
		return err
	}
	cli, err := ipc.Dial(filepath.Join(c.Spec().Volumes[nvdocker.WrapperMountPoint], wrapper.SocketFileName))
	if err != nil {
		return err
	}
	defer cli.Close()
	s, err := timeEach(o.scaled(5000), func(int) error { return ping(cli) })
	if err != nil {
		return err
	}
	meminfo := us(s.pct(0.5))
	rep.set("daemon.meminfo_rtt_p50_us", meminfo, s.n())
	rep.set("daemon.self_us", meminfo-echoJSON, s.n())
	return nil
}

// probeControlSocket times the control socket as nvidia-docker and the
// plugin use it: register, close, and a close that admits a parked
// allocation.
func probeControlSocket(o *options, rep *report, r *rig) error {
	ctl, err := dialBinary(r.st.ControlSocket())
	if err != nil {
		return err
	}
	defer ctl.Close()
	register := func(id string, limit convgpu.Size) (string, error) {
		resp, err := roundTrip(ctl, &protocol.Message{Type: protocol.TypeRegister, Container: id, Limit: int64(limit)})
		if err != nil {
			return "", err
		}
		defer protocol.ReleaseMessage(resp)
		return filepath.Join(resp.SocketDir, wrapper.SocketFileName), nil
	}
	closeContainer := func(id string) error {
		resp, err := roundTrip(ctl, &protocol.Message{Type: protocol.TypeClose, Container: id})
		if err == nil {
			protocol.ReleaseMessage(resp)
		}
		return err
	}
	n := o.scaled(300)
	reg, cls := newSeries(n), newSeries(n)
	for i := 0; i < n; i++ {
		id := fmt.Sprint("reg", i)
		t0 := time.Now()
		if _, err := register(id, convgpu.MiB); err != nil {
			return err
		}
		t1 := time.Now()
		if err := closeContainer(id); err != nil {
			return err
		}
		reg.add(int64(t1.Sub(t0)))
		cls.add(int64(time.Since(t1)))
	}
	rep.set("daemon.register_rtt_p50_us", us(reg.pct(0.5)), n)
	rep.set("daemon.close_rtt_p50_us", us(cls.pct(0.5)), n)

	// A close that admits a parked allocation: close sent → parked reply
	// received, the daemon's share of a handoff.
	n = o.scaled(100)
	resume := newSeries(n)
	for i := 0; i < n; i++ {
		a, b := fmt.Sprint("hold", i), fmt.Sprint("wait", i)
		sockA, err := register(a, handoffLimit)
		if err != nil {
			return err
		}
		cliA, err := ipc.Dial(sockA)
		if err != nil {
			return err
		}
		alloc := &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: int64(600 * convgpu.MiB), API: "cudaMalloc"}
		resp, err := roundTrip(cliA, alloc)
		if err != nil {
			return err
		}
		protocol.ReleaseMessage(resp)
		sockB, err := register(b, handoffLimit)
		if err != nil {
			return err
		}
		cliB, err := ipc.Dial(sockB)
		if err != nil {
			return err
		}
		suspends := r.events(core.EvSuspend)
		answered := make(chan time.Time, 1)
		go func() {
			resp, err := roundTrip(cliB, &protocol.Message{Type: protocol.TypeAlloc, PID: 2, Size: alloc.Size, API: "cudaMalloc"})
			if err == nil {
				protocol.ReleaseMessage(resp)
			}
			answered <- time.Now()
		}()
		for limit := time.Now().Add(handoffDeadline); r.events(core.EvSuspend) == suspends; {
			if time.Now().After(limit) {
				return fmt.Errorf("allocation was not suspended")
			}
			time.Sleep(20 * time.Microsecond)
		}
		time.Sleep(guard)
		sent := time.Now()
		if err := closeContainer(a); err != nil {
			return err
		}
		select {
		case at := <-answered:
			resume.add(int64(at.Sub(sent)))
		case <-time.After(handoffDeadline):
			return fmt.Errorf("parked allocation was not answered")
		}
		if err := closeContainer(b); err != nil {
			return err
		}
		cliA.Close()
		cliB.Close()
	}
	rep.set("daemon.resume_dispatch_us", us(resume.pct(0.5)), n)
	return nil
}

// probeContainerLife times one container's life through the facade:
// create, start, exit, close.
func probeContainerLife(o *options, rep *report, r *rig) error {
	n := o.scaled(300)
	create, start, exit := newSeries(n), newSeries(n), newSeries(n)
	var firstLine time.Time
	prog := func(*convgpu.Proc) error {
		firstLine = time.Now()
		return nil
	}
	for i := 0; i < n; i++ {
		t0 := time.Now()
		c, err := r.create("", 64*convgpu.MiB, prog)
		if err != nil {
			return err
		}
		t1 := time.Now()
		if err := c.Start(); err != nil {
			return err
		}
		if err := c.Wait(); err != nil {
			return err
		}
		t2 := time.Now()
		create.add(int64(t1.Sub(t0)))
		start.add(int64(firstLine.Sub(t1)))
		exit.add(int64(t2.Sub(firstLine)))
	}
	rep.set("nvdocker.create_p50_us", us(create.pct(0.5)), n)
	rep.set("container.start_us", us(start.pct(0.5)), n)
	rep.set("plugin.exit_to_close_us", us(exit.pct(0.5)), n)
	return nil
}
