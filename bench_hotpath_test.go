// Hot-path benchmarks (run `make bench` or
// `go test -bench=BenchmarkHotPath -benchmem`): the steady-state accept
// path the paper's Fig. 4 overhead numbers hinge on, measured at three
// altitudes so a regression is attributable to one layer:
//
//	BenchmarkHotPathBinary*       the fixed alloc/response message shapes
//	                              through the binary data-path codec
//	                              (0 allocs/op)
//	BenchmarkHotPathCore*         scheduler admit/confirm/free with no
//	                              transport (fast-path admit territory)
//	BenchmarkHotPathRouted*       the same cycle through the multi-device
//	                              routing plane (placement lookup + member
//	                              forward) — must stay 0 allocs/op
//	BenchmarkHotPathSocketFloor   one frame echoed each way over a UNIX
//	                              socketpair by the read rule, no
//	                              middleware: the wake-up floor
//	BenchmarkHotPathRoundTrip*    end-to-end over the daemon's real UNIX
//	                              socket, zero device latency
//	BenchmarkHotPathFacadeCycleWAL the loop BENCHMARK.json's cycle_wal
//	                              runs, through the public facade
//
// TestWrappedCycleAllocatesNothing holds the wrapped cycle at zero
// allocations in tier-1; `make benchdiff` holds the benchmarks there.
// TestWrappedCycleIsOneWrite, beside it, holds the cycle at one socket
// write for its three frames, and TestWrappedCycleSyscalls at two reads
// and two writes, client and daemon together.
//
// CHANGES.md records the seed-vs-optimized numbers for these.
package convgpu_test

import (
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"testing"
	"time"
	"unsafe"

	"convgpu"
	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/cuda"
	"convgpu/internal/daemon"
	"convgpu/internal/fault"
	"convgpu/internal/gpu"
	"convgpu/internal/ipc"
	"convgpu/internal/multigpu"
	"convgpu/internal/obs"
	"convgpu/internal/protocol"
	"convgpu/internal/wal"
	"convgpu/internal/wrapper"
)

func hotPathAllocMsg() *protocol.Message {
	return &protocol.Message{
		Type: protocol.TypeAlloc,
		Seq:  123456,
		PID:  41,
		Size: int64(4 * bytesize.MiB),
		API:  "cudaMalloc",
	}
}

func hotPathRespMsg() *protocol.Message {
	return &protocol.Message{
		Type:     protocol.TypeResponse,
		Seq:      123456,
		OK:       true,
		Decision: protocol.DecisionAccept,
	}
}

// --- binary data-path codec ---

func BenchmarkHotPathBinaryEncode(b *testing.B) {
	m := hotPathAllocMsg()
	buf := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, ok := protocol.AppendEncodeBinary(buf[:0], m)
		if !ok {
			b.Fatal("alloc message not binary-representable")
		}
		buf = out[:0]
	}
}

func BenchmarkHotPathBinaryDecode(b *testing.B) {
	frame, ok := protocol.AppendEncodeBinary(nil, hotPathRespMsg())
	if !ok {
		b.Fatal("response message not binary-representable")
	}
	var m protocol.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		op, n, seq, err := protocol.ParseBinaryHeader(frame[:protocol.BinaryHeaderSize])
		if err != nil {
			b.Fatal(err)
		}
		m.Reset()
		if err := protocol.DecodeBinaryInto(&m, op, seq, frame[protocol.BinaryHeaderSize:protocol.BinaryHeaderSize+n]); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkHotPathBinaryRoundTrip(b *testing.B) {
	req := hotPathAllocMsg()
	buf := make([]byte, 0, 256)
	var m protocol.Message
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		frame, ok := protocol.AppendEncodeBinary(buf[:0], req)
		if !ok {
			b.Fatal("not binary-representable")
		}
		op, n, seq, err := protocol.ParseBinaryHeader(frame[:protocol.BinaryHeaderSize])
		if err != nil {
			b.Fatal(err)
		}
		m.Reset()
		if err := protocol.DecodeBinaryInto(&m, op, seq, frame[protocol.BinaryHeaderSize:protocol.BinaryHeaderSize+n]); err != nil {
			b.Fatal(err)
		}
		buf = frame[:0]
	}
}

// --- core ---

// BenchmarkHotPathCoreAccept is the scheduler's steady-state cycle for a
// container far below its grant: accept, confirm, free, never a
// redistribution. Observability is bound, as in the real daemon: every
// event bumps a per-kind counter and lands in the trace ring, and the
// 0 allocs/op budget must hold with that on.
func BenchmarkHotPathCoreAccept(b *testing.B) { benchCoreAccept(b, true) }

// BenchmarkHotPathCoreAcceptBare is the same cycle with no observer
// bound: the difference to BenchmarkHotPathCoreAccept is what
// observability costs core admit.
func BenchmarkHotPathCoreAcceptBare(b *testing.B) { benchCoreAccept(b, false) }

func benchCoreAccept(b *testing.B, observed bool) {
	st, err := core.New(core.Config{Capacity: 1 << 40})
	if err != nil {
		b.Fatal(err)
	}
	if observed {
		obs.New(obs.Config{Algorithm: "fifo"}).BindCore(st)
	}
	if _, err := st.Register("c", 1<<39); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.RequestAlloc("c", 1, 4096)
		if err != nil || res.Decision != core.Accept {
			b.Fatalf("%v %v", res, err)
		}
		addr := uint64(i + 1)
		if err := st.ConfirmAlloc("c", 1, addr, 4096); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Free("c", 1, addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathCoreAcceptParallel stresses scheduler lock contention:
// many containers, each its own goroutine, all in the steady-state cycle.
func BenchmarkHotPathCoreAcceptParallel(b *testing.B) {
	st, err := core.New(core.Config{Capacity: 1 << 44})
	if err != nil {
		b.Fatal(err)
	}
	obs.New(obs.Config{Algorithm: "fifo"}).BindCore(st)
	ids := make([]core.ContainerID, 16)
	for i := range ids {
		ids[i] = core.ContainerID("c" + string(rune('a'+i)))
		if _, err := st.Register(ids[i], 1<<39); err != nil {
			b.Fatal(err)
		}
	}
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		id := ids[int(atomicAdd(&next, 1))%len(ids)]
		addr := uint64(atomicAdd(&next, 1)) << 32
		for pb.Next() {
			addr++
			res, err := st.RequestAlloc(id, 1, 4096)
			if err != nil || res.Decision != core.Accept {
				b.Errorf("%v %v", res, err)
				return
			}
			if err := st.ConfirmAlloc(id, 1, addr, 4096); err != nil {
				b.Error(err)
				return
			}
			if _, _, err := st.Free(id, 1, addr); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// --- device routing ---

// newRoutedState builds a multi-device scheduler with one registered
// container, observability bound as in the real daemon.
func newRoutedState(b *testing.B, devices int) *multigpu.State {
	b.Helper()
	st, err := multigpu.New(multigpu.Config{
		Devices:           devices,
		CapacityPerDevice: 1 << 40,
		Policy:            &multigpu.RoundRobin{},
	})
	if err != nil {
		b.Fatal(err)
	}
	obs.New(obs.Config{Algorithm: "fifo"}).BindCore(st)
	if _, err := st.Register("c", 1<<39); err != nil {
		b.Fatal(err)
	}
	return st
}

// benchRoutedAccept runs the steady-state accept cycle through the
// routing plane: every operation resolves the container's placement and
// forwards to the owning device's core.
func benchRoutedAccept(b *testing.B, devices int) {
	st := newRoutedState(b, devices)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := st.RequestAlloc("c", 1, 4096)
		if err != nil || res.Decision != core.Accept {
			b.Fatalf("%v %v", res, err)
		}
		addr := uint64(i + 1)
		if err := st.ConfirmAlloc("c", 1, addr, 4096); err != nil {
			b.Fatal(err)
		}
		if _, _, err := st.Free("c", 1, addr); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkHotPathRoutedAccept1Device is the single-device fast path
// served through the routing plane: the delta against
// BenchmarkHotPathCoreAccept is the pure cost of device routing, and
// the 0 allocs/op budget must hold unchanged.
func BenchmarkHotPathRoutedAccept1Device(b *testing.B) { benchRoutedAccept(b, 1) }

// BenchmarkHotPathRoutedAccept2Devices is the same cycle against a
// 2-device scheduler — placement lookup across a populated map, still
// 0 allocs/op.
func BenchmarkHotPathRoutedAccept2Devices(b *testing.B) { benchRoutedAccept(b, 2) }

// BenchmarkHotPathRoutedAccept64Devices scales the routing plane to 64
// member cores: with the admission core sharded, per-op cost must stay
// within 15% of the 1-device row — the backend count must not leak into
// the per-operation path.
func BenchmarkHotPathRoutedAccept64Devices(b *testing.B) { benchRoutedAccept(b, 64) }

// --- end to end ---

// benchRig is the measured single-container path with no device
// latency — daemon over a real UNIX socket, one registered container,
// wrapper module — so that what remains is pure middleware cost (codec +
// transport + scheduler).
type benchRig struct {
	daemon  *daemon.Daemon
	wrapCli *ipc.Client
	sockDir string // the registered container's socket directory
	wrapped *wrapper.Module
}

// newHotPathRig builds the rig, the daemon over log when one is given.
// Its wrapper connection must be on binary frames, like every
// container's.
func newHotPathRig(b testing.TB, log *wal.Log, opts ...wrapper.Option) *benchRig {
	b.Helper()
	st, err := core.New(core.Config{Capacity: 5 * bytesize.GiB})
	if err != nil {
		b.Fatal(err)
	}
	d, err := daemon.Start(daemon.Config{BaseDir: b.TempDir(), Core: st, WAL: log})
	if err != nil {
		b.Fatal(err)
	}
	ctl, err := ipc.Dial(d.ControlSocket())
	if err != nil {
		b.Fatal(err)
	}
	resp, err := ctl.Call(context.Background(), &protocol.Message{
		Type: protocol.TypeRegister, Container: "bench", Limit: int64(4 * bytesize.GiB),
	})
	if err != nil || !resp.OK {
		b.Fatalf("register: %v %v", resp, err)
	}
	r := &benchRig{daemon: d, sockDir: resp.SocketDir}
	r.wrapCli, err = ipc.DialNegotiated(context.Background(), filepath.Join(r.sockDir, protocol.SocketFileName))
	if err != nil {
		b.Fatal(err)
	}
	r.wrapped = wrapper.New(cuda.NewRuntime(gpu.New(gpu.K20m()), 2), r.wrapCli, 2, opts...)
	b.Cleanup(func() {
		r.wrapCli.Close()
		ctl.Close()
		d.Close()
	})
	if !r.wrapCli.BinaryNegotiated() {
		b.Fatal("the rig's wrapper connection did not negotiate binary")
	}
	return r
}

// benchRoundTrip1RTT measures a single request/response round trip over
// the daemon's real UNIX socket — one meminfo query per iteration, the
// purest transport + dispatch cost. The binary variant is the rig's own
// wrapper connection, the sub-5µs/≤4-allocs budget row; the JSON variant
// is a second, un-negotiated connection to the same socket: the
// control/debug format's price for comparison.
func benchRoundTrip1RTT(b *testing.B, binary bool) {
	r := newHotPathRig(b, nil)
	cli := r.wrapCli
	if !binary {
		var err error
		if cli, err = ipc.Dial(filepath.Join(r.sockDir, protocol.SocketFileName)); err != nil {
			b.Fatal(err)
		}
		defer cli.Close()
	}
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, PID: 2})
		if err != nil || !resp.OK {
			b.Fatalf("meminfo: %+v %v", resp, err)
		}
		protocol.ReleaseMessage(resp)
	}
}

func BenchmarkHotPathRoundTrip1RTTBinary(b *testing.B) { benchRoundTrip1RTT(b, true) }
func BenchmarkHotPathRoundTrip1RTTJSON(b *testing.B)   { benchRoundTrip1RTT(b, false) }

// BenchmarkHotPathSocketFloor is what a round trip costs below the
// middleware: two goroutines echo one binary alloc frame each way over a
// UNIX socketpair, each end reading and writing its fd inside
// RawConn.Read by the transport's read rule (after writing, it waits
// without the read that would find nothing). No codec, no handler, no
// coalescer: the difference to BenchmarkHotPathRoundTrip1RTTBinary is
// the transport and the daemon, and a wrapped cycle, one round trip with
// its two reports in front, costs at least this. Its reads and writes are
// raw, as the transport's on a held fd are (rawRW).
func BenchmarkHotPathSocketFloor(b *testing.B) {
	fds, err := syscall.Socketpair(syscall.AF_UNIX, syscall.SOCK_STREAM|syscall.SOCK_CLOEXEC, 0)
	if err != nil {
		b.Fatal(err)
	}
	var conns [2]net.Conn
	var raws [2]syscall.RawConn
	for i, fd := range fds {
		f := os.NewFile(uintptr(fd), "socketpair")
		conns[i], err = net.FileConn(f) // a dup, on the poller
		f.Close()
		if err != nil {
			b.Fatal(err)
		}
		defer conns[i].Close()
		if raws[i], err = conns[i].(syscall.Conn).SyscallConn(); err != nil {
			b.Fatal(err)
		}
	}
	frame, _ := protocol.AppendEncodeBinary(nil, hotPathAllocMsg())
	echoed := make(chan struct{})
	go func() { // the peer: each read's bytes go straight back
		defer close(echoed)
		buf := make([]byte, 16*1024) // room for many frames, as the transport's read buffer has
		_ = raws[1].Read(func(fd uintptr) bool {
			n, err := rawRW(syscall.SYS_READ, fd, buf)
			if err == syscall.EAGAIN {
				return false
			}
			if err != nil || n == 0 { // the other end closed
				return true
			}
			_, err = rawRW(syscall.SYS_WRITE, fd, buf[:n])
			return err != nil // wrote since the read: wait without reading
		})
	}()

	buf := make([]byte, len(frame))
	var wrote bool
	var got int
	var ioErr error
	roundTrip := func(fd uintptr) bool {
		if !wrote {
			wrote = true
			_, ioErr = rawRW(syscall.SYS_WRITE, fd, frame)
			return ioErr != nil // wrote since the last read: wait without reading
		}
		n, err := rawRW(syscall.SYS_READ, fd, buf[got:])
		if err == syscall.EAGAIN {
			return false
		}
		if err != nil || n == 0 {
			ioErr = fmt.Errorf("echo: read %d: %v", n, err)
			return true
		}
		got += n
		return got == len(frame) // the rest of a cut frame is on its way
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		wrote, got = false, 0
		if err := raws[0].Read(roundTrip); err != nil || ioErr != nil {
			b.Fatal(err, ioErr)
		}
	}
	b.StopTimer()
	conns[0].Close() // the peer reads the end of the stream
	<-echoed
	if string(buf) != string(frame) {
		b.Fatal("the echo is not the frame")
	}
}

// rawRW is one read(2) or write(2) (trap) of p on fd the way ipc issues
// them on a held, non-blocking fd: without the runtime's syscall
// bookkeeping, which a fd that never blocks does not need.
func rawRW(trap, fd uintptr, p []byte) (int, error) {
	n, _, e := syscall.RawSyscall(trap, fd, uintptr(unsafe.Pointer(unsafe.SliceData(p))), uintptr(len(p)))
	if e != 0 {
		return 0, e
	}
	return int(n), nil
}

// BenchmarkHotPathRoundTripPipelined keeps 8 calls in flight on one
// binary connection — the shape the per-connection seq ring exists for.
// A sequential RTT pays four syscalls and two scheduler wakeups per
// call; with the pipeline full, the write coalescer batches frames and
// each wakeup drains several responses, so amortized per-call cost
// drops well under one synchronous RTT.
func BenchmarkHotPathRoundTripPipelined(b *testing.B) {
	const depth = 8
	r := newHotPathRig(b, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	var wg sync.WaitGroup
	errc := make(chan error, depth)
	for g := 0; g < depth; g++ {
		wg.Add(1)
		go func(n int) {
			defer wg.Done()
			for i := 0; i < n; i++ {
				resp, err := r.wrapCli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, PID: 2})
				if err != nil || !resp.OK {
					errc <- fmt.Errorf("meminfo: %+v %v", resp, err)
					return
				}
				protocol.ReleaseMessage(resp)
			}
		}(b.N / depth)
	}
	wg.Wait()
	b.StopTimer()
	close(errc)
	for err := range errc {
		b.Fatal(err)
	}
}

// BenchmarkHotPathRoundTrip measures one accepted allocation round trip
// over the daemon's real UNIX socket: alloc (accept), confirm, free —
// three RTTs per iteration, on the negotiated binary codec.
func BenchmarkHotPathRoundTrip(b *testing.B) {
	r := newHotPathRig(b, nil)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		resp, err := r.wrapCli.Call(ctx, &protocol.Message{
			Type: protocol.TypeAlloc, PID: 2, Size: 4096, API: "cudaMalloc",
		})
		if err != nil || !resp.OK || resp.Decision != protocol.DecisionAccept {
			b.Fatalf("alloc: %+v %v", resp, err)
		}
		addr := uint64(i + 1)
		resp, err = r.wrapCli.Call(ctx, &protocol.Message{
			Type: protocol.TypeConfirm, PID: 2, Size: 4096, Addr: addr,
		})
		if err != nil || !resp.OK {
			b.Fatalf("confirm: %+v %v", resp, err)
		}
		resp, err = r.wrapCli.Call(ctx, &protocol.Message{
			Type: protocol.TypeFree, PID: 2, Addr: addr,
		})
		if err != nil || !resp.OK {
			b.Fatalf("free: %+v %v", resp, err)
		}
	}
}

// BenchmarkHotPathRoundTripParallel multiplexes concurrent allocation
// cycles over one connection — the several-blocked-processes shape the
// pipelined sequence numbers exist for, on the binary codec.
func BenchmarkHotPathRoundTripParallel(b *testing.B) {
	r := newHotPathRig(b, nil)
	ctx := context.Background()
	var next int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		pid := 100 + int(atomicAdd(&next, 1))
		addr := uint64(pid) << 32
		for pb.Next() {
			addr++
			resp, err := r.wrapCli.Call(ctx, &protocol.Message{
				Type: protocol.TypeAlloc, PID: pid, Size: 4096, API: "cudaMalloc",
			})
			if err != nil || !resp.OK || resp.Decision != protocol.DecisionAccept {
				b.Errorf("alloc: %+v %v", resp, err)
				return
			}
			resp, err = r.wrapCli.Call(ctx, &protocol.Message{
				Type: protocol.TypeConfirm, PID: pid, Size: 4096, Addr: addr,
			})
			if err != nil || !resp.OK {
				b.Errorf("confirm: %+v %v", resp, err)
				return
			}
			resp, err = r.wrapCli.Call(ctx, &protocol.Message{
				Type: protocol.TypeFree, PID: pid, Addr: addr,
			})
			if err != nil || !resp.OK {
				b.Errorf("free: %+v %v", resp, err)
				return
			}
		}
	})
}

// BenchmarkHotPathWrappedMallocFree is the full wrapper-module cycle over
// the socket with zero device latency — the closest analogue of the
// paper's intercepted cudaMalloc cost with hardware time subtracted.
func BenchmarkHotPathWrappedMallocFree(b *testing.B) {
	r := newHotPathRig(b, nil)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ptr, err := r.wrapped.Malloc(4096)
		if err != nil {
			b.Fatal(err)
		}
		if err := r.wrapped.Free(ptr); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	if err := r.wrapped.Flush(); err != nil { // the last reports are applied, none was refused
		b.Fatal(err)
	}
}

// BenchmarkHotPathFacadeCycleWAL is the loop the repository's benchmark
// judges as cycle_wal: a stack with a write-ahead log at the default
// fsync-on-every-append runs a container whose program loops Malloc+Free
// under the container's cancellable context. Registration is synced to
// disk before the loop; the loop itself must touch neither the disk nor
// the heap.
func BenchmarkHotPathFacadeCycleWAL(b *testing.B) {
	st, err := convgpu.New(convgpu.WithBaseDir(b.TempDir()), convgpu.WithWAL(filepath.Join(b.TempDir(), "wal")))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	cycle := func(p *convgpu.Proc) error {
		ptr, err := p.CUDA.Malloc(4096)
		if err != nil {
			return err
		}
		return p.CUDA.Free(ptr)
	}
	c, err := st.Run(context.Background(), convgpu.RunOptions{
		Name: "bench", Image: convgpu.CUDAImage("bench", ""), NvidiaMemory: convgpu.GiB,
		Program: func(p *convgpu.Proc) error {
			for i := 0; i < 1000; i++ { // pools, ring slots and maps reach their steady size
				if err := cycle(p); err != nil {
					return err
				}
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if err := cycle(p); err != nil {
					return err
				}
			}
			b.StopTimer()
			return nil
		},
	})
	if err != nil {
		b.Fatal(err)
	}
	if err := c.Wait(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkHotPathContainers is the wrapped cycle with N containers on one
// daemon, the paper's setting: N facade containers each loop Malloc+Free,
// b.N cycles in all. Beside ns/op (wall time over all of them) it reports
// ops/s, the process's CPU per cycle (getrusage, user + sys: the daemon
// runs in it too) and the p50/p99 of one cycle as its container saw it.
// It allocates nothing per cycle at any N.
func BenchmarkHotPathContainers(b *testing.B) {
	for _, n := range []int{1, 4, 16} {
		b.Run(strconv.Itoa(n), func(b *testing.B) { benchContainers(b, n) })
	}
}

func benchContainers(b *testing.B, n int) {
	st, err := convgpu.New(convgpu.WithBaseDir(b.TempDir()))
	if err != nil {
		b.Fatal(err)
	}
	if err := st.Start(context.Background()); err != nil {
		b.Fatal(err)
	}
	defer st.Close()
	var ready, done sync.WaitGroup
	start := make(chan struct{})
	samples := make([][]time.Duration, n) // each container's cycle times, b.N in all
	cs := make([]*convgpu.Container, n)
	for i := range cs {
		share := b.N / n
		if i < b.N%n {
			share++
		}
		samples[i] = make([]time.Duration, share)
		ready.Add(1)
		done.Add(1)
		mine := samples[i]
		cs[i], err = st.Run(context.Background(), convgpu.RunOptions{
			Name: fmt.Sprintf("bench%d", i), Image: convgpu.CUDAImage("bench", ""), NvidiaMemory: 128 * convgpu.MiB,
			Program: func(p *convgpu.Proc) error {
				defer done.Done()
				cycle := func() error {
					ptr, err := p.CUDA.Malloc(4096)
					if err != nil {
						return err
					}
					return p.CUDA.Free(ptr)
				}
				var err error
				for j := 0; j < 1000 && err == nil; j++ { // pools, ring slots and maps reach their steady size
					err = cycle()
				}
				ready.Done()
				<-start
				for j := range mine {
					if err != nil {
						break
					}
					t0 := time.Now()
					err = cycle()
					mine[j] = time.Since(t0)
				}
				return err
			},
		})
		if err != nil {
			b.Fatal(err)
		}
	}
	ready.Wait()
	var ru0, ru1 syscall.Rusage
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru0)
	b.ReportAllocs()
	b.ResetTimer()
	t0 := time.Now()
	close(start)
	done.Wait()
	b.StopTimer()
	elapsed := time.Since(t0)
	_ = syscall.Getrusage(syscall.RUSAGE_SELF, &ru1)
	for _, c := range cs {
		if err := c.Wait(); err != nil {
			b.Fatal(err)
		}
	}
	all := make([]time.Duration, 0, b.N)
	for _, s := range samples {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i] < all[j] })
	cpu := time.Duration(ru1.Utime.Nano() - ru0.Utime.Nano() + ru1.Stime.Nano() - ru0.Stime.Nano())
	b.ReportMetric(float64(b.N)/elapsed.Seconds(), "ops/s")
	b.ReportMetric(float64(cpu.Microseconds())/float64(b.N), "cpu-us/op")
	b.ReportMetric(float64(all[len(all)/2].Nanoseconds())/1e3, "p50-us")
	b.ReportMetric(float64(all[len(all)*99/100].Nanoseconds())/1e3, "p99-us")
}

// TestWrappedCycleAllocatesNothing is the tier-1 gate on what an
// intercepted call leaves behind in the tenant's process: wrapped
// Malloc+Free cycles over a negotiated socket to a daemon with a
// write-ahead log, under a context that can be cancelled as every
// container's can, allocate nothing — in the wrapper, the client, the
// simulated device or the daemon's side of the connection. The counter is
// the process's, so ten strays in the thousand cycles pass and one
// allocation per hundred cycles does not.
func TestWrappedCycleAllocatesNothing(t *testing.T) {
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			if s.Key == "-race" && s.Value == "true" {
				t.Skip("the race detector's instrumentation allocates")
			}
		}
	}
	log, err := wal.Open(wal.Options{Dir: t.TempDir()})
	if err != nil {
		t.Fatal(err)
	}
	defer log.Close()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	r := newHotPathRig(t, log, wrapper.WithContext(ctx))
	hundred := func() {
		for i := 0; i < 100; i++ {
			ptr, err := r.wrapped.Malloc(4096)
			if err != nil {
				t.Fatal(err)
			}
			if err := r.wrapped.Free(ptr); err != nil {
				t.Fatal(err)
			}
		}
	}
	hundred() // warm: pools, the ring slot, the context registration
	if n := testing.AllocsPerRun(10, hundred); n != 0 {
		t.Errorf("100 wrapped Malloc+Free cycles allocate %.0f times, want 0", n)
	}
	if err := r.wrapped.Flush(); err != nil {
		t.Fatal(err)
	}
}

// TestWrappedCycleIsOneWrite is the tier-1 gate on what an intercepted
// Malloc+Free costs the tenant's process in socket writes: one — the
// next cycle's alloc, with this cycle's confirm and free in front of it
// — for the three frames the daemon decodes. The spare writes are the
// deferral bound's: once a millisecond the timer, or the free that finds
// it past due, writes a confirm and its free before the next alloc does
// — a hundred in a loop of 70 to 100 ms, and one more for each
// millisecond a slower run (the race detector's) takes. A client that
// wrote every free at once (two a cycle) is ten thousand over.
func TestWrappedCycleIsOneWrite(t *testing.T) {
	const cycles = 10000
	r := newHotPathRig(t, nil)
	raw, err := net.Dial("unix", filepath.Join(r.sockDir, protocol.SocketFileName))
	if err != nil {
		t.Fatal(err)
	}
	conn := fault.NewTap(raw) // counts the client's Writes: one per socket write
	cli := ipc.NewClient(conn)
	defer cli.Close()
	if ok, err := cli.NegotiateBinary(context.Background()); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}
	mod := wrapper.New(cuda.NewRuntime(gpu.New(gpu.K20m()), 3), cli, 3)
	stats := r.daemon.WireStats()
	frames0, writes0, start := stats.Frames(true, false), conn.Writes(), time.Now()
	for i := 0; i < cycles; i++ {
		ptr, err := mod.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := mod.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	writes, elapsed := conn.Writes()-writes0, time.Since(start)
	if err := mod.Flush(); err != nil { // the barrier: every frame has been decoded, none refused
		t.Fatal(err)
	}
	if frames := stats.Frames(true, false) - frames0; frames != 3*cycles+1 {
		t.Errorf("daemon decoded %d binary frames, want %d: alloc, confirm and free a cycle, and the barrier", frames, 3*cycles+1)
	}
	if n := stats.FrameErrors(); n != 0 {
		t.Errorf("%d frame errors", n)
	}
	if spare := 100 + int(elapsed/time.Millisecond); writes > cycles+spare {
		t.Errorf("%d cycles in %v took %d client writes, want at most %d: one a cycle and one a millisecond", cycles, elapsed, writes, cycles+spare)
	}
	t.Logf("%d cycles in %v: %d client writes", cycles, elapsed, writes)
}

// TestWrappedCycleSyscalls is the tier-1 gate on what a wrapped
// Malloc+Free costs in read and write syscalls, client and daemon
// together, on real sockets: two of each — the client's write and read,
// the daemon's read and write — for neither end reads what it knows is
// empty (ipc package doc, "Reading"). An end that tries a read before it
// waits is one read a cycle over, both ends two: four reads, as before
// the rule. The counts are the process's own from /proc/self/io, which
// holds both ends; where that file cannot be read the test is skipped.
// The allowance is the deferral bound's: once a millisecond the timer
// writes a confirm and its free, and both ends read once more — a tenth
// a cycle, and one more read and write for every millisecond the loop
// took (≈ 100 ms plain, ≈ 1 s under the race detector).
func TestWrappedCycleSyscalls(t *testing.T) {
	const cycles = 10000
	if _, _, err := procIO(); err != nil {
		t.Skipf("cannot count syscalls: %v", err)
	}
	r := newHotPathRig(t, nil)
	cycle := func() {
		ptr, err := r.wrapped.Malloc(4096)
		if err != nil {
			t.Fatal(err)
		}
		if err := r.wrapped.Free(ptr); err != nil {
			t.Fatal(err)
		}
	}
	cycle() // the first Call on the connection reads before it waits
	reads0, writes0, _ := procIO()
	start := time.Now()
	for i := 0; i < cycles; i++ {
		cycle()
	}
	elapsed := time.Since(start)
	reads1, writes1, err := procIO()
	if err != nil {
		t.Fatal(err)
	}
	reads, writes := float64(reads1-reads0)/cycles, float64(writes1-writes0)/cycles
	if limit := 2.1 + float64(elapsed/time.Millisecond)/cycles; reads > limit || writes > limit {
		t.Errorf("%d cycles in %v: %.3f reads and %.3f writes a cycle, want at most %.3f each: 2.1, and one a millisecond", cycles, elapsed, reads, writes, limit)
	}
	t.Logf("%d cycles in %v: %.3f reads, %.3f writes a cycle", cycles, elapsed, reads, writes)
	if err := r.wrapped.Flush(); err != nil {
		t.Fatal(err)
	}
}

// procIO reads the process's read and write syscall counts.
func procIO() (syscr, syscw uint64, err error) {
	b, err := os.ReadFile("/proc/self/io")
	if err != nil {
		return 0, 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if v, ok := strings.CutPrefix(line, "syscr: "); ok {
			syscr, err = strconv.ParseUint(v, 10, 64)
		} else if v, ok := strings.CutPrefix(line, "syscw: "); ok {
			syscw, err = strconv.ParseUint(v, 10, 64)
		}
		if err != nil {
			return 0, 0, err
		}
	}
	if syscr == 0 || syscw == 0 {
		return 0, 0, fmt.Errorf("no syscr/syscw in /proc/self/io")
	}
	return syscr, syscw, nil
}

func atomicAdd(p *int64, d int64) int64 { return atomic.AddInt64(p, d) }
