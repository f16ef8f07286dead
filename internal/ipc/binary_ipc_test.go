package ipc

import (
	"context"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// TestNegotiateBinarySwitchesCodec: after the handshake, requests and
// responses travel as binary frames, and the wire counters on both
// sides agree about it.
func TestNegotiateBinarySwitchesCodec(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvStats := &WireStats{}
	srv.SetWireStats(srvStats)

	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cliStats := &WireStats{}
	cli.SetWireStats(cliStats)

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if cli.BinaryNegotiated() {
		t.Fatal("client claims binary before negotiating")
	}
	ok, err := cli.NegotiateBinary(ctx)
	if err != nil || !ok {
		t.Fatalf("NegotiateBinary = %v, %v", ok, err)
	}
	if !cli.BinaryNegotiated() {
		t.Fatal("BinaryNegotiated false after successful handshake")
	}

	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 77})
	if err != nil || !resp.OK || resp.Free != 77 {
		t.Fatalf("binary call: %+v %v", resp, err)
	}

	// The probe travelled as JSON; the meminfo round trip as binary.
	if got := cliStats.Frames(true, true); got != 1 {
		t.Errorf("client binary frames out = %d, want 1", got)
	}
	if got := cliStats.Frames(true, false); got != 1 {
		t.Errorf("client binary frames in = %d, want 1", got)
	}
	if got := cliStats.Frames(false, true); got != 1 {
		t.Errorf("client json frames out = %d, want 1 (the probe)", got)
	}
	if srvStats.Frames(true, false) != 1 || srvStats.Frames(true, true) != 1 {
		t.Errorf("server binary in/out = %d/%d, want 1/1",
			srvStats.Frames(true, false), srvStats.Frames(true, true))
	}
	if srvStats.Negotiations() != 1 || cliStats.Negotiations() != 1 {
		t.Errorf("negotiations server/client = %d/%d, want 1/1",
			srvStats.Negotiations(), cliStats.Negotiations())
	}
}

// TestNegotiateUnknownCodecStaysJSON: a TypeCodec probe carrying a
// token the server does not speak gets an error response and the
// client must keep sending JSON — the handshake can only downgrade.
func TestNegotiateUnknownCodecStaysJSON(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeCodec, Data: "bogus9"})
	if err != nil {
		t.Fatal(err)
	}
	if resp.OK || resp.Error == "" {
		t.Fatalf("unknown codec accepted: %+v", resp)
	}
	if cli.BinaryNegotiated() {
		t.Fatal("client switched to binary on a rejected token")
	}
	// The connection is still perfectly usable on JSON.
	resp, err = cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 5})
	if err != nil || resp.Free != 5 {
		t.Fatalf("post-rejection call: %+v %v", resp, err)
	}
}

// TestSuspendedBinaryAllocAnsweredInBinary: a parked allocation's
// response — released long after Handle returned — still goes out in
// the codec its request arrived in.
func TestSuspendedBinaryAllocAnsweredInBinary(t *testing.T) {
	h := &parkHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	cliStats := &WireStats{}
	cli.SetWireStats(cliStats)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if ok, err := cli.NegotiateBinary(ctx); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}

	done := make(chan error, 1)
	go func() {
		resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64, API: "cudaMalloc"})
		if err == nil && resp.Decision != protocol.DecisionAccept {
			err = fmt.Errorf("decision = %q", resp.Decision)
		}
		done <- err
	}()
	deadline := time.Now().Add(3 * time.Second)
	for h.Release() == 0 {
		if time.Now().After(deadline) {
			t.Fatal("alloc never parked")
		}
		time.Sleep(time.Millisecond)
	}
	if err := <-done; err != nil {
		t.Fatalf("suspended alloc: %v", err)
	}
	// Probe response was JSON; the (delayed) alloc response binary.
	if got := cliStats.Frames(true, false); got != 1 {
		t.Errorf("binary frames in = %d, want 1 (the parked response)", got)
	}
}

// TestMixedFramingOneConnection: framing is dispatched per message by
// the first byte, so JSON lines sent before the handshake and binary
// frames after it interleave freely on one connection.
func TestMixedFramingOneConnection(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	srvStats := &WireStats{}
	srv.SetWireStats(srvStats)
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 1}); err != nil || resp.Free != 1 {
		t.Fatalf("json call: %+v %v", resp, err)
	}
	if ok, err := cli.NegotiateBinary(ctx); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}
	if resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 2}); err != nil || resp.Free != 2 {
		t.Fatalf("binary call: %+v %v", resp, err)
	}
	if got := srvStats.Frames(false, false); got != 2 { // meminfo + probe
		t.Errorf("server json frames in = %d, want 2", got)
	}
	if got := srvStats.Frames(true, false); got != 1 {
		t.Errorf("server binary frames in = %d, want 1", got)
	}
}

// TestBinaryMalformedPayloadEchoesSeq: a binary frame whose header
// survives its checksum but whose payload does not decode gets an
// error response echoing the true sequence number, in binary, and the
// connection keeps serving — the exact contract the JSON path has for
// a mangled line with a scannable seq.
func TestBinaryMalformedPayloadEchoesSeq(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	const seq = 0xDEADBEEF
	frame, ok := protocol.AppendEncodeBinary(nil, &protocol.Message{
		Type: protocol.TypeAlloc, Seq: seq, PID: 7, Size: 64, API: "cudaMalloc"})
	if !ok {
		t.Fatal("sample message has no binary form")
	}
	frame[protocol.BinaryHeaderSize] = 200 // unknown field tag; header untouched
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}

	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	readBinaryResponse := func() *protocol.Message {
		t.Helper()
		hdr := make([]byte, protocol.BinaryHeaderSize)
		if _, err := io.ReadFull(conn, hdr); err != nil {
			t.Fatalf("reading response header: %v", err)
		}
		op, n, gotSeq, err := protocol.ParseBinaryHeader(hdr)
		if err != nil {
			t.Fatalf("response header: %v", err)
		}
		payload := make([]byte, n)
		if _, err := io.ReadFull(conn, payload); err != nil {
			t.Fatal(err)
		}
		m := &protocol.Message{}
		if err := protocol.DecodeBinaryInto(m, op, gotSeq, payload); err != nil {
			t.Fatalf("decoding response: %v", err)
		}
		return m
	}
	m := readBinaryResponse()
	if m.Seq != seq || m.Error == "" {
		t.Fatalf("error response = %+v, want seq %#x with error text", m, uint64(seq))
	}

	// The connection survived the bad payload: a clean frame round-trips.
	frame2, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeMemInfo, Seq: 9, Size: 3})
	if _, err := conn.Write(frame2); err != nil {
		t.Fatal(err)
	}
	if m := readBinaryResponse(); m.Seq != 9 || m.Free != 3 {
		t.Fatalf("post-error call = %+v", m)
	}
}

// TestCorruptBinaryHeaderCondemnsConnection: a header that fails its
// checksum means the length cannot be trusted, so the server must drop
// the connection rather than resynchronize — the peer sees EOF, never
// a hang or a misframed read.
func TestCorruptBinaryHeaderCondemnsConnection(t *testing.T) {
	leak.Check(t)
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	conn, err := net.Dial("unix", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	frame, _ := protocol.AppendEncodeBinary(nil, &protocol.Message{Type: protocol.TypeMemInfo, Seq: 4})
	frame[0] ^= 0x20 // 0xBF -> 0x9F: still >= 0x80, checksum now wrong
	if _, err := conn.Write(frame); err != nil {
		t.Fatal(err)
	}
	waitClosed(t, h)
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := conn.Read(make([]byte, 1)); err == nil {
		t.Fatal("server kept a condemned connection open")
	}
}

// TestPipelineBeyondRingDepth: more concurrent in-flight calls than
// the ring holds — the overflow path — all complete once released, and
// InFlight tracks the pipeline depth.
func TestPipelineBeyondRingDepth(t *testing.T) {
	h := &parkHandler{parkAll: true}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	cli, err := Dial(srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if ok, err := cli.NegotiateBinary(ctx); err != nil || !ok {
		t.Fatalf("negotiate: %v %v", ok, err)
	}

	const depth = callRingSize + 36
	var wg sync.WaitGroup
	errs := make(chan error, depth)
	for i := 0; i < depth; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			resp, err := cli.Call(ctx, &protocol.Message{Type: protocol.TypeAlloc, PID: 1, Size: 64, API: "cudaMalloc"})
			if err != nil {
				errs <- err
				return
			}
			if resp.Decision != protocol.DecisionAccept {
				errs <- fmt.Errorf("decision = %q", resp.Decision)
			}
			protocol.ReleaseMessage(resp)
		}()
	}
	deadline := time.Now().Add(5 * time.Second)
	released := 0
	for released < depth {
		if time.Now().After(deadline) {
			t.Fatalf("only %d/%d calls parked", released, depth)
		}
		if released == 0 && cli.InFlight() < depth {
			time.Sleep(time.Millisecond)
			continue // let the full pipeline build up before releasing
		}
		released += h.Release()
		time.Sleep(time.Millisecond)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}
	if got := cli.InFlight(); got != 0 {
		t.Errorf("InFlight after drain = %d, want 0", got)
	}
}

// TestReconnectorNegotiatesByDefault: every connection the Reconnector
// publishes speaks binary unless CONVGPU_WIRE_JSON pins JSON.
func TestReconnectorNegotiatesByDefault(t *testing.T) {
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()

	wire := &WireStats{}
	r := NewReconnector(ReconnectConfig{
		Network: "unix", Addr: srv.Addr(),
		Backoff: Backoff{Base: time.Millisecond}, Seed: 1,
		Wire: wire,
	})
	defer r.Close()
	c, err := r.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if !c.BinaryNegotiated() {
		t.Fatal("reconnector did not negotiate binary by default")
	}
	if wire.Negotiations() != 1 {
		t.Errorf("wire negotiations = %d, want 1", wire.Negotiations())
	}
	if _, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo}); err != nil {
		t.Fatal(err)
	}
	if wire.Frames(true, true) == 0 {
		t.Error("no binary frames counted through the reconnector's wire stats")
	}
	if r.InFlight() != 0 {
		t.Errorf("InFlight = %d, want 0", r.InFlight())
	}
}

// TestDialNegotiated: the one dial helper comes back on binary from a
// server that echoes the probe. (The refused-probe downgrade is pinned
// end to end by the wrapper's TestWrapperDowngradesToJSON.)
func TestDialNegotiated(t *testing.T) {
	srv, err := Listen(sockPath(t), &echoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	cli, err := DialNegotiated(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if !cli.BinaryNegotiated() {
		t.Fatal("DialNegotiated left a current server on JSON")
	}
	if _, err := DialNegotiated(ctx, sockPath(t)); err == nil {
		t.Fatal("DialNegotiated to a missing socket succeeded")
	}
}

// TestForceJSONEnv: CONVGPU_WIRE_JSON pins the whole process to the
// JSON codec — the debug escape hatch — at both places a connection is
// made.
func TestForceJSONEnv(t *testing.T) {
	t.Setenv("CONVGPU_WIRE_JSON", "1")
	h := &echoHandler{}
	srv, err := Listen(sockPath(t), h)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	r := NewReconnector(ReconnectConfig{
		Network: "unix", Addr: srv.Addr(),
		Backoff: Backoff{Base: time.Millisecond}, Seed: 1,
	})
	defer r.Close()
	ctx, cancel := context.WithTimeout(context.Background(), 3*time.Second)
	defer cancel()
	c, err := r.Connect(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if c.BinaryNegotiated() {
		t.Fatal("CONVGPU_WIRE_JSON did not force the JSON codec")
	}
	if resp, err := r.Call(ctx, &protocol.Message{Type: protocol.TypeMemInfo, Size: 6}); err != nil || resp.Free != 6 {
		t.Fatalf("forced-JSON call: %+v %v", resp, err)
	}
	cli, err := DialNegotiated(ctx, srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer cli.Close()
	if cli.BinaryNegotiated() {
		t.Fatal("CONVGPU_WIRE_JSON did not pin DialNegotiated to JSON")
	}
}
