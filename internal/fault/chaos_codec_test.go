package fault_test

import (
	"context"
	"fmt"
	"net"
	"path/filepath"
	"runtime"
	"testing"
	"time"

	"convgpu/internal/fault"
	"convgpu/internal/ipc"
	"convgpu/internal/leak"
	"convgpu/internal/protocol"
)

// codecEchoHandler answers every message it sees with OK and the
// request's Data echoed back — the minimal peer for exercising the
// transport's codec negotiation in isolation. The TypeCodec handshake
// itself never reaches the handler: the server answers it at the
// transport level.
type codecEchoHandler struct{}

func (codecEchoHandler) Handle(conn *ipc.ServerConn, msg *protocol.Message, respond func(*protocol.Message)) {
	respond(&protocol.Message{Type: msg.Type, OK: true, Data: msg.Data})
}

func (codecEchoHandler) Closed(*ipc.ServerConn) {}

// TestChaosCodecHandshake aims seeded fault schedules squarely at the
// binary-codec handshake: every connection a Reconnector publishes
// opens with the TypeCodec probe, and the plan's corrupt / truncate /
// close faults land on exactly those first frames. The required
// behavior, whatever a fault did to the handshake, is
//
//   - no hang: every call returns within its deadline (a mangled
//     handshake costs at most one negotiation timeout and a JSON
//     connection, enforced by the watchdog around the whole schedule);
//   - no desync: after the plan heals, calls on the surviving or
//     redialed connection succeed and echo their payloads exactly — a
//     connection whose two ends disagreed about the codec could not do
//     that, because a JSON line read as a binary frame (or vice versa)
//     condemns the connection instead of producing a garbled response.
func TestChaosCodecHandshake(t *testing.T) {
	leak.Check(t)
	const seeds = 16
	for seed := int64(1); seed <= seeds; seed++ {
		seed := seed
		ok := t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			done := make(chan struct{})
			go func() {
				defer close(done)
				runCodecHandshakeSchedule(t, seed)
			}()
			select {
			case <-done:
			case <-time.After(20 * time.Second):
				buf := make([]byte, 1<<20)
				t.Fatalf("codec handshake schedule wedged\n%s", buf[:runtime.Stack(buf, true)])
			}
		})
		if !ok {
			t.Fatalf("seed %d broke the handshake contract; replay with -run 'TestChaosCodecHandshake/seed=%d$'", seed, seed)
		}
	}
}

func runCodecHandshakeSchedule(t *testing.T, seed int64) {
	sock := filepath.Join(t.TempDir(), "codec.sock")
	srv, err := ipc.Listen(sock, codecEchoHandler{})
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	// Heavy corruption and mid-frame cuts, light hard-closes: the mix
	// that most often mangles the probe or its response rather than
	// killing the connection outright.
	plan := fault.NewPlan(seed, fault.Config{
		DelayProb:    0.10,
		CorruptProb:  0.25,
		TruncateProb: 0.15,
		CloseProb:    0.05,
	})

	wire := &ipc.WireStats{}
	rec := ipc.NewReconnector(ipc.ReconnectConfig{
		Dial: func() (net.Conn, error) {
			c, err := net.Dial("unix", sock)
			if err != nil {
				return nil, err
			}
			return plan.Wrap(c), nil
		},
		Backoff:     ipc.Backoff{Base: time.Millisecond, Max: 20 * time.Millisecond},
		CallTimeout: 200 * time.Millisecond,
		Seed:        seed,
		Wire:        wire,
	})
	defer rec.Close()

	// Hostile phase: each call (re)dials as needed, so each redial is
	// another handshake under fire. Failures are expected — corruption
	// condemns connections by design — but every call must return.
	for i := 0; i < 10; i++ {
		m := &protocol.Message{Type: protocol.TypeHeartbeat, Data: fmt.Sprintf("probe-%d", i)}
		if resp, err := rec.Call(context.Background(), m); err == nil {
			protocol.ReleaseMessage(resp)
		}
	}

	// Heal and demand a clean round trip: the first calls may still find
	// a connection a pre-heal fault condemned (calls are never retried
	// automatically), so allow a bounded number of redials before the
	// echo must come back intact.
	plan.Heal()
	deadline := time.Now().Add(5 * time.Second)
	var lastErr error
	for attempt := 0; time.Now().Before(deadline); attempt++ {
		m := &protocol.Message{Type: protocol.TypeHeartbeat, Data: fmt.Sprintf("healed-%d", attempt)}
		resp, err := rec.Call(context.Background(), m)
		if err != nil {
			lastErr = err
			continue
		}
		if !resp.OK || resp.Data != fmt.Sprintf("healed-%d", attempt) {
			t.Fatalf("healed echo desynced: OK=%v Data=%q", resp.OK, resp.Data)
		}
		protocol.ReleaseMessage(resp)
		// One more call on the same (now stable) connection, verifying
		// the negotiated codec — whichever side of the fallback the
		// handshake landed on — keeps framing straight.
		resp, err = rec.Call(context.Background(), &protocol.Message{Type: protocol.TypeHeartbeat, Data: "final"})
		if err != nil {
			t.Fatalf("second healed call failed: %v", err)
		}
		if !resp.OK || resp.Data != "final" {
			t.Fatalf("second healed echo desynced: OK=%v Data=%q", resp.OK, resp.Data)
		}
		protocol.ReleaseMessage(resp)
		if n := rec.InFlight(); n != 0 {
			t.Fatalf("pipeline depth after drain = %d, want 0", n)
		}
		return
	}
	t.Fatalf("no clean round trip within 5s of healing (last error: %v)", lastErr)
}
