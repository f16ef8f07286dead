package wrapper

import (
	"context"
	"fmt"
	"time"

	"convgpu/internal/bytesize"
	"convgpu/internal/cuda"
	"convgpu/internal/protocol"
)

// ReplayState re-establishes this process's scheduler session over c:
// an attach announcing the PID, then one restore per live allocation so
// a scheduler that lost its accounting (restart) re-charges them, and
// one that merely lost the connection treats each as an idempotent
// no-op. The wrapper's Reconnector runs this as its OnReconnect hook —
// c is the freshly dialed transport, deliberately passed explicitly so
// the replay never recurses into the reconnecting Caller it is fixing.
//
// An error means the session could not be rebuilt (e.g. the restored
// usage no longer fits the container's limit); the caller must treat
// the connection as unusable rather than run unaccounted.
func (m *Module) ReplayState(ctx context.Context, c Caller) error {
	resp, err := c.Call(ctx, &protocol.Message{Type: protocol.TypeAttach, PID: m.pid})
	if err != nil {
		return fmt.Errorf("wrapper: attach: %w", err)
	}
	if !resp.OK {
		aerr := fmt.Errorf("wrapper: attach refused: %s", resp.Error)
		protocol.ReleaseMessage(resp)
		return aerr
	}
	m.mu.Lock()
	m.device = resp.Device
	m.mu.Unlock()
	protocol.ReleaseMessage(resp)

	m.mu.Lock()
	allocs := make(map[cuda.DevPtr]bytesize.Size, len(m.allocs))
	for ptr, size := range m.allocs {
		allocs[ptr] = size
	}
	m.mu.Unlock()
	for ptr, size := range allocs {
		resp, err := c.Call(ctx, &protocol.Message{
			Type: protocol.TypeRestore, PID: m.pid, Addr: uint64(ptr), Size: int64(size),
		})
		if err != nil {
			return fmt.Errorf("wrapper: restore %#x: %w", uint64(ptr), err)
		}
		if !resp.OK {
			rerr := fmt.Errorf("wrapper: restore %#x refused: %s", uint64(ptr), resp.Error)
			protocol.ReleaseMessage(resp)
			return rerr
		}
		protocol.ReleaseMessage(resp)
	}
	return nil
}

// StartHeartbeats sends a heartbeat every interval so the daemon's
// session lease sees the process alive even when it goes long stretches
// without allocating. The returned stop function ends the loop and
// waits for it to exit; the loop also ends with the module's context.
// Heartbeat failures are ignored here — a broken transport surfaces on
// the next real call, and the reconnecting transport heals itself. A
// report's refusal, returned only once, is held for that call (settle).
func (m *Module) StartHeartbeats(interval time.Duration) (stop func()) {
	ctx, cancel := context.WithCancel(m.ctx)
	done := make(chan struct{})
	go func() {
		defer close(done)
		t := time.NewTicker(interval)
		defer t.Stop()
		for {
			select {
			case <-ctx.Done():
				return
			case <-t.C:
				resp, err := m.sched.Call(ctx, &protocol.Message{Type: protocol.TypeHeartbeat, PID: m.pid})
				if err == nil {
					protocol.ReleaseMessage(resp)
				} else if protocol.IsRefusal(err) {
					m.held.Add(err)
				}
			}
		}
	}()
	return func() {
		cancel()
		<-done
	}
}

// Device reports the GPU index the scheduler assigned this container,
// as announced in the last attach response. Zero until the first
// ReplayState completes — which is also the single-device answer.
func (m *Module) Device() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.device
}
