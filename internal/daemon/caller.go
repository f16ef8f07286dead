package daemon

import (
	"context"

	"convgpu/internal/core"
	"convgpu/internal/protocol"
)

// Caller serves one container's requests in the caller's process, with
// no socket between: the same handler as the container's socket, so the
// same verbs, decisions, error codes and suspension. It has the two
// methods of wrapper.Caller, for tests and experiments that run a
// wrapper module against the daemon without a connection to dial.
type Caller struct{ h containerHandler }

// Caller returns the socketless caller of container id. The container
// registers and closes through the control socket as any other; like a
// connection to its socket, the caller serves the life id has when it is
// made (and renews that life's lease), so make it after the registration.
func (d *Daemon) Caller(id core.ContainerID) Caller {
	d.mu.Lock()
	s := d.live[id]
	d.mu.Unlock()
	if s == nil {
		s = &session{} // no life: the core refuses every verb, and no lease is read
	}
	return Caller{containerHandler{d: d, s: s, id: id}}
}

// Call hands m to the container's handler and waits for its response,
// which a suspended allocation gets when a release admits it. A done ctx
// ends the wait unless the response is already there: taken, it is the
// answer, or an admitted ticket stays charged with nobody told. A
// response that comes after is dropped, as a socket's is when its caller
// has gone; the parked responder lives until the ticket is resolved.
func (c Caller) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	ch := make(chan *protocol.Message, 1)
	c.h.Handle(nil, m, func(resp *protocol.Message) { ch <- resp })
	select {
	case resp := <-ch:
		return resp, nil
	case <-ctx.Done():
		select {
		case resp := <-ch:
			return resp, nil
		default:
			return nil, ctx.Err()
		}
	}
}

// Post sends a report one-way, as ipc.Client.Post does on a binary
// connection. The handler answers such a report only to refuse it, and
// before it returns: there is nothing to overlap, so the refusal is
// Post's own error instead of the next call's. Reports never park.
func (c Caller) Post(_ context.Context, m *protocol.Message) error {
	m.NoReply = true
	var refusal error
	c.h.Handle(nil, m, func(resp *protocol.Message) {
		refusal = protocol.NewRefusal(m.Type, resp)
		protocol.ReleaseMessage(resp)
	})
	return refusal
}
