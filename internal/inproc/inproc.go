// Package inproc provides a transport-free connection between wrapper
// modules and the scheduler core: protocol messages are handed to the
// core directly, with suspension implemented as goroutine parking.
//
// The live system always talks over UNIX sockets (package ipc + daemon);
// inproc exists for the transport ablation — the paper justifies UNIX
// sockets against TCP and other IPC (§III-A), and the ablation bench
// measures how much of ConVGPU's per-call overhead is transport versus
// scheduling logic — and for tests that need the full wrapper semantics
// without filesystem sockets.
package inproc

import (
	"context"
	"fmt"
	"sync"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/protocol"
)

// Hub connects any number of containers to one scheduler core and routes
// admission updates to parked callers.
type Hub struct {
	core *core.State

	// gate closes the window between a call being told Suspend and its
	// channel being parked, as the daemon's does: calls hold it shared from
	// the decision to the park, and dispatch passes through it exclusively
	// before it looks a ticket's channel up.
	gate sync.RWMutex
	// beforePark, when a test sets it, runs in that window.
	beforePark func()

	mu     sync.Mutex
	parked map[core.Ticket]chan *protocol.Message
}

// NewHub wraps a scheduler core.
func NewHub(st *core.State) *Hub {
	return &Hub{core: st, parked: make(map[core.Ticket]chan *protocol.Message)}
}

// Core returns the underlying scheduler state.
func (h *Hub) Core() *core.State { return h.core }

// Register admits a container, mirroring the daemon's control path.
func (h *Hub) Register(id core.ContainerID, limit bytesize.Size) (bytesize.Size, error) {
	return h.core.Register(id, limit)
}

// Close delivers the container-stop signal and releases its parked calls.
func (h *Hub) Close(id core.ContainerID) (bytesize.Size, error) {
	released, u, err := h.core.Close(id)
	if err != nil {
		return 0, err
	}
	h.dispatch(u)
	return released, nil
}

func (h *Hub) dispatch(u core.Update) {
	h.gate.Lock() // no call is between its Suspend and its park
	h.gate.Unlock()
	h.mu.Lock()
	type rel struct {
		ch  chan *protocol.Message
		msg *protocol.Message
	}
	var rels []rel
	for _, a := range u.Admitted {
		if ch, ok := h.parked[a.Ticket]; ok {
			delete(h.parked, a.Ticket)
			rels = append(rels, rel{ch, &protocol.Message{Type: protocol.TypeResponse, OK: true, Decision: protocol.DecisionAccept}})
		}
	}
	for _, c := range u.Cancelled {
		if ch, ok := h.parked[c.Ticket]; ok {
			delete(h.parked, c.Ticket)
			rels = append(rels, rel{ch, &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: "container closed"}})
		}
	}
	h.mu.Unlock()
	for _, r := range rels {
		r.ch <- r.msg
	}
}

// Caller returns a wrapper.Caller bound to one container.
func (h *Hub) Caller(id core.ContainerID) *Caller {
	return &Caller{hub: h, id: id}
}

// Caller hands protocol messages to the core on behalf of one container.
type Caller struct {
	hub *Hub
	id  core.ContainerID
}

// Post implements the wrapper's one-way reports. With no socket between
// the two sides there is nothing to overlap, so the report is applied
// before Post returns and a refusal is its own error.
func (c *Caller) Post(ctx context.Context, m *protocol.Message) error {
	resp, err := c.Call(ctx, m)
	if err != nil {
		return err
	}
	if !resp.OK {
		return protocol.NewRefusal(m.Type, resp)
	}
	return nil
}

// Call implements the wrapper's scheduler transport without any socket:
// the same message types, the same decisions, the same blocking behavior
// on suspension.
func (c *Caller) Call(ctx context.Context, m *protocol.Message) (*protocol.Message, error) {
	h := c.hub
	st := h.core
	switch m.Type {
	case protocol.TypeAlloc:
		h.gate.RLock()
		res, err := st.RequestAlloc(c.id, m.PID, m.SizeBytes())
		var ch chan *protocol.Message
		if err == nil && res.Decision == core.Suspend {
			if h.beforePark != nil {
				h.beforePark()
			}
			ch = make(chan *protocol.Message, 1)
			h.mu.Lock()
			h.parked[res.Ticket] = ch
			h.mu.Unlock()
		}
		h.gate.RUnlock()
		if err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		switch res.Decision {
		case core.Accept:
			return &protocol.Message{Type: protocol.TypeResponse, OK: true, Decision: protocol.DecisionAccept}, nil
		case core.Reject:
			return &protocol.Message{Type: protocol.TypeResponse, OK: true, Decision: protocol.DecisionReject}, nil
		}
		select {
		case resp := <-ch:
			return resp, nil
		case <-ctx.Done():
			h.mu.Lock()
			delete(h.parked, res.Ticket)
			h.mu.Unlock()
			return nil, ctx.Err()
		}
	case protocol.TypeConfirm:
		if err := st.ConfirmAlloc(c.id, m.PID, m.Addr, m.SizeBytes()); err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		return &protocol.Message{Type: protocol.TypeResponse, OK: true}, nil
	case protocol.TypeAbort:
		u, err := st.AbortAlloc(c.id, m.PID, m.SizeBytes())
		if err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		h.dispatch(u)
		return &protocol.Message{Type: protocol.TypeResponse, OK: true}, nil
	case protocol.TypeFree:
		size, u, err := st.Free(c.id, m.PID, m.Addr)
		if err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		h.dispatch(u)
		return &protocol.Message{Type: protocol.TypeResponse, OK: true, Free: int64(size)}, nil
	case protocol.TypeProcExit:
		size, u, err := st.ProcessExit(c.id, m.PID)
		if err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		h.dispatch(u)
		return &protocol.Message{Type: protocol.TypeResponse, OK: true, Free: int64(size)}, nil
	case protocol.TypeAttach, protocol.TypeHeartbeat:
		// Session housekeeping: there is no connection to re-bind
		// in-process, but the wrapper's replay path must be exercisable
		// over this transport, so validate the container and acknowledge.
		if _, err := st.Info(c.id); err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		return &protocol.Message{Type: protocol.TypeResponse, OK: true}, nil
	case protocol.TypeRestore:
		if err := st.Restore(c.id, m.PID, m.Addr, m.SizeBytes()); err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		return &protocol.Message{Type: protocol.TypeResponse, OK: true}, nil
	case protocol.TypeMemInfo:
		free, total, err := st.MemInfo(c.id)
		if err != nil {
			return &protocol.Message{Type: protocol.TypeResponse, OK: false, Error: err.Error()}, nil
		}
		return &protocol.Message{Type: protocol.TypeResponse, OK: true, Free: int64(free), Total: int64(total)}, nil
	default:
		return nil, fmt.Errorf("inproc: unexpected message type %q", m.Type)
	}
}
