// Package protocol defines the JSON message format ConVGPU components
// exchange over UNIX domain sockets (paper §III-A): the customized
// nvidia-docker registers containers with the GPU memory scheduler, the
// CUDA wrapper module reports allocation traffic, and nvidia-docker-plugin
// delivers the close signal when a container stops.
//
// Messages are single JSON objects, one per line (newline-delimited).
// Every request carries a sequence number; the matching response echoes
// it, which lets a single connection multiplex concurrent requests — a
// container may have several processes blocked in allocation calls at
// once while the scheduler withholds their replies (suspension).
package protocol

import (
	"errors"
	"fmt"
	"sync/atomic"

	"convgpu/internal/bytesize"
	"convgpu/internal/errs"
)

// Type discriminates messages.
type Type string

// Request and response types.
const (
	// TypeRegister is sent by the customized nvidia-docker before the
	// container is created: it declares the container's GPU memory limit
	// and asks for the per-container socket directory.
	TypeRegister Type = "register"
	// TypeAlloc is sent by the wrapper module when the user program calls
	// an allocation API. The response carries the scheduler's decision;
	// for a suspended request the response is simply withheld until the
	// scheduler grants the memory.
	TypeAlloc Type = "alloc"
	// TypeConfirm is sent by the wrapper after the real allocation
	// succeeded, reporting the device address actually returned.
	TypeConfirm Type = "confirm"
	// TypeAbort is sent by the wrapper when an allocation the scheduler
	// accepted subsequently failed in the real CUDA call (e.g. device
	// fragmentation): the charged memory must be returned.
	TypeAbort Type = "abort"
	// TypeFree is sent by the wrapper when the user program deallocates.
	TypeFree Type = "free"
	// TypeProcExit is sent by the wrapper when __cudaUnregisterFatBinary
	// fires: the process is gone and all its allocations must be released
	// even if the program leaked them.
	TypeProcExit Type = "procexit"
	// TypeClose is sent by nvidia-docker-plugin when the dummy volume is
	// unmounted, i.e. the container exited for any reason.
	TypeClose Type = "close"
	// TypeMemInfo asks the scheduler for the container's virtualized view
	// of GPU memory (free within limit, total = limit).
	TypeMemInfo Type = "meminfo"
	// TypeAttach is sent by the wrapper module after (re)connecting to
	// its container socket: it announces the process and renews the
	// container's session lease. After a reconnect it is followed by one
	// TypeRestore per live allocation.
	TypeAttach Type = "attach"
	// TypeRestore re-reports one live allocation when a wrapper
	// re-attaches: a restarted scheduler rebuilds its accounting from
	// these instead of losing track of device memory, and a scheduler
	// that never lost the session treats them as idempotent no-ops.
	TypeRestore Type = "restore"
	// TypeHeartbeat renews the container's session lease. A container
	// whose lease expires (no traffic within the daemon's grace window
	// and no close signal) is presumed dead and reaped.
	TypeHeartbeat Type = "heartbeat"
	// TypeCodec negotiates the wire codec for the rest of the
	// connection. The probe is always sent JSON-encoded with the offered
	// codec token in Data; a server that supports it echoes the token
	// back (OK + Data), after which the client may switch to binary
	// frames. Servers answer it at the transport layer — handlers never
	// see it — and any other reply (error, old server, lost response)
	// leaves the connection on JSON, so the handshake can only ever
	// downgrade to the universally understood codec.
	TypeCodec Type = "codec"
	// TypeResponse is the reply to any request.
	TypeResponse Type = "response"
)

// ModuleFileName is the wrapper module's file name — libgpushare.so in
// the paper. The scheduler daemon copies a module file under this name
// into every per-container directory, and the container runtime treats
// an LD_PRELOAD entry naming it as the injection signal.
const ModuleFileName = "libgpushare.so"

// SocketFileName is the per-container scheduler socket's file name,
// created by the daemon next to the module copy.
const SocketFileName = "gpushare.sock"

// Decision is the scheduler's verdict on an allocation request.
type Decision string

// Possible decisions. A "suspend" never appears on the wire as a decision:
// suspension is expressed by delaying the response, exactly as in the
// paper ("the response from the scheduler will be suspended until the
// required size of memory is available"). It is still defined because the
// in-process core reports it to the daemon and the simulator.
const (
	DecisionAccept  Decision = "accept"
	DecisionReject  Decision = "reject"
	DecisionSuspend Decision = "suspend"
)

// Message is the single on-wire envelope. Fields are populated according
// to Type; unused fields are omitted from the encoding.
type Message struct {
	Type Type   `json:"type"`
	Seq  uint64 `json:"seq"`

	// Request fields.
	Container string `json:"container,omitempty"`
	PID       int    `json:"pid,omitempty"`
	Size      int64  `json:"size,omitempty"`  // bytes
	Limit     int64  `json:"limit,omitempty"` // bytes, register only
	Addr      uint64 `json:"addr,omitempty"`
	API       string `json:"api,omitempty"` // originating CUDA API name

	// Tenant identity fields (register/attach only; absent = default
	// tenant, which keeps single-tenant wire bytes identical to older
	// peers).
	Tenant          string `json:"tenant,omitempty"`           // tenant name
	TenantWeight    int    `json:"tenant_weight,omitempty"`    // fair-share weight
	TenantPriority  int    `json:"tenant_priority,omitempty"`  // preemption priority
	TenantQuota     int64  `json:"tenant_quota,omitempty"`     // bytes, hard cap on the tenant's grants
	TenantGuarantee int64  `json:"tenant_guarantee,omitempty"` // bytes, soft reservation floor

	// Response fields.
	OK        bool     `json:"ok,omitempty"`
	Error     string   `json:"error,omitempty"`
	Code      string   `json:"code,omitempty"` // machine-readable error code (see Code*)
	Decision  Decision `json:"decision,omitempty"`
	Granted   int64    `json:"granted,omitempty"` // bytes assigned at register
	SocketDir string   `json:"socket_dir,omitempty"`
	Device    int      `json:"device,omitempty"` // assigned device (register/attach responses)
	Free      int64    `json:"free,omitempty"`   // meminfo: free within limit
	Total     int64    `json:"total,omitempty"`  // meminfo: the limit
	Data      string   `json:"data,omitempty"`   // codec negotiation token

	// NoReply marks a one-way frame: the sender waits for no response.
	// It exists only on the binary wire (the opcode byte's high bit) and
	// JSON never carries it. A wrapper sets it on confirm and free; the
	// scheduler sets it on the unsolicited error response that reports
	// such a frame refused. Validate rejects it anywhere else.
	NoReply bool `json:"-"`
}

// Encode renders the message as a single JSON line (with trailing
// newline): AppendEncode into a fresh buffer. The error is always nil.
func Encode(m *Message) ([]byte, error) {
	return AppendEncode(make([]byte, 0, 96), m), nil
}

// Decode parses one JSON line into a pooled message and validates it.
// A caller may hand the message back with ReleaseMessage; one that
// never does merely leaves it to the garbage collector.
func Decode(line []byte) (*Message, error) {
	m := AcquireMessage()
	if err := DecodeInto(m, line); err != nil {
		ReleaseMessage(m)
		return nil, err
	}
	return m, nil
}

// Validate checks type-specific required fields.
func (m *Message) Validate() error {
	if m.NoReply && m.Type != TypeConfirm && m.Type != TypeFree && m.Type != TypeResponse {
		// Everything else either carries an answer the sender needs or
		// may be parked, and a parked request must have someone waiting.
		return fmt.Errorf("protocol: %s cannot be one-way", m.Type)
	}
	switch m.Type {
	case TypeRegister:
		if m.Container == "" {
			return fmt.Errorf("protocol: register without container id")
		}
		if m.Limit <= 0 {
			return fmt.Errorf("protocol: register %q with non-positive limit %d", m.Container, m.Limit)
		}
	case TypeAlloc:
		if m.Size <= 0 {
			return fmt.Errorf("protocol: alloc with non-positive size %d", m.Size)
		}
		if m.PID <= 0 {
			return fmt.Errorf("protocol: alloc without pid")
		}
	case TypeConfirm:
		if m.Size <= 0 || m.PID <= 0 {
			return fmt.Errorf("protocol: confirm missing pid/size")
		}
	case TypeAbort:
		if m.Size <= 0 || m.PID <= 0 {
			return fmt.Errorf("protocol: abort missing pid/size")
		}
	case TypeFree:
		if m.PID <= 0 {
			return fmt.Errorf("protocol: free without pid")
		}
	case TypeProcExit:
		if m.PID <= 0 {
			return fmt.Errorf("protocol: procexit without pid")
		}
	case TypeClose:
		if m.Container == "" {
			return fmt.Errorf("protocol: close without container id")
		}
	case TypeAttach:
		if m.PID <= 0 {
			return fmt.Errorf("protocol: attach without pid")
		}
	case TypeRestore:
		if m.PID <= 0 {
			return fmt.Errorf("protocol: restore without pid")
		}
		if m.Size <= 0 {
			return fmt.Errorf("protocol: restore with non-positive size %d", m.Size)
		}
	case TypeMemInfo, TypeResponse, TypeHeartbeat, TypeCodec:
		// No required request fields beyond the type itself (codec
		// carries the offered token in Data).
	case "":
		return fmt.Errorf("protocol: message without type")
	default:
		return fmt.Errorf("protocol: unknown message type %q", m.Type)
	}
	return nil
}

// Deferrable reports whether a one-way request of type t (see Validate
// for which may be one-way at all) may wait in its sender's write buffer
// for the next frame on the connection: applying it admits nobody, so
// nobody can be waiting on it, and when it is applied changes no
// scheduling decision. Today that is confirm alone, which moves a size
// already charged to the address it was allocated at (the core's
// ConfirmAlloc returns no Update); only a later free of that address
// needs it, and that travels behind it on the same connection. free is
// one-way and not deferrable: suspended allocations wait on the memory
// it releases, so a free never starts a wait. It may join one: posted
// while a deferrable frame is still in the buffer it leaves with that
// frame, inside the bound that frame was given (ipc.Client.Post).
func (t Type) Deferrable() bool { return t == TypeConfirm }

// Machine-readable error codes carried in a failure response's Code
// field. The human-readable Error string stays free-form; the code is
// what clients match on to reconstruct an errors.Is-able sentinel on
// their side of the socket (ErrFromCode).
const (
	// CodeOverCapacity: the requested memory limit exceeds the GPU's
	// schedulable capacity (registration can never succeed).
	CodeOverCapacity = "over_capacity"
	// CodeUnknownContainer: the container is not (or no longer)
	// registered with the scheduler.
	CodeUnknownContainer = "unknown_container"
	// CodeRejected: the scheduler denied the allocation (over limit).
	CodeRejected = "rejected"
	// CodeUnavailable: the daemon is shutting down or cannot serve.
	CodeUnavailable = "unavailable"
	// CodeNodeDown: the node serving the container died and the request
	// could not be migrated; the daemon is alive, so the caller may
	// retry with a fresh registration (which can land elsewhere).
	CodeNodeDown = "node_down"
)

// CodeFor maps a shared sentinel to its wire code — the inverse of
// ErrFromCode, used by the daemon and the HTTP admin plane to stamp
// machine-readable codes onto failure envelopes. Unknown errors map to
// the empty string (callers pick their own fallback).
func CodeFor(err error) string {
	switch {
	case err == nil:
		return ""
	case errors.Is(err, errs.ErrOverCapacity):
		return CodeOverCapacity
	case errors.Is(err, errs.ErrRejected):
		return CodeRejected
	case errors.Is(err, errs.ErrDaemonUnavailable):
		return CodeUnavailable
	case errors.Is(err, errs.ErrNodeDown):
		return CodeNodeDown
	default:
		return ""
	}
}

// ErrFromCode maps a response's error code to the shared sentinel it
// stands for, so client-side wrappers can offer errors.Is matching for
// failures that crossed the socket. Unknown or empty codes map to nil
// (callers fall back to the free-form Error string).
func ErrFromCode(code string) error {
	switch code {
	case CodeOverCapacity:
		return errs.ErrOverCapacity
	case CodeRejected:
		return errs.ErrRejected
	case CodeUnavailable:
		return errs.ErrDaemonUnavailable
	case CodeNodeDown:
		return errs.ErrNodeDown
	default:
		return nil
	}
}

// Refusal is the error a refused one-way request surfaces as. Nobody
// waited for that request's reply, so the refusal comes back out of a
// later call on the same connection; callers tell it from a transport
// failure with errors.As, and from other refusals with errors.Is on the
// sentinel its wire code stands for.
type Refusal struct {
	Text string // "<verb> refused: <the scheduler's error>"
	Code string // machine-readable code, may be empty
}

// NewRefusal builds the refusal of a verb from the scheduler's error
// response to it.
func NewRefusal(verb Type, resp *Message) *Refusal {
	return &Refusal{Text: string(verb) + " refused: " + resp.Error, Code: resp.Code}
}

func (r *Refusal) Error() string { return r.Text }

// Unwrap exposes the sentinel for the refusal's code, if it has one.
func (r *Refusal) Unwrap() error { return ErrFromCode(r.Code) }

// IsRefusal reports whether err is, or wraps, a one-way request's
// refusal — the scheduler answered — rather than a transport failure.
func IsRefusal(err error) bool {
	var r *Refusal
	return errors.As(err, &r)
}

// Held keeps one-way requests' refusals until the next call returns them,
// once: the client keeps those it reads off the wire, the wrapper those
// its heartbeat loop gets. The zero value holds none. Add and Take take
// no lock, and Take on an empty Held writes nothing, so a call that finds
// nothing held pays one atomic load.
type Held struct{ p atomic.Pointer[error] }

// Add joins err to the refusals held.
func (h *Held) Add(err error) {
	for {
		old := h.p.Load()
		all := err
		if old != nil {
			all = errors.Join(*old, err)
		}
		if h.p.CompareAndSwap(old, &all) {
			return
		}
	}
}

// Any reports whether a refusal is held.
func (h *Held) Any() bool { return h.p.Load() != nil }

// Take returns the refusals held, nil when there are none, and clears them.
func (h *Held) Take() error {
	if !h.Any() {
		return nil
	}
	if p := h.p.Swap(nil); p != nil {
		return *p
	}
	return nil
}

// Ended reports whether done, a context's Done channel, is closed: the
// context's Err without the lock a cancellable context's Err takes. Both
// the wrapper and the client check their context on every call.
func Ended(done <-chan struct{}) bool {
	select {
	case <-done:
		return true
	default:
		return false
	}
}

// Response constructs a success response to req, carrying no payload.
// Payload fields are set by the caller on the returned message.
func Response(req *Message) *Message {
	return &Message{Type: TypeResponse, Seq: req.Seq, OK: true}
}

// ErrorResponse constructs a failure response to req.
func ErrorResponse(req *Message, format string, args ...interface{}) *Message {
	return &Message{Type: TypeResponse, Seq: req.Seq, OK: false, Error: fmt.Sprintf(format, args...)}
}

// CodedErrorResponse is ErrorResponse with a machine-readable code.
func CodedErrorResponse(req *Message, code string, format string, args ...interface{}) *Message {
	m := ErrorResponse(req, format, args...)
	m.Code = code
	return m
}

// SizeBytes returns the Size field as a bytesize.Size.
func (m *Message) SizeBytes() bytesize.Size { return bytesize.Size(m.Size) }

// LimitBytes returns the Limit field as a bytesize.Size.
func (m *Message) LimitBytes() bytesize.Size { return bytesize.Size(m.Limit) }
