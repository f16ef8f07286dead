// Package errs names every class of failure that crosses a layer. A
// class is a row of Classes: a sentinel, matchable with errors.Is
// wherever the failure surfaces, and the code it travels as on a socket,
// in a failed operation and in the /v1 error envelope. Code and FromCode
// are the only mapping between the two. Every class fails an intercepted
// cudaMalloc with cudaErrorMemoryAllocation, so the table has no CUDA
// column.
package errs

import "errors"

var (
	// ErrRejected: the scheduler denied an allocation because it would
	// exceed the container's memory limit (the paper's reject decision).
	ErrRejected = errors.New("convgpu: allocation rejected: exceeds container limit")

	// ErrSuspendedTimeout: an allocation was suspended and the caller's
	// deadline expired before the scheduler could admit it. It never
	// crosses a socket, so it has no row.
	ErrSuspendedTimeout = errors.New("convgpu: allocation suspended past caller deadline")

	// ErrDaemonUnavailable: the scheduler daemon could not be reached
	// (dial failed, connection dropped mid-call, or daemon shut down).
	ErrDaemonUnavailable = errors.New("convgpu: scheduler daemon unavailable")

	// ErrOverCapacity: a container's memory limit exceeds the GPU's
	// schedulable capacity, so registration can never succeed.
	ErrOverCapacity = errors.New("convgpu: memory limit exceeds GPU capacity")

	// ErrUnknownContainer: the container is not (or no longer)
	// registered with the scheduler.
	ErrUnknownContainer = errors.New("convgpu: unknown container")

	// ErrNodeDown: the node serving this container died and its state
	// could not be migrated to a surviving node. Distinct from
	// ErrDaemonUnavailable — the daemon itself is alive and a retry
	// (fresh registration) may land on a healthy node.
	ErrNodeDown = errors.New("convgpu: node down")
)

// The wire codes, one per row of Classes.
const (
	CodeOverCapacity     = "over_capacity"
	CodeUnknownContainer = "unknown_container"
	CodeRejected         = "rejected"
	CodeUnavailable      = "unavailable"
	CodeNodeDown         = "node_down"
)

// Classes is the error table. Code matches the rows in order, so an
// error that wraps two sentinels takes the earlier row's code.
var Classes = [...]struct {
	Err  error
	Code string
}{
	{ErrOverCapacity, CodeOverCapacity},
	{ErrUnknownContainer, CodeUnknownContainer},
	{ErrRejected, CodeRejected},
	// A write-ahead log that refuses an append is unavailable too, not a
	// class of its own: the caller's remedy is the same (fail closed,
	// retry later), and a new code would need a new facade sentinel.
	{ErrDaemonUnavailable, CodeUnavailable},
	{ErrNodeDown, CodeNodeDown},
}

// Code returns the wire code of the first row err matches with
// errors.Is, or "" when err has no class (or is nil).
func Code(err error) string {
	for _, c := range Classes {
		if errors.Is(err, c.Err) {
			return c.Code
		}
	}
	return ""
}

// FromCode returns the sentinel of the row whose code is code, or nil
// for an empty or unknown code (the caller falls back to the error text).
func FromCode(code string) error {
	for _, c := range Classes {
		if c.Code == code {
			return c.Err
		}
	}
	return nil
}

// Intern returns the table's own copy of the code spelled by b, so a
// decoder that meets a known code allocates nothing; an unknown code is
// copied.
func Intern(b []byte) string {
	for _, c := range Classes {
		if string(b) == c.Code {
			return c.Code
		}
	}
	return string(b)
}
