package model

import (
	"fmt"
	"math/rand"
	"strings"

	"convgpu/internal/bytesize"
)

// OpKind enumerates the operations a generated stream can contain.
type OpKind uint8

// Op kinds.
const (
	OpRegister OpKind = iota // register C with Limit
	OpAlloc                  // RequestAlloc(C, PID, Size), confirm if accepted
	OpAbort                  // RequestAlloc(C, PID, Size), abort if accepted
	OpFree                   // free the Pick-th live allocation of C
	OpClose                  // close C
	OpProcExit               // process PID of C exits
	OpMemInfo                // meminfo C
	OpDrop                   // drop the Pick-th parked ticket of C
	OpRestart                // crash the backend and recover from persisted state
	OpNodeKill               // kill node Pick%Nodes, fail it over, then revive it
	OpReplay                 // RequestAlloc(C, PID, Size); if accepted, the connection drops before the confirm and the replay restores it — or, on an odd Pick, cannot: the process freed it first
)

func (k OpKind) String() string {
	switch k {
	case OpRegister:
		return "register"
	case OpAlloc:
		return "alloc"
	case OpAbort:
		return "abort"
	case OpFree:
		return "free"
	case OpClose:
		return "close"
	case OpProcExit:
		return "procexit"
	case OpMemInfo:
		return "meminfo"
	case OpDrop:
		return "drop"
	case OpRestart:
		return "restart"
	case OpNodeKill:
		return "nodekill"
	case OpReplay:
		return "replay"
	default:
		return fmt.Sprintf("OpKind(%d)", int(k))
	}
}

// Op is one step of a generated stream. Ops refer to containers and
// allocations by slot (C) and pick index (Pick), which the harness
// resolves against the state at execution time: an op that targets
// something absent degenerates into the same expected-error call on
// both the real scheduler and the model. That makes any subsequence of
// a stream executable, which is what lets ddmin shrink soundly.
type Op struct {
	Kind   OpKind
	C      int           // container slot, 0-based ("c0", "c1", ...)
	PID    int           // process id, 1-based
	Size   bytesize.Size // OpAlloc/OpAbort/OpReplay request size
	Limit  bytesize.Size // OpRegister limit
	Pick   int           // OpFree: live-alloc index; OpDrop: parked-ticket index (mod current count); OpReplay: odd = the lost pair
	Tenant int           // OpRegister: 0 = default tenant, k > 0 = Backend.Tenants[(k-1) mod len]
}

func (o Op) String() string {
	switch o.Kind {
	case OpRegister:
		if o.Tenant > 0 {
			return fmt.Sprintf("register c%d limit=%v tenant=%d", o.C, o.Limit, o.Tenant)
		}
		return fmt.Sprintf("register c%d limit=%v", o.C, o.Limit)
	case OpAlloc, OpAbort:
		return fmt.Sprintf("%s c%d pid=%d size=%v", o.Kind, o.C, o.PID, o.Size)
	case OpReplay:
		return fmt.Sprintf("replay c%d pid=%d size=%v freed=%t", o.C, o.PID, o.Size, o.Pick%2 == 1)
	case OpFree:
		return fmt.Sprintf("free c%d pick=%d", o.C, o.Pick)
	case OpClose, OpMemInfo:
		return fmt.Sprintf("%s c%d", o.Kind, o.C)
	case OpProcExit:
		return fmt.Sprintf("procexit c%d pid=%d", o.C, o.PID)
	case OpDrop:
		return fmt.Sprintf("drop c%d pick=%d", o.C, o.Pick)
	case OpRestart:
		return "restart"
	case OpNodeKill:
		return fmt.Sprintf("nodekill pick=%d", o.Pick)
	default:
		return o.Kind.String()
	}
}

// FormatOps renders a stream one op per line — the replayable trace a
// failing test prints.
func FormatOps(ops []Op) string {
	var b strings.Builder
	for i, o := range ops {
		fmt.Fprintf(&b, "  %3d: %s\n", i, o)
	}
	return b.String()
}

// GenConfig shapes a generated stream.
type GenConfig struct {
	// Containers is the number of container slots (c0..cN-1).
	Containers int
	// PIDs is the number of process ids used per container (1..PIDs).
	PIDs int
	// MaxLimitMiB bounds register limits; pick it near the device
	// capacity so streams overcommit and suspend.
	MaxLimitMiB int
	// MaxSizeMiB bounds allocation sizes.
	MaxSizeMiB int
	// Restarts enables OpRestart (the backend must support it).
	Restarts bool
	// NodeKills enables OpNodeKill (the backend must support FailNode).
	NodeKills bool
	// TenantSlots > 0 stamps each register with a tenant draw in
	// [0, TenantSlots]: 0 keeps the default tenant, k > 0 resolves
	// against the backend's tenant table. Zero (the default) adds no
	// generator draws, so legacy streams stay byte-identical per seed.
	TenantSlots int
}

// DefaultGenConfig returns the profile the conformance tests use: six
// containers, overcommitted against a 1 GiB device, with sizes large
// enough that suspension and redistribution dominate.
func DefaultGenConfig() GenConfig {
	return GenConfig{Containers: 6, PIDs: 3, MaxLimitMiB: 800, MaxSizeMiB: 400}
}

// Generate produces a deterministic op stream from seed. The weights
// favor allocations and frees (the redistribution engine's fuel), keep
// enough register/close churn to cycle container lifetimes, and sprinkle
// error paths: ~8% of registers use an over-capacity limit, ~5% of
// allocs use size zero, ~10% of allocations lose their confirm.
func Generate(seed int64, n int, g GenConfig) []Op {
	rng := rand.New(rand.NewSource(seed))
	ops := make([]Op, 0, n)
	for i := 0; i < n; i++ {
		op := Op{
			C:    rng.Intn(g.Containers),
			PID:  1 + rng.Intn(g.PIDs),
			Pick: rng.Intn(1 << 16),
		}
		w := rng.Intn(100)
		switch {
		case w < 14:
			op.Kind = OpRegister
			limit := 1 + g.MaxLimitMiB/4 + rng.Intn(3*g.MaxLimitMiB/4)
			if rng.Intn(12) == 0 {
				limit = 4 * g.MaxLimitMiB // exceeds any device: error path
			}
			op.Limit = bytesize.Size(limit) * bytesize.MiB
			if g.TenantSlots > 0 {
				op.Tenant = rng.Intn(g.TenantSlots + 1)
			}
		case w < 47:
			op.Kind = OpAlloc
			op.Size = allocSize(rng, g)
		case w < 51:
			// Taken from the allocations' share, with the same draws: the
			// accept → connection drop → replay path a deferred confirm
			// makes a little likelier (DESIGN §7). Pick, drawn for every
			// op, says which half: the allocation is still held, or it was
			// freed and the free was lost with the confirm.
			op.Kind = OpReplay
			op.Size = allocSize(rng, g)
		case w < 56:
			op.Kind = OpAbort
			op.Size = allocSize(rng, g)
		case w < 74:
			op.Kind = OpFree
		case w < 81:
			op.Kind = OpClose
		case w < 86:
			op.Kind = OpProcExit
		case w < 91:
			op.Kind = OpMemInfo
		case w < 96:
			op.Kind = OpDrop
		default:
			switch {
			case g.NodeKills:
				op.Kind = OpNodeKill
			case g.Restarts:
				op.Kind = OpRestart
			default:
				op.Kind = OpAlloc
				op.Size = allocSize(rng, g)
			}
		}
		ops = append(ops, op)
	}
	return ops
}

func allocSize(rng *rand.Rand, g GenConfig) bytesize.Size {
	if rng.Intn(20) == 0 {
		return 0 // ErrInvalidSize path
	}
	return bytesize.Size(1+rng.Intn(g.MaxSizeMiB)) * bytesize.MiB
}
