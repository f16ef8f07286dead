package model

import (
	"errors"
	"fmt"

	"convgpu/internal/bytesize"
	"convgpu/internal/core"
	"convgpu/internal/errs"
)

// Backend binds the harness to one real scheduler topology. New must
// return a fresh, empty scheduler every call (RunOps and the shrinker
// re-run streams from scratch); Model must return the matching fresh
// reference model.
type Backend struct {
	// Name labels the backend in failure messages.
	Name string
	// New builds a fresh real scheduler.
	New func() (core.Scheduler, error)
	// Model builds the matching fresh reference model.
	Model func() *Model
	// Restart builds the replacement scheduler for an OpRestart — the
	// "daemon crashed, state lost" backend the harness replays recovery
	// into. nil disables restart ops (they become no-ops).
	Restart func() (core.Scheduler, error)
	// DeviceOf maps a registered container to its leaf device index in
	// the model's device order. Defaults to Scheduler.Placement, which
	// is right for core.State and multigpu.State; a cluster needs
	// node*GPUsPerNode+device from NodePlacement.
	DeviceOf func(s core.Scheduler, id core.ContainerID) (int, error)
	// Nodes and GPUsPerNode describe the cluster topology for OpNodeKill
	// (node n owns model devices [n*GPUsPerNode, (n+1)*GPUsPerNode)).
	Nodes       int
	GPUsPerNode int
	// FailNode declares a node dead on the real backend and returns the
	// failover report. nil disables OpNodeKill (it becomes a no-op).
	FailNode func(s core.Scheduler, node int) (core.FailoverReport, error)
	// Revive re-opens a failed node for placement; the harness calls it
	// right after each kill so the rest of the stream stays executable
	// (the flapping-restart path: the slot already holds a fresh
	// scheduler).
	Revive func(s core.Scheduler, node int) error
	// Tenants is the tenant table Op.Tenant indexes resolve against
	// (entry k-1 for Op.Tenant k, wrapping). Empty disables tenant
	// registrations: every op degenerates to the default tenant.
	Tenants []core.Tenant
}

// Divergence reports the first point where the real scheduler and the
// model disagreed.
type Divergence struct {
	Step   int
	Op     Op
	Detail string
}

func (d *Divergence) String() string {
	return fmt.Sprintf("step %d (%s): %s", d.Step, d.Op, d.Detail)
}

// Fails reports whether a stream still reproduces a divergence on a
// fresh backend — the shrinker's predicate.
func Fails(b Backend, ops []Op) bool {
	d, err := RunOps(b, ops)
	return err == nil && d != nil
}

// RunOps executes the stream against a fresh real scheduler and a fresh
// model in lockstep, comparing every result and the full state snapshot
// after every op. It returns the first divergence (nil when the stream
// conforms); the error return is for harness-level failures (backend
// construction), not scheduler disagreements.
func RunOps(b Backend, ops []Op) (*Divergence, error) {
	real, err := b.New()
	if err != nil {
		return nil, fmt.Errorf("model: backend %s: %w", b.Name, err)
	}
	r := &runner{
		b:     b,
		real:  real,
		model: b.Model(),
		addr:  0x1000,
		live:  make(map[int][]allocRec),
		pend:  make(map[int][]pendRec),
		lims:  make(map[int]bytesize.Size),
		tens:  make(map[int]core.Tenant),
	}
	for i, op := range ops {
		if d := r.step(i, op); d != nil {
			return d, nil
		}
		if d := r.crossCheck(i, op); d != nil {
			return d, nil
		}
	}
	return nil, nil
}

type allocRec struct {
	pid  int
	addr uint64
	size bytesize.Size
}

type pendRec struct {
	ticket core.Ticket
	pid    int
	size   bytesize.Size
}

type runner struct {
	b     Backend
	real  core.Scheduler
	model *Model
	addr  uint64

	live     map[int][]allocRec    // slot -> confirmed allocations, oldest first
	pend     map[int][]pendRec     // slot -> parked requests, suspend order
	lims     map[int]bytesize.Size // slot -> registered limit
	tens     map[int]core.Tenant   // slot -> tenant at registration
	regOrder []int                 // slots currently registered, registration order
}

// badAddr is a device address the harness never hands out (real
// addresses start at 0x1000 and grow by 0x10), used to drive the
// unknown-address error path deterministically.
const badAddr = 0xdead_beef_0000_0000

func (r *runner) id(slot int) core.ContainerID {
	return core.ContainerID(fmt.Sprintf("c%d", slot))
}

func (r *runner) slotOf(id core.ContainerID) int {
	var slot int
	fmt.Sscanf(string(id), "c%d", &slot)
	return slot
}

func (r *runner) nextAddr() uint64 {
	r.addr += 0x10
	return r.addr
}

// tenantOf resolves an op's tenant index against the backend's table.
func (r *runner) tenantOf(op Op) core.Tenant {
	if op.Tenant <= 0 || len(r.b.Tenants) == 0 {
		return core.Tenant{}
	}
	return r.b.Tenants[(op.Tenant-1)%len(r.b.Tenants)]
}

func (r *runner) deviceOf(id core.ContainerID) (int, error) {
	if r.b.DeviceOf != nil {
		return r.b.DeviceOf(r.real, id)
	}
	return r.real.Placement(id)
}

func (r *runner) fail(step int, op Op, format string, args ...any) *Divergence {
	return &Divergence{Step: step, Op: op, Detail: fmt.Sprintf(format, args...)}
}

func (r *runner) step(i int, op Op) *Divergence {
	id := r.id(op.C)
	switch op.Kind {
	case OpRegister:
		t := r.tenantOf(op)
		var rg bytesize.Size
		var rerr error
		if t.Name != "" {
			rg, rerr = r.real.RegisterTenant(id, op.Limit, t)
		} else {
			rg, rerr = r.real.Register(id, op.Limit)
		}
		device := -1
		if rerr == nil {
			d, derr := r.deviceOf(id)
			if derr != nil {
				return r.fail(i, op, "real registered %s but reports no placement: %v", id, derr)
			}
			device = d
		}
		mg, merr := r.model.RegisterTenant(id, op.Limit, device, t)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "register error mismatch: %s", c)
		}
		if rerr == nil {
			if rg != mg {
				return r.fail(i, op, "granted %v, model predicts %v", rg, mg)
			}
			r.lims[op.C] = op.Limit
			r.tens[op.C] = t
			r.live[op.C] = nil
			r.pend[op.C] = nil
			r.regOrder = append(r.regOrder, op.C)
		}

	case OpAlloc, OpAbort, OpReplay:
		rres, rerr := r.real.RequestAlloc(id, op.PID, op.Size)
		mres, merr := r.model.RequestAlloc(id, op.PID, op.Size)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "alloc error mismatch: %s", c)
		}
		if rerr != nil {
			return nil
		}
		if rres != mres {
			return r.fail(i, op, "alloc result %+v, model predicts %+v", rres, mres)
		}
		switch rres.Decision {
		case core.Accept:
			switch op.Kind {
			case OpAbort:
				ru, rerr := r.real.AbortAlloc(id, op.PID, op.Size)
				mu, merr := r.model.AbortAlloc(id, op.PID, op.Size)
				if c := diffErr(rerr, merr); c != "" {
					return r.fail(i, op, "abort error mismatch: %s", c)
				}
				if d := r.applyUpdate(i, op, ru, mu); d != nil {
					return d
				}
			case OpReplay:
				// The wrapper's replay after a redial: every allocation the
				// process holds, the one whose confirm was lost last. The
				// scheduler never went away, so the first change nothing and
				// the last must adopt the accepted charge, not add to it —
				// the post-op crossCheck compares used. (One that a restart
				// could not restore fails again here, on both sides alike.)
				//
				// An odd Pick is the lost pair: the process freed the block
				// before the connection died, so its confirm and its free were
				// lost in one write and the replay has only the others to
				// restore. The accepted charge stays on both sides — nothing
				// names it — until the process exits or the container closes.
				lost := allocRec{pid: op.PID, addr: r.nextAddr(), size: op.Size}
				replayed := allocsOf(r.live[op.C], op.PID)
				pair := op.Pick%2 == 1
				if !pair {
					replayed = append(replayed, lost)
					r.live[op.C] = append(r.live[op.C], lost)
				}
				before, _ := r.real.Info(id)
				for _, rec := range replayed {
					rerr := r.real.Restore(id, rec.pid, rec.addr, rec.size)
					merr := r.model.Restore(id, rec.pid, rec.addr, rec.size)
					if c := diffErr(rerr, merr); c != "" {
						return r.fail(i, op, "replayed restore of %#x error mismatch: %s", rec.addr, c)
					}
					if rerr != nil && rec == lost {
						return r.fail(i, op, "restore of the accepted, unconfirmed %#x failed: %v", rec.addr, rerr)
					}
				}
				if after, _ := r.real.Info(id); after.Used != before.Used {
					return r.fail(i, op, "the replay moved used %v -> %v: it restores what is charged already", before.Used, after.Used)
				}
			default:
				addr := r.nextAddr()
				rerr := r.real.ConfirmAlloc(id, op.PID, addr, op.Size)
				merr := r.model.ConfirmAlloc(id, op.PID, addr, op.Size)
				if c := diffErr(rerr, merr); c != "" {
					return r.fail(i, op, "confirm error mismatch: %s", c)
				}
				if rerr == nil {
					r.live[op.C] = append(r.live[op.C], allocRec{pid: op.PID, addr: addr, size: op.Size})
				}
			}
		case core.Suspend:
			r.pend[op.C] = append(r.pend[op.C], pendRec{ticket: rres.Ticket, pid: op.PID, size: op.Size})
		}

	case OpFree:
		pid, addr := op.PID, uint64(badAddr)
		var rec allocRec
		if n := len(r.live[op.C]); n > 0 {
			rec = r.live[op.C][op.Pick%n]
			pid, addr = rec.pid, rec.addr
		}
		rs, ru, rerr := r.real.Free(id, pid, addr)
		ms, mu, merr := r.model.Free(id, pid, addr)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "free error mismatch: %s", c)
		}
		if rerr != nil {
			return nil
		}
		if rs != ms {
			return r.fail(i, op, "freed %v, model predicts %v", rs, ms)
		}
		r.live[op.C] = removeAlloc(r.live[op.C], addr)
		if d := r.applyUpdate(i, op, ru, mu); d != nil {
			return d
		}

	case OpClose:
		rrel, ru, rerr := r.real.Close(id)
		mrel, mu, merr := r.model.Close(id)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "close error mismatch: %s", c)
		}
		if rerr != nil {
			return nil
		}
		if rrel != mrel {
			return r.fail(i, op, "close released %v, model predicts %v", rrel, mrel)
		}
		r.live[op.C] = nil
		r.pend[op.C] = nil
		r.regOrder = removeSlot(r.regOrder, op.C)
		if d := r.applyUpdate(i, op, ru, mu); d != nil {
			return d
		}

	case OpProcExit:
		rrel, ru, rerr := r.real.ProcessExit(id, op.PID)
		mrel, mu, merr := r.model.ProcessExit(id, op.PID)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "procexit error mismatch: %s", c)
		}
		if rerr != nil {
			return nil
		}
		if rrel != mrel {
			return r.fail(i, op, "procexit released %v, model predicts %v", rrel, mrel)
		}
		r.live[op.C] = removePID(r.live[op.C], op.PID)
		r.pend[op.C] = removePendPID(r.pend[op.C], op.PID)
		if d := r.applyUpdate(i, op, ru, mu); d != nil {
			return d
		}

	case OpMemInfo:
		rf, rt, rerr := r.real.MemInfo(id)
		mf, mt, merr := r.model.MemInfo(id)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "meminfo error mismatch: %s", c)
		}
		if rerr == nil && (rf != mf || rt != mt) {
			return r.fail(i, op, "meminfo (%v,%v), model predicts (%v,%v)", rf, rt, mf, mt)
		}

	case OpDrop:
		tickets := []core.Ticket{1 << 62} // unknown ticket: no-op on both sides
		if n := len(r.pend[op.C]); n > 0 {
			tickets = []core.Ticket{r.pend[op.C][op.Pick%n].ticket}
		}
		ru, rerr := r.real.DropPending(id, tickets)
		mu, merr := r.model.DropPending(id, tickets)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "drop error mismatch: %s", c)
		}
		if rerr != nil {
			return nil
		}
		r.pend[op.C] = removeTicket(r.pend[op.C], tickets[0])
		if d := r.applyUpdate(i, op, ru, mu); d != nil {
			return d
		}

	case OpRestart:
		if r.b.Restart == nil {
			return nil
		}
		return r.restart(i, op)

	case OpNodeKill:
		if r.b.FailNode == nil || r.b.Nodes < 2 || r.b.GPUsPerNode < 1 {
			return nil
		}
		return r.nodeKill(i, op)
	}
	return nil
}

// nodeKill drives the headline failure-domain invariant: kill one node,
// fail it over, and mechanically account for every pre-kill parked
// ticket of that node's containers — each must be migrated, admitted,
// or observably evicted, never silently lost. The real backend makes
// the placement decisions; the model replays them (register on the
// reported target, re-queue each ticket) and must land in the same
// state, which the post-op crossCheck verifies in full. Afterwards the
// node is revived — its slot holds a fresh scheduler, mirrored by the
// model's device reset — so the rest of the stream stays executable.
func (r *runner) nodeKill(i int, op Op) *Divergence {
	node := op.Pick % r.b.Nodes
	gpus := r.b.GPUsPerNode

	// Snapshot the dying node's pre-kill state: which slots live there,
	// and their parked tickets in suspend order.
	pre := make(map[int][]pendRec)
	for slot := range r.lims {
		id := r.id(slot)
		dev, ok := r.model.Device(id)
		if !ok {
			continue
		}
		if _, registered := r.modelRegistered(id); !registered {
			continue
		}
		if dev/gpus == node {
			pre[slot] = append([]pendRec{}, r.pend[slot]...)
		}
	}

	rep, err := r.b.FailNode(r.real, node)
	if err != nil {
		return r.fail(i, op, "failnode(%d): %v", node, err)
	}

	// The model's mirror of ReplaceMember: the node's devices reboot
	// empty with their original seeds.
	devs := make([]int, gpus)
	for d := 0; d < gpus; d++ {
		devs[d] = node*gpus + d
	}
	r.model.ResetDevices(devs)

	accounted := make(map[int]bool, len(pre))
	for _, mv := range rep.Moves {
		slot := r.slotOf(mv.ID)
		want, ok := pre[slot]
		if !ok {
			return r.fail(i, op, "failover moved %s, which was not on node %d", mv.ID, node)
		}
		if accounted[slot] {
			return r.fail(i, op, "failover reported %s twice", mv.ID)
		}
		accounted[slot] = true

		// Ticket accounting: the report must cover exactly the pre-kill
		// parked tickets, in park order.
		if len(mv.Tickets) != len(want) {
			return r.fail(i, op, "%s: failover accounts %d tickets, %d were parked — tickets lost",
				mv.ID, len(mv.Tickets), len(want))
		}
		for j, tm := range mv.Tickets {
			if tm.OldTicket != want[j].ticket || tm.PID != want[j].pid || tm.Size != want[j].size {
				return r.fail(i, op, "%s ticket %d: failover reports (t=%d pid=%d size=%v), parked was (t=%d pid=%d size=%v)",
					mv.ID, j, tm.OldTicket, tm.PID, tm.Size, want[j].ticket, want[j].pid, want[j].size)
			}
		}

		// Allocations died with the node on both sides.
		r.live[slot] = nil
		r.pend[slot] = nil

		if mv.Evicted {
			for _, tm := range mv.Tickets {
				if tm.Outcome != core.TicketEvicted {
					return r.fail(i, op, "%s evicted but ticket %d outcome is %v", mv.ID, tm.OldTicket, tm.Outcome)
				}
			}
			r.regOrder = removeSlot(r.regOrder, slot)
			continue
		}

		// Replay the migration into the model with the real backend's
		// decisions: fresh registration on the reported target, then each
		// ticket re-queued through ordinary admission.
		flat, derr := r.deviceOf(mv.ID)
		if derr != nil {
			return r.fail(i, op, "migrated %s has no placement: %v", mv.ID, derr)
		}
		if flat/gpus != mv.To {
			return r.fail(i, op, "%s reported on node %d but placed on device %d", mv.ID, mv.To, flat)
		}
		if mv.Tenant != r.tens[slot] {
			return r.fail(i, op, "%s migrated with tenant %+v, registered with %+v — tenant binding lost",
				mv.ID, mv.Tenant, r.tens[slot])
		}
		mg, merr := r.model.RegisterTenant(mv.ID, mv.Limit, flat, mv.Tenant)
		if merr != nil {
			return r.fail(i, op, "model refuses migrated registration of %s: %v", mv.ID, merr)
		}
		if mg != mv.Granted {
			return r.fail(i, op, "%s migrated with grant %v, model predicts %v", mv.ID, mv.Granted, mg)
		}
		for _, tm := range mv.Tickets {
			res, merr := r.model.RequestAlloc(mv.ID, tm.PID, tm.Size)
			if merr != nil {
				return r.fail(i, op, "model refuses re-queued ticket %d of %s: %v", tm.OldTicket, mv.ID, merr)
			}
			switch tm.Outcome {
			case core.TicketAdmitted:
				if res.Decision != core.Accept {
					return r.fail(i, op, "%s ticket %d admitted by failover, model decides %v", mv.ID, tm.OldTicket, res.Decision)
				}
				addr := r.nextAddr()
				rerr := r.real.ConfirmAlloc(mv.ID, tm.PID, addr, tm.Size)
				merr := r.model.ConfirmAlloc(mv.ID, tm.PID, addr, tm.Size)
				if c := diffErr(rerr, merr); c != "" {
					return r.fail(i, op, "confirm of failover-admitted ticket %d error mismatch: %s", tm.OldTicket, c)
				}
				if rerr != nil {
					return r.fail(i, op, "confirm of failover-admitted ticket %d failed: %v", tm.OldTicket, rerr)
				}
				r.live[slot] = append(r.live[slot], allocRec{pid: tm.PID, addr: addr, size: tm.Size})
			case core.TicketMigrated:
				if res.Decision != core.Suspend {
					return r.fail(i, op, "%s ticket %d migrated by failover, model decides %v", mv.ID, tm.OldTicket, res.Decision)
				}
				if res.Ticket != tm.NewTicket {
					return r.fail(i, op, "%s ticket %d re-parked as %d, model assigns %d", mv.ID, tm.OldTicket, tm.NewTicket, res.Ticket)
				}
				r.pend[slot] = append(r.pend[slot], pendRec{ticket: tm.NewTicket, pid: tm.PID, size: tm.Size})
			case core.TicketEvicted:
				if res.Decision != core.Reject {
					return r.fail(i, op, "%s ticket %d evicted by failover, model decides %v", mv.ID, tm.OldTicket, res.Decision)
				}
			}
		}
	}
	// Every doomed slot must be accounted exactly once.
	for slot := range pre {
		if !accounted[slot] {
			return r.fail(i, op, "container c%d was on node %d but the failover report omits it — state lost", slot, node)
		}
	}

	if r.b.Revive != nil {
		if err := r.b.Revive(r.real, node); err != nil {
			return r.fail(i, op, "revive(%d): %v", node, err)
		}
	}
	return nil
}

// modelRegistered reports whether id is registered (not merely pinned)
// in the model.
func (r *runner) modelRegistered(id core.ContainerID) (int, bool) {
	for _, v := range r.model.Containers() {
		if v.ID == id {
			return v.Device, true
		}
	}
	return 0, false
}

// restart simulates a scheduler crash: the backend is rebuilt empty and
// the harness replays the recovery protocol the daemon uses —
// RestorePlacement, EnsureRegistered with the recorded limit, then
// Restore for every live allocation — against both sides. Parked
// requests do not survive a crash (their responders died with the
// connection), so both sides drop them.
func (r *runner) restart(i int, op Op) *Divergence {
	type replayReg struct {
		slot   int
		id     core.ContainerID
		device int
	}
	var regs []replayReg
	for _, slot := range r.regOrder {
		id := r.id(slot)
		dev, ok := r.model.Device(id)
		if !ok {
			return r.fail(i, op, "harness bug: slot %d registered but unplaced in model", slot)
		}
		regs = append(regs, replayReg{slot: slot, id: id, device: dev})
	}

	real2, err := r.b.Restart()
	if err != nil {
		return r.fail(i, op, "restart backend: %v", err)
	}
	model2 := r.b.Model()
	r.real, r.model = real2, model2

	for _, reg := range regs {
		rerr := r.real.RestorePlacement(reg.id, reg.device)
		merr := r.model.RestorePlacement(reg.id, reg.device)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "restoreplacement %s error mismatch: %s", reg.id, c)
		}
		var rg bytesize.Size
		if t := r.tens[reg.slot]; t.Name != "" {
			rg, rerr = r.real.EnsureRegisteredTenant(reg.id, r.lims[reg.slot], t)
		} else {
			rg, rerr = r.real.EnsureRegistered(reg.id, r.lims[reg.slot])
		}
		mg, merr := r.model.EnsureRegisteredTenant(reg.id, r.lims[reg.slot], reg.device, r.tens[reg.slot])
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "ensureregistered %s error mismatch: %s", reg.id, c)
		}
		if rerr == nil && rg != mg {
			return r.fail(i, op, "recovery granted %s %v, model predicts %v", reg.id, rg, mg)
		}
	}
	for _, reg := range regs {
		for _, rec := range r.live[reg.slot] {
			rerr := r.real.Restore(reg.id, rec.pid, rec.addr, rec.size)
			merr := r.model.Restore(reg.id, rec.pid, rec.addr, rec.size)
			if c := diffErr(rerr, merr); c != "" {
				return r.fail(i, op, "restore %s %#x error mismatch: %s", reg.id, rec.addr, c)
			}
		}
	}
	for slot := range r.pend {
		r.pend[slot] = nil
	}
	return nil
}

// applyUpdate checks the real Update against the model's prediction
// exactly — same admitted tickets in the same order, same cancelled
// tickets — then plays the consequences forward: every admitted ticket
// is confirmed (on both sides) at a fresh address, every cancelled one
// forgotten.
func (r *runner) applyUpdate(i int, op Op, ru, mu core.Update) *Divergence {
	if !sameAdmits(ru.Admitted, mu.Admitted) || !sameAdmits(ru.Cancelled, mu.Cancelled) {
		return r.fail(i, op, "update mismatch: real %s, model %s", fmtUpdate(ru), fmtUpdate(mu))
	}
	for _, ad := range ru.Admitted {
		slot := r.slotOf(ad.Container)
		rec, rest, ok := takeTicket(r.pend[slot], ad.Ticket)
		if !ok {
			return r.fail(i, op, "admitted unknown ticket %d for %s", ad.Ticket, ad.Container)
		}
		r.pend[slot] = rest
		addr := r.nextAddr()
		rerr := r.real.ConfirmAlloc(ad.Container, rec.pid, addr, rec.size)
		merr := r.model.ConfirmAlloc(ad.Container, rec.pid, addr, rec.size)
		if c := diffErr(rerr, merr); c != "" {
			return r.fail(i, op, "confirm of admitted ticket %d error mismatch: %s", ad.Ticket, c)
		}
		if rerr != nil {
			return r.fail(i, op, "confirm of admitted ticket %d failed: %v", ad.Ticket, rerr)
		}
		r.live[slot] = append(r.live[slot], allocRec{pid: rec.pid, addr: addr, size: rec.size})
	}
	for _, ca := range ru.Cancelled {
		slot := r.slotOf(ca.Container)
		if _, rest, ok := takeTicket(r.pend[slot], ca.Ticket); ok {
			r.pend[slot] = rest
		}
	}
	return nil
}

// crossCheck compares the complete observable state after an op: the
// real scheduler's own invariants, every container's
// limit/grant/used/pending/placement against the model, and every
// device's free pool.
func (r *runner) crossCheck(i int, op Op) *Divergence {
	if err := r.real.CheckInvariants(); err != nil {
		return r.fail(i, op, "real invariant violation: %v", err)
	}
	snap := r.real.Snapshot()
	byID := make(map[core.ContainerID]core.ContainerInfo, len(snap))
	for _, info := range snap {
		byID[info.ID] = info
	}
	views := r.model.Containers()
	if len(views) != len(snap) {
		return r.fail(i, op, "real has %d containers, model has %d", len(snap), len(views))
	}
	for _, v := range views {
		info, ok := byID[v.ID]
		if !ok {
			return r.fail(i, op, "model container %s missing from real snapshot", v.ID)
		}
		if info.Limit != v.Limit || info.Grant != v.Grant || info.Used != v.Used || info.Pending != v.Pending {
			return r.fail(i, op, "%s state: real limit=%v grant=%v used=%v pending=%d, model limit=%v grant=%v used=%v pending=%d",
				v.ID, info.Limit, info.Grant, info.Used, info.Pending, v.Limit, v.Grant, v.Used, v.Pending)
		}
		dev, err := r.deviceOf(v.ID)
		if err != nil {
			return r.fail(i, op, "real reports no placement for %s: %v", v.ID, err)
		}
		if dev != v.Device {
			return r.fail(i, op, "%s placed on device %d, model has %d", v.ID, dev, v.Device)
		}
	}
	devs := r.real.Devices()
	pools := r.model.Pools()
	if len(devs) != len(pools) {
		return r.fail(i, op, "real reports %d devices, model has %d", len(devs), len(pools))
	}
	for j, d := range devs {
		if d.PoolFree != pools[j] {
			return r.fail(i, op, "device %d pool: real %v, model %v", j, d.PoolFree, pools[j])
		}
	}
	rten := r.real.Tenants()
	mten := r.model.Tenants()
	if len(rten) != len(mten) {
		return r.fail(i, op, "real reports %d tenants, model has %d (real %+v, model %+v)",
			len(rten), len(mten), rten, mten)
	}
	for j := range rten {
		if rten[j] != mten[j] {
			return r.fail(i, op, "tenant rollup mismatch: real %+v, model %+v", rten[j], mten[j])
		}
	}
	return nil
}

// --- comparison helpers ---

// errClass buckets an error for comparison: a failure with a class in
// errs's table compares by its wire code, the core's other sentinels by
// identity, anything else as a generic "error", so wrapped messages with
// differing text still match.
func errClass(err error) string {
	if code := errs.Code(err); code != "" {
		return code
	}
	switch {
	case err == nil:
		return ""
	case errors.Is(err, core.ErrDuplicateContainer):
		return "duplicate-container"
	case errors.Is(err, core.ErrInvalidLimit):
		return "invalid-limit"
	case errors.Is(err, core.ErrInvalidSize):
		return "invalid-size"
	case errors.Is(err, core.ErrUnknownAddr):
		return "unknown-addr"
	case errors.Is(err, core.ErrUnknownPID):
		return "unknown-pid"
	case errors.Is(err, core.ErrNotCharged):
		return "not-charged"
	case errors.Is(err, core.ErrLimitMismatch):
		return "limit-mismatch"
	case errors.Is(err, core.ErrRestoreInfeasible):
		return "restore-infeasible"
	case errors.Is(err, core.ErrUnknownDevice):
		return "unknown-device"
	default:
		return "error"
	}
}

// diffErr compares two errors by class, returning "" when they match
// and a description otherwise.
func diffErr(real, model error) string {
	rc, mc := errClass(real), errClass(model)
	if rc == mc {
		return ""
	}
	return fmt.Sprintf("real %q (%v), model %q (%v)", rc, real, mc, model)
}

func sameAdmits(a, b []core.Admitted) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func fmtUpdate(u core.Update) string {
	return fmt.Sprintf("{admitted:%v cancelled:%v}", u.Admitted, u.Cancelled)
}

func removeAlloc(recs []allocRec, addr uint64) []allocRec {
	out := recs[:0]
	for _, rec := range recs {
		if rec.addr != addr {
			out = append(out, rec)
		}
	}
	return out
}

func allocsOf(recs []allocRec, pid int) []allocRec {
	var out []allocRec
	for _, rec := range recs {
		if rec.pid == pid {
			out = append(out, rec)
		}
	}
	return out
}

func removePID(recs []allocRec, pid int) []allocRec {
	out := recs[:0]
	for _, rec := range recs {
		if rec.pid != pid {
			out = append(out, rec)
		}
	}
	return out
}

func removePendPID(recs []pendRec, pid int) []pendRec {
	out := recs[:0]
	for _, rec := range recs {
		if rec.pid != pid {
			out = append(out, rec)
		}
	}
	return out
}

func removeTicket(recs []pendRec, t core.Ticket) []pendRec {
	out := recs[:0]
	for _, rec := range recs {
		if rec.ticket != t {
			out = append(out, rec)
		}
	}
	return out
}

func takeTicket(recs []pendRec, t core.Ticket) (pendRec, []pendRec, bool) {
	for i, rec := range recs {
		if rec.ticket == t {
			rest := append(append([]pendRec{}, recs[:i]...), recs[i+1:]...)
			return rec, rest, true
		}
	}
	return pendRec{}, recs, false
}

func removeSlot(slots []int, slot int) []int {
	out := slots[:0]
	for _, s := range slots {
		if s != slot {
			out = append(out, s)
		}
	}
	return out
}
