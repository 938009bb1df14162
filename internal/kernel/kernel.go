// Package kernel simulates the MINIX 3 microkernel layer the paper's
// recovery architecture sits on: a process table with generation-tagged IPC
// endpoints, rendezvous message passing that is aborted by the kernel when a
// party dies, asynchronous notifications, per-process privileges enforced on
// every kernel call, capability-style memory grants with SafeCopy, device
// port I/O, IRQ delivery, clock alarms, and POSIX-flavored signals.
//
// The kernel runs on the deterministic virtual-time engine in internal/sim;
// each system process is a sim coroutine driving kernel calls through a Ctx.
package kernel

import (
	"fmt"
	"slices"

	"resilientos/internal/obs"
	"resilientos/internal/perf"
	"resilientos/internal/sim"
)

// CauseKind classifies why a process died; the process manager turns this
// into the defect classes of paper §5.1.
type CauseKind int

// Death cause kinds.
const (
	CauseExit      CauseKind = iota + 1 // voluntary exit (status 0) or panic (status != 0)
	CauseSignal                         // killed by a signal (user kill, RS SIGKILL)
	CauseException                      // killed by the kernel for a CPU/MMU exception
)

// Cause records how a process died.
type Cause struct {
	Kind   CauseKind
	Status int       // exit status for CauseExit
	Signal Signal    // killing signal for CauseSignal
	Exc    Exception // exception type for CauseException
}

func (c Cause) String() string {
	switch c.Kind {
	case CauseExit:
		return fmt.Sprintf("exit(%d)", c.Status)
	case CauseSignal:
		return fmt.Sprintf("killed(%v)", c.Signal)
	case CauseException:
		return fmt.Sprintf("exception(%v)", c.Exc)
	default:
		return "unknown"
	}
}

// Exception is a hardware exception type.
type Exception int

// Exception types observed by the fault-injection experiments.
const (
	ExcNone Exception = iota
	ExcMMU            // bad memory access
	ExcCPU            // illegal instruction, divide by zero, ...
)

func (e Exception) String() string {
	switch e {
	case ExcNone:
		return "none"
	case ExcMMU:
		return "MMU"
	case ExcCPU:
		return "CPU"
	default:
		return fmt.Sprintf("Exception(%d)", int(e))
	}
}

// DeathHook observes process deaths (the process manager registers one to
// generate SIGCHLD-equivalent events for the reincarnation server).
type DeathHook func(label string, ep Endpoint, cause Cause)

// Kernel is the simulated microkernel.
type Kernel struct {
	env  *sim.Env
	obs  *obs.Recorder  // nil = observability off (zero cost)
	perf *perf.Profiler // nil = wall-clock telemetry off (zero cost)

	// Registry counters cached at SetObs so the IPC hot path pays one
	// pointer increment, never a map lookup. The windowed telemetry
	// sampler (internal/obs/timeseries) reads them as per-window deltas.
	ipcSend *obs.Counter // messages sent (rendezvous + async)
	ipcRecv *obs.Counter // messages delivered

	slots    []*procEntry // process table; index = slot
	byLabel  map[string]*procEntry
	version  uint64 // see Version; bumped on every proc- or grant-table write
	deathFns []DeathHook

	ports  map[uint32]Device    // device port space
	irqs   map[int][]*procEntry // subscribers per interrupt line
	raised [64]uint64           // RaiseIRQ calls per line (see IRQsRaised)

	bufs Bufs // the system's bulk-buffer free list

	spanNamesOf map[string][2]string // label → spanNames, filled by traced calls

	debugLeakGrants bool // test-only: skip grant revocation in reap
}

// New creates a kernel on the given simulation environment.
func New(env *sim.Env) *Kernel {
	return &Kernel{
		env:         env,
		byLabel:     make(map[string]*procEntry),
		ports:       make(map[uint32]Device),
		irqs:        make(map[int][]*procEntry),
		spanNamesOf: make(map[string][2]string),
	}
}

// SetObs installs the observability recorder every kernel-layer event is
// emitted through. A nil recorder (the default) keeps all instrumented
// paths free.
func (k *Kernel) SetObs(r *obs.Recorder) {
	k.obs = r
	k.ipcSend = r.Metrics().Counter("kernel.ipc.send")
	k.ipcRecv = r.Metrics().Counter("kernel.ipc.recv")
}

// SetPerf installs the wall-clock profiler bracketing the IPC dispatch
// paths (RegionKernelIPC). A nil profiler (the default) keeps the hot
// path free; profiler methods are nil-safe.
func (k *Kernel) SetPerf(p *perf.Profiler) { k.perf = p }

// labelFor resolves an endpoint to a trace-friendly name: stable labels
// for live processes, pseudo-source names for the kernel's own sources.
func (k *Kernel) labelFor(ep Endpoint) string {
	if ep.valid() {
		if e := k.lookup(ep); e != nil {
			return e.label
		}
		return "dead"
	}
	return ep.String()
}

// OnDeath registers a hook called (in scheduler context) whenever a system
// process dies, after all IPC cleanup for the death completed.
func (k *Kernel) OnDeath(fn DeathHook) { k.deathFns = append(k.deathFns, fn) }

// procEntry is one process-table slot. It holds one instance at a time:
// Spawn reuses the entry of a dead instance for the slot's next one (see
// recycle), so the entry, its grant table, its queues' arrays, its alarm
// timer and its sim process are allocated once per slot, not once per
// instance. Only the Ctx is the instance's own.
type procEntry struct {
	k     *Kernel
	slot  int
	gen   int
	ep    Endpoint
	label string
	proc  *sim.Proc
	priv  Privileges
	alive bool
	cause Cause

	ctx   *Ctx            // the instance's handle
	body  func(c *Ctx)    // the instance's body
	start func(*sim.Proc) // runs body; made once per entry

	// IPC state.
	recvWait bool       // blocked in Receive
	inbox    Message    // delivered to the blocked Receive, until it resumes
	recvFrom Endpoint   // who we are waiting for (Any allowed)
	recvAlso Endpoint   // ReceiveOr's second source, None for Receive
	sendTo   *procEntry // non-nil when blocked sending to that process
	sendMsg  Message    // the message being sent while blocked
	senders  []*procEntry
	asyncQ   []Message
	notified uint8 // pending notifications, one bit per pseudo-source (notifyBit)

	irqPending uint64
	sigPending []Signal

	grants    map[GrantID]*grant
	nextGrant GrantID

	alarm *sim.Timer // created by the first SetAlarm, re-armed by every later one

	// Causal-tracing state (only touched when the kernel has a recorder).
	traceCtx  obs.SpanContext   // ambient context stamped on outgoing sends
	openSpans []obs.SpanContext // spans opened via Ctx, orphaned if we die

	local any // process-local library slot (Ctx.SetLocal / Ctx.Local)
}

// wake values delivered through sim.Proc.Park.
type (
	delivered struct{} // the message is in the entry's inbox
	ipcAbort  struct{ err error }
	sendOK    struct{}
)

// spanNames returns the name of the span a traced call to ep opens and
// the reason it is orphaned with when ep dies: "call:" and "crash:"
// before labelFor(ep), built once per label by the first traced call.
func (k *Kernel) spanNames(ep Endpoint) (call, crash string) {
	label := k.labelFor(ep)
	names, ok := k.spanNamesOf[label]
	if !ok {
		names = [2]string{"call:" + label, "crash:" + label}
		k.spanNamesOf[label] = names
	}
	return names[0], names[1]
}

// Spawn creates a new system process with the given stable label,
// privileges, and body. The slot is the lowest free one and the endpoint
// carries a fresh generation, so endpoints of previous instances with the
// same label remain stale. Returns the new instance's Ctx handle (endpoint
// available immediately, e.g. for the spawner to publish it).
//
// priv is shared, not copied: Privileges is an immutable value, which
// neither the kernel nor the caller writes once it is handed over. A
// reused slot's entry is the dead instance's, recycled; the Ctx is new,
// so the dead instance's still reports the dead endpoint. The kernel
// traces every process's lifecycle: proc.spawn here, proc.exit in reap.
func (k *Kernel) Spawn(label string, priv Privileges, body func(c *Ctx)) (*Ctx, error) {
	slot := -1
	var e *procEntry
	for i, old := range k.slots {
		if old == nil {
			slot = i
			break
		}
		if !old.alive && old.proc.State() == sim.StateDead {
			slot, e = i, old
			break
		}
	}
	if slot == -1 {
		if len(k.slots) >= maxSlots {
			return nil, ErrNoSlot
		}
		k.slots = append(k.slots, nil)
		slot = len(k.slots) - 1
	}
	if e == nil {
		e = &procEntry{k: k, slot: slot, grants: make(map[GrantID]*grant)}
		e.start = func(p *sim.Proc) {
			e.ctx.p = p
			e.body(e.ctx)
		}
		k.slots[slot] = e
	} else {
		e.recycle()
	}
	e.gen++
	e.ep = makeEndpoint(slot, e.gen)
	e.label, e.priv, e.body, e.alive = label, priv, body, true
	e.ctx = &Ctx{k: k, e: e, ep: e.ep}
	k.byLabel[label] = e
	k.version++
	if e.proc == nil {
		e.proc = k.env.Respawn(nil, label, e.gen, e.start)
		// All death paths (exit, kill, exception, crash) funnel through
		// the sim process's exit hook so IPC cleanup is centralized. The
		// hook stays with the process when the entry is reused.
		e.proc.OnExit(func(status int) { k.reap(e, status) })
	} else {
		e.proc = k.env.Respawn(e.proc, label, e.gen, e.start)
	}
	if k.obs.On(obs.KindProcSpawn) {
		k.obs.Emit(obs.KindProcSpawn, label, e.proc.Name(), 0, int64(e.proc.PID()))
	}
	return e.ctx, nil
}

// recycle readies a dead instance's entry for the slot's next instance:
// every field is reset, and the storage reap emptied is kept. The grant
// table is emptied here too, for when reap left it (DebugLeakGrantsOnDeath):
// a grant never passes to the next instance.
func (e *procEntry) recycle() {
	clear(e.grants)
	*e = procEntry{
		k: e.k, slot: e.slot, gen: e.gen, proc: e.proc,
		start: e.start, alarm: e.alarm, grants: e.grants,
		senders: e.senders[:0], asyncQ: e.asyncQ[:0], openSpans: e.openSpans[:0],
	}
}

// lookup resolves a live endpoint to its process entry.
func (k *Kernel) lookup(ep Endpoint) *procEntry {
	if !ep.valid() {
		return nil
	}
	slot := ep.slot()
	if slot >= len(k.slots) {
		return nil
	}
	e := k.slots[slot]
	if e == nil || !e.alive || e.ep != ep {
		return nil
	}
	return e
}

// LookupLabel returns the endpoint of the live process with the given
// stable label, or None.
func (k *Kernel) LookupLabel(label string) Endpoint {
	if e, ok := k.byLabel[label]; ok && e.alive {
		return e.ep
	}
	return None
}

// Resumes counts the scheduler's hand-offs to the live instance at ep (0
// if it is dead or stale): one per wake-up, whatever woke it.
func (k *Kernel) Resumes(ep Endpoint) uint64 {
	if e := k.lookup(ep); e != nil {
		return e.proc.Resumes()
	}
	return 0
}

// Alive reports whether the endpoint refers to a live process instance.
func (k *Kernel) Alive(ep Endpoint) bool { return k.lookup(ep) != nil }

// LabelOf returns the stable label of the live process instance with the
// given endpoint, or "" if the endpoint is dead or stale. Labels come from
// the kernel's own table and cannot be forged by message senders.
func (k *Kernel) LabelOf(ep Endpoint) string {
	e := k.lookup(ep)
	if e == nil {
		return ""
	}
	return e.label
}

// Relabel changes the stable label of a live process instance — the
// kernel half of a standby promotion: the reincarnation server renames
// a hot replica ("eth.rtl8139/sb") to the service label its dead
// primary just freed, so label-authenticated facilities (the data
// store's private records, PM death reporting, trace components) treat
// the replica as the service's next incarnation. Refused when another
// live process already bears the target label: two live owners of one
// label would break endpoint-unique.
func (k *Kernel) Relabel(ep Endpoint, label string) error {
	e := k.lookup(ep)
	if e == nil {
		return ErrDeadDst
	}
	if cur, ok := k.byLabel[label]; ok && cur != e && cur.alive {
		return ErrNotAllowed
	}
	if k.byLabel[e.label] == e {
		delete(k.byLabel, e.label)
	}
	e.label = label
	k.byLabel[label] = e
	k.version++
	return nil
}

// MayComplain reports whether the process with the given endpoint holds
// the complaint authority (paper §5.1: "The authority to replace other
// components is part of the protection file"). The reincarnation server
// consults this before acting on a complaint.
func (k *Kernel) MayComplain(ep Endpoint) bool {
	e := k.lookup(ep)
	return e != nil && e.priv.MayComplain
}

// Cause returns the recorded death cause for an endpoint's instance. Valid
// for dead instances whose slot has not been reused.
func (k *Kernel) CauseOf(ep Endpoint) (Cause, bool) {
	if !ep.valid() || ep.slot() >= len(k.slots) {
		return Cause{}, false
	}
	e := k.slots[ep.slot()]
	if e == nil || e.ep != ep || e.alive {
		return Cause{}, false
	}
	return e.cause, true
}

// reap performs all kernel-side cleanup for a dead process and notifies
// death hooks. Runs in scheduler context via the sim exit hook.
func (k *Kernel) reap(e *procEntry, status int) {
	if k.obs.On(obs.KindProcExit) {
		k.obs.Emit(obs.KindProcExit, e.label, e.proc.Name(), int64(status), int64(e.proc.PID()))
	}
	if e.cause.Kind == 0 {
		if status >= 0 {
			// Body returned normally (or called sim-level exit).
			e.cause = Cause{Kind: CauseExit, Status: status}
		} else {
			// Killed at the sim level without a recorded kernel cause.
			e.cause = Cause{Kind: CauseSignal, Signal: SIGKILL}
		}
	}
	if e.cause.Kind == CauseExit {
		e.cause.Status = status
	}
	e.alive = false
	k.version++ // covers the grant and label cleanup below too
	if e.cause.Kind == CauseException {
		k.obs.Emit(obs.KindProcException, e.label, e.cause.Exc.String(), int64(e.ep), 0)
	}
	// Spans the dead process opened and never closed can never complete:
	// terminate them as orphaned-by-crash, newest first, so a trace reader
	// sees exactly which in-flight work the death interrupted.
	if k.obs != nil && len(e.openSpans) > 0 {
		reason := "crash:" + e.cause.String()
		for i := len(e.openSpans) - 1; i >= 0; i-- {
			k.obs.OrphanSpan(e.label, e.openSpans[i], reason)
		}
	}
	e.openSpans = e.openSpans[:0]
	e.traceCtx = obs.SpanContext{}

	e.alarm.Stop()
	// Unhook from any send queue we were sitting in.
	if e.sendTo != nil {
		e.sendTo.removeSender(e)
		e.sendTo = nil
	}
	// Abort everyone blocked sending to us.
	for _, s := range e.senders {
		s.sendTo = nil
		s.proc.Wake(ipcAbort{err: ErrDeadDst})
	}
	clear(e.senders)
	clear(e.asyncQ)
	e.senders, e.asyncQ = e.senders[:0], e.asyncQ[:0]
	e.notified = 0
	e.inbox = Message{} // delivered, but killed before Receive resumed
	// Abort everyone blocked receiving specifically from us (this is the
	// rendezvous abort the file server relies on, paper §6.2).
	for _, other := range k.slots {
		if other == nil || !other.alive || !other.recvWait {
			continue
		}
		if other.recvFrom == e.ep {
			other.recvWait = false
			other.proc.Wake(ipcAbort{err: ErrSrcDied})
		}
	}
	// Revoke grants and IRQ subscriptions.
	if !k.debugLeakGrants {
		clear(e.grants)
	}
	for line, subs := range k.irqs {
		k.irqs[line] = slices.DeleteFunc(subs, func(s *procEntry) bool { return s == e })
	}
	if k.byLabel[e.label] == e {
		delete(k.byLabel, e.label)
	}
	label, ep, cause := e.label, e.ep, e.cause // a hook that spawns may recycle e
	for _, fn := range k.deathFns {
		fn(label, ep, cause)
	}
}

func (e *procEntry) removeSender(s *procEntry) {
	for i, q := range e.senders {
		if q == s {
			e.senders = append(e.senders[:i], e.senders[i+1:]...)
			return
		}
	}
}

// kill terminates a process instance with the given cause. No-op when the
// target instance is already gone.
func (k *Kernel) kill(e *procEntry, cause Cause) {
	if e == nil || !e.alive {
		return
	}
	if e.cause.Kind == 0 {
		e.cause = cause
	}
	// Detach from IPC wait queues immediately so no delivery tries to wake
	// the process while its unwind is in flight; blocked peers are aborted
	// when reap runs.
	e.recvWait = false
	if e.sendTo != nil {
		e.sendTo.removeSender(e)
		e.sendTo = nil
	}
	e.proc.Kill()
}

// Kill terminates the process with the given endpoint as if by an uncaught
// signal. Privilege checking is the caller's job (Ctx.Kill enforces it).
func (k *Kernel) Kill(ep Endpoint, sig Signal) error {
	e := k.lookup(ep)
	if e == nil {
		return ErrDeadDst
	}
	k.kill(e, Cause{Kind: CauseSignal, Signal: sig})
	return nil
}

// ProcCount returns the number of live system processes (for tests).
func (k *Kernel) ProcCount() int {
	n := 0
	for _, e := range k.slots {
		if e != nil && e.alive {
			n++
		}
	}
	return n
}
