package kernel

import (
	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

// Ctx is a system process's handle on the kernel: every kernel call and IPC
// primitive a server or driver may use goes through it, with the process's
// privileges enforced. A Ctx is only valid on its own process's goroutine.
type Ctx struct {
	k *Kernel
	e *procEntry
	p *sim.Proc
}

// Kernel returns the kernel this context belongs to.
func (c *Ctx) Kernel() *Kernel { return c.k }

// Endpoint returns the process's own (generation-tagged) endpoint.
func (c *Ctx) Endpoint() Endpoint { return c.e.ep }

// Label returns the process's stable component label.
func (c *Ctx) Label() string { return c.e.label }

// Now returns the current virtual time.
func (c *Ctx) Now() sim.Time { return c.k.env.Now() }

// Obs returns the kernel's observability recorder. It may be nil; all
// recorder methods are nil-safe, so callers instrument unconditionally.
func (c *Ctx) Obs() *obs.Recorder { return c.k.obs }

// Bufs returns the system's free list of bulk byte buffers.
func (c *Ctx) Bufs() *Bufs { return &c.k.bufs }

// Logf traces a line attributed to this process.
func (c *Ctx) Logf(format string, args ...any) {
	c.k.env.Logf(c.e.label, format, args...)
}

// Sleep suspends the process for d of virtual time.
func (c *Ctx) Sleep(d sim.Time) { c.p.Sleep(d) }

// Yield lets other same-instant work run.
func (c *Ctx) Yield() { c.p.Yield() }

// Resumes counts the scheduler's hand-offs to this process (see
// sim.Proc.Resumes): state only this process writes cannot have changed
// while the count stands still.
func (c *Ctx) Resumes() uint64 { return c.e.proc.Resumes() }

// Send performs a blocking rendezvous send.
func (c *Ctx) Send(dst Endpoint, msg Message) error { return c.k.send(c.e, dst, msg) }

// Receive blocks until a message from the given source (or Any) arrives.
func (c *Ctx) Receive(from Endpoint) (Message, error) { return c.k.receive(c.e, from) }

// TryReceive returns a pending message from the given source without
// blocking; ok is false when nothing matching is queued. Servers use it
// to answer heartbeats while logically blocked on another condition.
func (c *Ctx) TryReceive(from Endpoint) (Message, bool) {
	return c.k.tryReceive(c.e, from)
}

// SendRec sends msg to dst and blocks for dst's reply. If dst dies before
// replying the call fails with ErrSrcDied (or ErrDeadDst if it died before
// accepting the request), which is exactly the condition the file server
// treats as "mark request pending and await the restart" (paper §6.2).
//
// When span tracing is on, the round trip becomes a "call:<dst-label>"
// span under the caller's ambient context: it travels in the request so
// the callee's work nests under it, ends when the reply lands, and is
// orphaned when the callee's death aborts the rendezvous — the per-request
// crash marker the recovery stories hang off. The caller's ambient context
// is restored afterwards (the reply's context must not leak into the
// caller's next, unrelated call).
func (c *Ctx) SendRec(dst Endpoint, msg Message) (Message, error) {
	start := c.k.env.Now()
	var sc, ambient obs.SpanContext
	var dstLabel string
	traced := c.k.obs.On(obs.KindSpanBegin)
	if traced {
		ambient = c.e.traceCtx
		dstLabel = c.k.labelFor(dst)
		sc = c.k.obs.StartSpan(c.e.label, "call:"+dstLabel, ambient)
		msg.Trace = sc
		c.e.openSpans = append(c.e.openSpans, sc)
	}
	reply, err := c.sendRec(dst, msg)
	if traced {
		switch err {
		case nil:
			c.k.obs.EndSpan(c.e.label, sc, 0)
		case ErrDeadDst, ErrSrcDied:
			c.k.obs.OrphanSpan(c.e.label, sc, "crash:"+dstLabel)
		default:
			c.k.obs.EndSpan(c.e.label, sc, 1)
		}
		c.dropOpenSpan(sc)
		c.e.traceCtx = ambient
	}
	if err == nil {
		c.k.obs.ObserveSendRec(c.k.env.Now() - start)
	}
	return reply, err
}

func (c *Ctx) sendRec(dst Endpoint, msg Message) (Message, error) {
	if err := c.k.send(c.e, dst, msg); err != nil {
		return Message{}, err
	}
	return c.k.receive(c.e, dst)
}

// Notify posts a nonblocking notification to dst.
func (c *Ctx) Notify(dst Endpoint) error { return c.k.notifyFrom(c.e, dst) }

// AsyncSend queues msg at dst without ever blocking the caller (MINIX
// senda); the reincarnation server uses it for heartbeat requests.
func (c *Ctx) AsyncSend(dst Endpoint, msg Message) error { return c.k.asyncSend(c.e, dst, msg) }

// Exit terminates the calling process voluntarily with the given status.
// Status 0 is a clean exit; nonzero is how a driver "panics" (defect class
// 1 of paper §5.1).
func (c *Ctx) Exit(status int) {
	c.e.cause = Cause{Kind: CauseExit, Status: status}
	c.p.Exit(status)
}

// Panic terminates the calling process as a driver panic: an exit with a
// nonzero status after logging the reason.
func (c *Ctx) Panic(reason string) {
	c.Logf("panic: %s", reason)
	c.Exit(2)
}

// Trap terminates the calling process as if the CPU/MMU raised exc; the
// kernel converts it into a kill by the corresponding signal (defect class
// 2 of paper §5.1).
func (c *Ctx) Trap(exc Exception) {
	sig := SIGILL
	if exc == ExcMMU {
		sig = SIGSEGV
	}
	c.e.cause = Cause{Kind: CauseException, Signal: sig, Exc: exc}
	c.p.Kill() // self-kill unwinds immediately
}

// SigPending returns and clears the process's queued catchable signals.
// Message loops call this after a System notification.
func (c *Ctx) SigPending() []Signal {
	sigs := c.e.sigPending
	c.e.sigPending = nil
	return sigs
}

// Kill sends sig to the process with endpoint ep (requires CallKill).
func (c *Ctx) Kill(ep Endpoint, sig Signal) error {
	if !c.e.priv.allowsCall(CallKill) {
		return ErrNotAllowed
	}
	d := c.k.lookup(ep)
	if d == nil {
		return ErrDeadDst
	}
	c.k.deliverSignal(d, sig)
	return nil
}

// Spawn creates a new system process (requires CallSpawn). Only the process
// manager / reincarnation server hold this privilege.
func (c *Ctx) Spawn(label string, priv Privileges, body func(*Ctx)) (Endpoint, error) {
	if !c.e.priv.allowsCall(CallSpawn) {
		return None, ErrNotAllowed
	}
	nc, err := c.k.Spawn(label, priv, body)
	if err != nil {
		return None, err
	}
	// The child starts under the spawner's causal context: an instance the
	// reincarnation server spawns during a recovery episode roots its
	// initialization under that episode's span.
	if c.k.obs != nil {
		nc.e.traceCtx = c.e.traceCtx
	}
	return nc.e.ep, nil
}

// Relabel changes the stable label of the live process with endpoint ep
// (requires CallPrivCtl — label assignment is a privilege-control
// operation only the reincarnation server holds). Used during standby
// promotion to hand a hot replica the dead primary's service label.
func (c *Ctx) Relabel(ep Endpoint, label string) error {
	if !c.e.priv.allowsCall(CallPrivCtl) {
		return ErrNotAllowed
	}
	return c.k.Relabel(ep, label)
}

// SetLocal stores one process-local value on the calling process. The
// driver library uses the slot for per-instance run state that package-
// level helpers (React, Stuck) must reach with only the Ctx in hand.
func (c *Ctx) SetLocal(v any) { c.e.local = v }

// Local returns the value stored by SetLocal (nil if never set).
func (c *Ctx) Local() any { return c.e.local }

// CreateGrant exposes buf to the grantee (or Any) with the given access and
// returns the grant ID to pass along in a request message.
func (c *Ctx) CreateGrant(buf []byte, access GrantAccess, to Endpoint) GrantID {
	return c.e.createGrant(buf, access, to)
}

// RevokeGrant removes a grant from the caller's table.
func (c *Ctx) RevokeGrant(id GrantID) {
	delete(c.e.grants, id)
	c.k.version++
}

// SafeCopyFrom copies len(dst) bytes from the granted buffer (owner, id) at
// offset into dst (requires CallSafeCopy and a read grant).
func (c *Ctx) SafeCopyFrom(owner Endpoint, id GrantID, offset int, dst []byte) error {
	return c.k.safeCopyFrom(c.e, owner, id, offset, dst)
}

// SafeCopyTo copies src into the granted buffer (owner, id) at offset
// (requires CallSafeCopy and a write grant).
func (c *Ctx) SafeCopyTo(owner Endpoint, id GrantID, offset int, src []byte) error {
	return c.k.safeCopyTo(c.e, owner, id, offset, src)
}

// DevIn reads a device register (requires CallDevIO and port privilege).
func (c *Ctx) DevIn(port uint32) (uint32, error) { return c.k.devIn(c.e, port) }

// DevOut writes a device register (requires CallDevIO and port privilege).
func (c *Ctx) DevOut(port uint32, val uint32) error { return c.k.devOut(c.e, port, val) }

// IRQSubscribe attaches the process to an interrupt line; subsequent
// interrupts arrive as Hardware notifications with the line's bit set.
func (c *Ctx) IRQSubscribe(line int) error { return c.k.irqSubscribe(c.e, line) }

// IRQMask masks (true) or unmasks (false) the line for this process.
func (c *Ctx) IRQMask(line int, masked bool) error { return c.k.irqSetMask(c.e, line, masked) }

// SetAlarm arranges a Clock notification after d; any previous alarm is
// replaced. d <= 0 cancels.
func (c *Ctx) SetAlarm(d sim.Time) {
	e := c.e
	if d <= 0 {
		e.alarm.Stop()
		return
	}
	if e.alarm == nil {
		e.alarm = c.k.env.NewTimer(func() {
			if e.alive {
				c.k.notifyEntry(e, Clock)
			}
		})
	}
	e.alarm.Reset(d)
}

// MayComplain reports whether this process is authorized to file
// malfunction complaints with the reincarnation server.
func (c *Ctx) MayComplain() bool { return c.e.priv.MayComplain }

// LookupLabel resolves a stable label to the live instance's endpoint
// (None when down). System processes normally use the data store for this;
// the kernel-level lookup backs the data store itself and tests.
func (c *Ctx) LookupLabel(label string) Endpoint { return c.k.LookupLabel(label) }

// ---------------------------------------------------------------------
// Causal tracing

// TraceCtx returns the process's current ambient causal context: the
// context of the last non-notification message it received (or the span
// it most recently opened with BeginWork). Zero when tracing is off.
func (c *Ctx) TraceCtx() obs.SpanContext { return c.e.traceCtx }

// SetTraceCtx replaces the ambient causal context; subsequent sends are
// stamped with it. Servers use this to bind their worker loop to a
// specific request's context.
func (c *Ctx) SetTraceCtx(sc obs.SpanContext) { c.e.traceCtx = sc }

// BeginWork opens a span for a unit of work this process performs on
// behalf of parent (pass the zero context to root a fresh trace), makes
// it the ambient context, and registers it with the kernel: if the
// process dies before EndWork the kernel orphans the span in reap, which
// is how crash-interrupted requests become visible in traces. Returns
// the zero context (all the paired calls no-op) when tracing is off.
func (c *Ctx) BeginWork(name string, parent obs.SpanContext) obs.SpanContext {
	sc := c.k.obs.StartSpan(c.e.label, name, parent)
	if !sc.Valid() {
		return sc
	}
	c.e.openSpans = append(c.e.openSpans, sc)
	c.e.traceCtx = sc
	return sc
}

// EndWork closes a span opened by BeginWork with the given status and
// restores the ambient context to the enclosing open span, if any.
func (c *Ctx) EndWork(sc obs.SpanContext, status int64) {
	if !sc.Valid() {
		return
	}
	c.k.obs.EndSpan(c.e.label, sc, status)
	c.finishWork(sc)
}

// OrphanWork terminates a span opened by BeginWork as orphaned-by-crash:
// the work can never complete because a component it depended on died.
// The caller keeps running (unlike kernel-side orphaning in reap) — the
// file server uses this for block requests lost to a driver crash before
// reissuing them.
func (c *Ctx) OrphanWork(sc obs.SpanContext, reason string) {
	if !sc.Valid() {
		return
	}
	c.k.obs.OrphanSpan(c.e.label, sc, reason)
	c.finishWork(sc)
}

func (c *Ctx) finishWork(sc obs.SpanContext) {
	c.dropOpenSpan(sc)
	if n := len(c.e.openSpans); n > 0 {
		c.e.traceCtx = c.e.openSpans[n-1]
	} else {
		c.e.traceCtx = obs.SpanContext{}
	}
}

func (c *Ctx) dropOpenSpan(sc obs.SpanContext) {
	open := c.e.openSpans
	for i := len(open) - 1; i >= 0; i-- {
		if open[i] == sc {
			c.e.openSpans = append(open[:i], open[i+1:]...)
			return
		}
	}
}
