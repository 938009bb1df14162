// Package drvlib is the shared driver library: the canonical message loop
// every driver in the system runs. It corresponds to MINIX's libdriver —
// and carries the paper's headline reengineering result: supporting
// recovery costs a driver almost nothing, because the only additions are
// replying to heartbeat requests and honoring shutdown requests, about
// five lines in the shared library (Fig. 9 lists both Ethernet drivers and
// the SATA driver at 5 recovery LoC, the RAM disk at 0).
//
// Beyond the paper's kill-and-respawn baseline, the library implements
// the driver half of the pluggable recovery mechanisms:
//
//   - warm standby (MechStandby): an instance spawned under the
//     "<label>/sb" replica label parks in a wait loop without touching
//     the hardware (initializing it would reset the card under the live
//     primary), and attaches only when the reincarnation server promotes
//     it — via the Promoter fast path when the device survived the
//     primary's death, or a full Init otherwise.
//   - microreboot (MechMicroreboot): fatal ucode VM outcomes raised
//     during steady-state dispatch are intercepted before they kill the
//     process; the driver asks the reincarnation server for permission
//     and, if granted, resets its VM and ring state in place via the
//     Microrebooter hook — no respawn, no re-grant churn. Denial or a
//     failed reset falls back to the original fatal (full respawn).
//
// Lines that exist only to support the paper's baseline recovery —
// answering heartbeats and honoring shutdown — carry the recovery
// marker cmd/locstats counts to regenerate Fig. 9. The count
// deliberately excludes the beyond-paper mechanism layer (standby
// parking, microreboot interception): that is opt-in machinery
// the paper's 5-line claim never covered.
package drvlib

import (
	"fmt"
	"strings"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/proto"
	"resilientos/internal/ucode"
)

// Mechanism selects how the reincarnation server recovers a driver.
type Mechanism uint8

// The recovery mechanisms, in escalation order.
const (
	// MechRespawn is the paper's baseline: kill and respawn.
	MechRespawn Mechanism = iota
	// MechMicroreboot resets the driver's ucode VM state in place on a
	// crash or stuck heartbeat, falling back to a full respawn when the
	// microreboot fails or repeats within its budget.
	MechMicroreboot
	// MechStandby keeps a warm replica pre-spawned; on a crash the data
	// store atomically republishes the service endpoint to the promoted
	// replica and a fresh standby is back-filled in the background.
	MechStandby
)

func (m Mechanism) String() string {
	switch m {
	case MechRespawn:
		return "respawn"
	case MechMicroreboot:
		return "microreboot"
	case MechStandby:
		return "standby"
	}
	return fmt.Sprintf("Mechanism(%d)", int(m))
}

// ParseMechanism resolves a mechanism name; ok is false for unknown.
func ParseMechanism(s string) (Mechanism, bool) {
	switch s {
	case "respawn":
		return MechRespawn, true
	case "microreboot":
		return MechMicroreboot, true
	case "standby":
		return MechStandby, true
	}
	return 0, false
}

// StandbySuffix is the label suffix of warm standby replica instances
// ("eth.rtl8139/sb"). The reincarnation server spawns replicas under it
// and the kernel relabel at promotion strips it.
const StandbySuffix = "/sb"

// IsStandbyLabel reports whether label names a warm standby replica.
func IsStandbyLabel(label string) bool { return strings.HasSuffix(label, StandbySuffix) }

// StandbyLabel returns the replica label for a service label.
func StandbyLabel(label string) string { return label + StandbySuffix }

// Device is the driver-specific half of a driver process. Run supplies
// the message loop; the Device supplies hardware knowledge.
type Device interface {
	// Init resets and initializes the hardware. Called once at startup —
	// which, after a crash, is what reinitializes the device for the
	// fresh driver instance.
	Init(c *kernel.Ctx) error
	// HandleRequest processes one protocol request.
	HandleRequest(c *kernel.Ctx, m kernel.Message)
	// HandleIRQ processes a hardware interrupt (mask of pending lines).
	HandleIRQ(c *kernel.Ctx, mask uint64)
	// Shutdown quiesces the device for a clean exit (dynamic update).
	Shutdown(c *kernel.Ctx)
}

// Promoter is the standby fast-attach hook: attach to hardware that is
// already initialized and running (the device survived the primary's
// death), skipping the reset cycle a cold Init would pay. A promoted
// replica without this hook — or whose Promote fails — runs a full Init.
type Promoter interface {
	Promote(c *kernel.Ctx) error
}

// Microrebooter is the in-place reset hook: rebuild the driver's ucode
// VM and ring bookkeeping from pristine state without resetting the
// hardware or respawning the process. An error falls the driver back to
// the fatal outcome the microreboot tried to absorb.
type Microrebooter interface {
	Microreboot(c *kernel.Ctx) error
}

// runState is the per-instance loop state, parked in the process-local
// slot so package helpers (React, Stuck) can reach it with only a Ctx.
type runState struct {
	mech  Mechanism
	armed bool // inside steady-state dispatch: VM fatals are catchable
}

// vmFatal carries an intercepted fatal VM outcome up to the dispatch
// recover.
type vmFatal struct{ res ucode.Result }

func state(c *kernel.Ctx) *runState {
	st, _ := c.Local().(*runState)
	return st
}

// Run executes the canonical driver message loop with baseline recovery
// (kill-and-respawn). It does not return except by process
// exit.
func Run(c *kernel.Ctx, d Device) { RunWith(c, d, MechRespawn) }

// RunWith executes the canonical driver message loop under the given
// recovery mechanism. It does not return except by process exit.
//
// When span tracing is on the loop also carries the causal story: the
// process starts under its spawner's ambient context — for an instance
// the reincarnation server spawns mid-recovery that is the episode span,
// so reinitialization nests under the recovery that caused it — and each
// protocol request runs inside a span parented on the request's context.
// A driver that dies mid-request leaves that span open; the kernel's
// reaper orphans it, which is how a crash-interrupted request becomes
// visible in the trace.
func RunWith(c *kernel.Ctx, d Device, mech Mechanism) {
	st := &runState{mech: mech}
	c.SetLocal(st)
	if v, ok := d.(interface{ releaseVM() }); ok {
		defer v.releaseVM() // the instance dies by unwinding through here
	}
	if IsStandbyLabel(c.Label()) {
		standby(c)
		attach(c, d)
	} else {
		initSpan := c.BeginWork("init", c.TraceCtx())
		if err := d.Init(c); err != nil {
			c.Panic("init: " + err.Error())
		}
		c.EndWork(initSpan, 0)
	}
	c.SetTraceCtx(obs.SpanContext{}) // startup context must not bleed into steady state
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			c.Panic("receive: " + err.Error())
		}
		if fatal := dispatch(c, d, st, m); fatal != nil {
			microReboot(c, d, st, fatal)
		}
	}
}

// dispatch routes one message. Under MechMicroreboot the handlers run
// armed: a fatal VM outcome unwinds here as a *vmFatal instead of
// killing the process, and is returned for the microreboot path.
func dispatch(c *kernel.Ctx, d Device, st *runState, m kernel.Message) (fatal *vmFatal) {
	if st.mech == MechMicroreboot {
		st.armed = true
		defer func() {
			st.armed = false
			r := recover()
			if r == nil {
				return
			}
			f, ok := r.(*vmFatal)
			if !ok {
				panic(r) // process unwind or a real bug: not ours to absorb
			}
			fatal = f
		}()
	}
	switch {
	case m.Type == kernel.MsgNotify && m.Source == kernel.Hardware:
		// Interrupts are context-free; clear the stale ambient so
		// frames delivered from IRQ handling aren't attributed to the
		// last request this driver processed.
		c.SetTraceCtx(obs.SpanContext{})
		d.HandleIRQ(c, uint64(m.Arg1))
	case m.Type == kernel.MsgNotify && m.Source == kernel.Clock:
		// No driver sets an alarm; a stray one is dropped here rather
		// than handed to HandleRequest as a protocol request.
	case m.Type == kernel.MsgNotify && m.Source == kernel.System:
		for _, sig := range c.SigPending() {
			if sig == kernel.SIGTERM { // [recovery] shutdown request
				d.Shutdown(c) // [recovery]
				c.Exit(0)     // [recovery]
			}
		}
	case m.Type == proto.RSPing: // [recovery] heartbeat request
		_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong}) // [recovery]
	default:
		sc := c.BeginWork(reqName(m.Type), m.Trace)
		d.HandleRequest(c, m)
		c.EndWork(sc, 0)
	}
	return nil
}

// standby is the warm replica's wait loop: answer heartbeats, honor
// shutdown, and return when the reincarnation server promotes us. The
// replica must not touch the hardware here — the primary owns it.
func standby(c *kernel.Ctx) {
	c.SetTraceCtx(obs.SpanContext{})
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			c.Panic("standby receive: " + err.Error())
		}
		switch {
		case m.Type == kernel.MsgNotify && m.Source == kernel.System:
			for _, sig := range c.SigPending() {
				if sig == kernel.SIGTERM {
					c.Exit(0)
				}
			}
		case m.Type == proto.RSPing:
			_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong})
		case m.Type == proto.RSPromote:
			return
		}
	}
}

// attach brings a promoted replica onto the device: the Promoter fast
// path when available (the card survived the primary's death and needs
// no reset), a full Init otherwise. Failure kills the instance — the
// reincarnation server then falls back to an ordinary respawn.
func attach(c *kernel.Ctx, d Device) {
	span := c.BeginWork("promote", c.TraceCtx())
	var err error
	if p, ok := d.(Promoter); ok {
		err = p.Promote(c)
	} else {
		err = d.Init(c)
	}
	if err != nil {
		c.Panic("promote: " + err.Error())
	}
	c.EndWork(span, 0)
}

// microReboot is the in-place recovery path for an intercepted fatal VM
// outcome: ask the reincarnation server for permission, reset via the
// Microrebooter hook, and report completion. On denial or failure it
// executes the original fatal and never returns.
func microReboot(c *kernel.Ctx, d Device, st *runState, f *vmFatal) {
	rs := c.LookupLabel("rs")
	mr, can := d.(Microrebooter)
	if can && rs != kernel.None {
		ask := kernel.Message{Type: proto.RSMicroAsk, Name: c.Label(), Arg1: int64(microClass(f.res.Outcome))}
		reply, err := c.SendRec(rs, ask)
		if err == nil && reply.Arg1 == proto.OK {
			if err := mr.Microreboot(c); err == nil {
				_ = c.AsyncSend(rs, kernel.Message{Type: proto.RSMicroDone, Name: c.Label()})
				return
			}
		}
	}
	executeFatal(c, f.res)
}

// microClass maps a fatal VM outcome to the defect class its uncaught
// form would manifest as (the numeric values of core.Defect): a
// consistency assert panics the process (class 1, exit), traps kill it
// (class 2, exception), a stall wedges it (class 4, heartbeat).
func microClass(o ucode.Outcome) int {
	switch o {
	case ucode.OutcomeAssert:
		return 1
	case ucode.OutcomeMMU, ucode.OutcomeCPU:
		return 2
	case ucode.OutcomeStall:
		return 4
	}
	return 1
}

// executeFatal carries out the process-fatal behavior of a VM outcome.
func executeFatal(c *kernel.Ctx, res ucode.Result) {
	switch res.Outcome {
	case ucode.OutcomeAssert:
		c.Panic(res.Reason)
	case ucode.OutcomeMMU:
		c.Trap(kernel.ExcMMU)
	case ucode.OutcomeCPU:
		c.Trap(kernel.ExcCPU)
	default:
		wedge(c)
	}
}

// microFatal raises a fatal VM outcome as a catchable unwind when the
// caller is inside armed microreboot dispatch; otherwise it returns and
// the caller carries out the process-fatal behavior.
func microFatal(c *kernel.Ctx, res ucode.Result) {
	if st := state(c); st != nil && st.armed {
		st.armed = false
		panic(&vmFatal{res: res})
	}
}

// reqName names a request span after its protocol operation.
func reqName(t int32) string {
	switch t {
	case proto.BdevOpen:
		return "drv.open"
	case proto.BdevRead:
		return "drv.read"
	case proto.BdevWrite:
		return "drv.write"
	case proto.EthConf:
		return "drv.conf"
	case proto.EthSend:
		return "drv.send"
	case proto.ChrOpen:
		return "drv.open"
	case proto.ChrRead:
		return "drv.read"
	case proto.ChrWrite:
		return "drv.write"
	case proto.ChrIoctl:
		return "drv.ioctl"
	}
	return "drv.req"
}

// Stuck emulates a driver wedged in an infinite loop: the process stays
// alive but never again answers messages — detectable only through missed
// heartbeats (defect class 4). Under armed microreboot dispatch the wedge
// is intercepted like any other fatal VM outcome. It never returns.
func Stuck(c *kernel.Ctx) {
	microFatal(c, ucode.Result{Outcome: ucode.OutcomeStall, Reason: "stuck"})
	wedge(c)
}

func wedge(c *kernel.Ctx) {
	for {
		c.Sleep(time.Hour)
	}
}

// CtxBus adapts a driver's kernel context to the ucode VM's port bus, so
// VM port instructions go through the kernel's privilege checks.
type CtxBus struct{ C *kernel.Ctx }

var _ ucode.IOBus = CtxBus{}

// In implements ucode.IOBus.
func (b CtxBus) In(port uint32) (uint32, bool) {
	v, err := b.C.DevIn(port)
	return v, err == nil
}

// Out implements ucode.IOBus.
func (b CtxBus) Out(port uint32, val uint32) bool {
	return b.C.DevOut(port, val) == nil
}

// React converts a VM result into driver behavior: consistency failures
// panic the driver, traps kill it with the corresponding exception, and a
// stall wedges the process — the §7.2 failure classes. It returns true if
// the routine succeeded, false if it reported a clean failure. On the
// fatal outcomes it never returns — except under armed microreboot
// dispatch, where the fatal unwinds to the message loop for an in-place
// recovery attempt instead of killing the process.
func React(c *kernel.Ctx, res ucode.Result) bool {
	switch res.Outcome {
	case ucode.OutcomeOK:
		return true
	case ucode.OutcomeFail:
		return false
	}
	microFatal(c, res)
	executeFatal(c, res)
	return false
}
