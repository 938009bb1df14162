package sim

import (
	"fmt"
	"runtime/debug"
)

// ProcState describes the lifecycle of a simulated process.
type ProcState int

// Process lifecycle states.
const (
	StateRunnable ProcState = iota + 1
	StateRunning
	StateParked
	StateDead
)

func (s ProcState) String() string {
	switch s {
	case StateRunnable:
		return "runnable"
	case StateRunning:
		return "running"
	case StateParked:
		return "parked"
	case StateDead:
		return "dead"
	default:
		return fmt.Sprintf("ProcState(%d)", int(s))
	}
}

// killSentinel unwinds a process goroutine when the process is killed from
// outside while parked.
type killSentinel struct{}

// exitSentinel unwinds a process goroutine when the process exits itself.
type exitSentinel struct{ status int }

// Proc is a simulated process: a goroutine that runs cooperatively under
// the environment's scheduler. Exactly one process goroutine executes at a
// time; it returns control by parking, sleeping, or exiting.
type Proc struct {
	env     *Env
	pid     int
	name    string
	state   ProcState
	resume  chan any // scheduler -> process: value to return from Park
	resumes uint64   // hand-offs so far (see Resumes)

	killed     bool // kill requested; delivered at next park point
	exitStatus int
	exitHooks  []func(status int)
	wakeEv     *Event // pending wake/resume event, if any
}

// PID returns the process's simulation-unique ID.
func (p *Proc) PID() int { return p.pid }

// Name returns the process's human-readable name.
func (p *Proc) Name() string { return p.name }

// State returns the process's lifecycle state.
func (p *Proc) State() ProcState { return p.state }

// Env returns the environment the process lives on.
func (p *Proc) Env() *Env { return p.env }

// Alive reports whether the process has not yet died.
func (p *Proc) Alive() bool { return p.state != StateDead }

// Resumes counts the scheduler's hand-offs to the process. The process
// executes only between a hand-off and its next park, so state that only
// it writes is unchanged for as long as the count is.
func (p *Proc) Resumes() uint64 { return p.resumes }

// OnExit registers fn to run (in scheduler context) when the process dies.
// Hooks run in registration order.
func (p *Proc) OnExit(fn func(status int)) {
	p.exitHooks = append(p.exitHooks, fn)
}

// Spawn creates a process named name running body and schedules it to start
// at the current virtual time. The body runs on its own goroutine but only
// while the scheduler has handed it control.
func (e *Env) Spawn(name string, body func(p *Proc)) *Proc {
	p := &Proc{
		env:    e,
		pid:    e.nextPID,
		name:   name,
		state:  StateRunnable,
		resume: make(chan any),
	}
	e.nextPID++
	e.procs[p.pid] = p
	if e.observer != nil {
		e.observer(ProcSpawn, name, p.pid, 0)
	}
	e.Schedule(0, func() {
		if p.killed || p.state == StateDead {
			// Killed before it ever ran: just report death.
			p.finish(-1)
			return
		}
		go p.top(body)
		p.state = StateRunning
		p.resumeAndWait(nil)
	})
	return p
}

// top is the root frame of a process goroutine. It recovers the unwind
// sentinels, records unexpected panics for the scheduler to re-raise, and
// always returns control.
func (p *Proc) top(body func(*Proc)) {
	status := 0
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case killSentinel:
				status = -1
			case exitSentinel:
				status = v.status
			default:
				p.env.fatal = &procPanic{proc: p.name, value: r, stack: string(debug.Stack())}
				status = -1
			}
		}
		p.finishFromProc(status)
	}()
	// Wait for the first hand-off from the scheduler.
	<-p.resume
	if p.killed {
		panic(killSentinel{})
	}
	body(p)
}

// resumeAndWait hands control to the process goroutine and blocks the
// scheduler until the process parks, exits, or sleeps again.
func (p *Proc) resumeAndWait(v any) {
	p.resumes++
	p.resume <- v
	<-p.env.yield
}

// finishFromProc marks the process dead from within its own goroutine and
// returns control to the scheduler. Exit hooks are deferred to a fresh
// scheduler event so they run in scheduler context.
func (p *Proc) finishFromProc(status int) {
	p.state = StateDead
	p.exitStatus = status
	env := p.env
	env.Schedule(0, func() { p.runExitHooks() })
	env.yield <- struct{}{}
}

// finish marks a never-started process dead from scheduler context.
func (p *Proc) finish(status int) {
	if p.state == StateDead {
		return
	}
	p.state = StateDead
	p.exitStatus = status
	p.runExitHooks()
}

func (p *Proc) runExitHooks() {
	hooks := p.exitHooks
	p.exitHooks = nil
	delete(p.env.procs, p.pid)
	if p.env.observer != nil {
		p.env.observer(ProcExit, p.name, p.pid, p.exitStatus)
	}
	for _, h := range hooks {
		h(p.exitStatus)
	}
}

// Park blocks the process until another party calls Wake, returning the
// value passed to Wake. If the process is killed while parked, Park never
// returns: the goroutine unwinds through its deferred calls.
//
// Park must only be called from the process's own goroutine.
func (p *Proc) Park() any {
	if p.state != StateRunning {
		panic(fmt.Sprintf("sim: Park on %s process %q", p.state, p.name))
	}
	p.state = StateParked
	p.env.yield <- struct{}{}
	v := <-p.resume
	if p.killed {
		panic(killSentinel{})
	}
	p.state = StateRunning
	return v
}

// Wake schedules the parked process to resume at the current virtual time,
// making Park return v. Waking a process that is not parked panics: callers
// (the kernel layer) are responsible for tracking blocking state.
func (p *Proc) Wake(v any) {
	if p.state != StateParked {
		panic(fmt.Sprintf("sim: Wake on %s process %q", p.state, p.name))
	}
	if p.wakeEv != nil {
		panic(fmt.Sprintf("sim: double Wake on process %q", p.name))
	}
	p.state = StateRunnable
	p.wakeEv = p.env.Schedule(0, func() {
		p.wakeEv = nil
		if p.state != StateRunnable {
			return // killed in the meantime; unwind was handled elsewhere
		}
		p.state = StateRunning
		p.resumeAndWait(v)
	})
}

// Sleep suspends the process for d of virtual time. If the process is
// killed while sleeping, Sleep never returns.
func (p *Proc) Sleep(d Time) {
	if p.state != StateRunning {
		panic(fmt.Sprintf("sim: Sleep on %s process %q", p.state, p.name))
	}
	p.state = StateParked
	p.wakeEv = p.env.Schedule(d, func() {
		p.wakeEv = nil
		if p.state != StateParked {
			return
		}
		p.state = StateRunning
		p.resumeAndWait(nil)
	})
	p.env.yield <- struct{}{}
	v := <-p.resume
	_ = v
	if p.killed {
		panic(killSentinel{})
	}
	p.state = StateRunning
}

// Yield gives other runnable work at the current virtual time a chance to
// execute, then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// Exit terminates the calling process with the given status. It never
// returns; deferred calls in the process body run as the goroutine unwinds.
func (p *Proc) Exit(status int) {
	panic(exitSentinel{status: status})
}

// Kill requests asynchronous termination of the process. It may be called
// from scheduler context or from another process. The victim unwinds at its
// current (or next) park point; its exit hooks then run with status -1.
// Killing a dead process is a no-op.
func (p *Proc) Kill() {
	if p.state == StateDead || p.killed {
		return
	}
	p.killed = true
	switch p.state {
	case StateParked:
		// Cancel any pending timer wake and schedule the unwind.
		if p.wakeEv != nil {
			p.wakeEv.Cancel()
			p.wakeEv = nil
		}
		p.state = StateRunnable
		p.env.Schedule(0, func() {
			if p.state != StateRunnable {
				return
			}
			p.state = StateRunning
			p.resumeAndWait(killSentinel{})
		})
	case StateRunnable:
		// Either not yet started, or a wake/sleep event is in flight; that
		// event (or the start event) observes p.killed and unwinds.
	case StateRunning:
		// Killing yourself: unwind immediately.
		panic(killSentinel{})
	}
}

// ExitStatus returns the status the process died with (-1 for killed or
// crashed). Only meaningful once the process is dead.
func (p *Proc) ExitStatus() int { return p.exitStatus }
