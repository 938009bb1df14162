// The go1.23 constraint is what lets this file use iter.Pull while go.mod
// says go 1.22 (go vet rejects the call otherwise). go.mod has to stay
// there: benchmark/go.mod says 1.22 and requires this module, and a higher
// version here makes every go command in benchmark/ demand an update to it.

//go:build go1.23

package sim

import (
	"fmt"
	"iter"
	"runtime/debug"
	"slices"
	"strconv"
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

// killSentinel unwinds a process when it is killed from outside while
// parked, or kills itself.
type killSentinel struct{}

// exitSentinel unwinds a process when it exits itself.
type exitSentinel struct{ status int }

// Proc is a simulated process: a coroutine (iter.Pull) that runs
// cooperatively under the environment's scheduler. Exactly one process
// executes at a time; it returns control by parking, sleeping, or exiting.
// A hand-off in either direction is one direct switch between the
// scheduler's goroutine and the coroutine's.
type Proc struct {
	env     *Env
	pid     int
	name    string
	nameN   int // > 0: the name is name+"/"+nameN, not yet formatted (see Name)
	state   ProcState
	body    func(*Proc)
	resumes uint64 // hand-offs so far (see Resumes)

	// The coroutine; nil until the start event fires. resume switches to
	// the process, yield switches back and reports false once stop was
	// called, stop unwinds a process parked in yield.
	resume func() (struct{}, bool)
	stop   func()
	yield  func(struct{}) bool

	// A process made by Respawn keeps its coroutine when it dies: the
	// coroutine parks as a spare until a Respawn hands it the next body
	// or Close ends it.
	keep, spare bool

	// wake is the one event a process ever has pending: its start, a Wake
	// in flight, its sleep timer, its unwind after Kill, or the run of its
	// exit hooks. Only Spawn, Wake, Sleep, Kill and the process's death
	// queue it, each from a state in which it cannot already be queued.
	wake    Event
	wakeVal any // what the Park in progress returns

	killed     bool // kill requested; delivered at next park point
	exitStatus int
	exitHooks  []func(status int)
}

// PID returns the process's simulation-unique ID.
func (p *Proc) PID() int { return p.pid }

// Name returns the process's human-readable name.
func (p *Proc) Name() string {
	if p.nameN > 0 {
		p.name, p.nameN = p.name+"/"+strconv.Itoa(p.nameN), 0
	}
	return p.name
}

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
// Hooks run in registration order. They stay registered when the process
// is respawned (Env.Respawn), and run again at each death.
func (p *Proc) OnExit(fn func(status int)) {
	p.exitHooks = append(p.exitHooks, fn)
}

// Spawn creates a process named name running body and schedules it to start
// at the current virtual time. The body runs on its own coroutine, and only
// while the scheduler has handed it control.
func (e *Env) Spawn(name string, body func(p *Proc)) *Proc {
	return e.start(e.newProc(false), name, 0, body)
}

// Respawn is Spawn of a process named name+"/"+n (n > 0) that runs in p,
// a process made by Respawn that died and whose exit hooks have run, or
// in a new one if p is nil. A reused p has a new PID and keeps its exit
// hooks and its coroutine (a goroutine): every handle to it names the new
// process, so only the one owner of a dead process may respawn it. The
// name is formatted only when something asks for it, so an untraced
// respawn allocates nothing.
func (e *Env) Respawn(p *Proc, name string, n int, body func(p *Proc)) *Proc {
	switch {
	case p == nil:
		p = e.newProc(true)
	case !p.keep || p.env != e || p.state != StateDead || e.procs[p.pid] == p:
		panic(fmt.Sprintf("sim: respawn of %s process %q", p.state, p.Name()))
	case !p.spare: // its coroutine ended (see top), or it never had one
		p.resume, p.stop, p.yield = nil, nil, nil
	}
	return e.start(p, name, n, body)
}

func (e *Env) newProc(keep bool) *Proc {
	p := &Proc{env: e, keep: keep}
	p.wake = Event{env: e, fn: p.fire, index: idle}
	if keep {
		e.kept = append(e.kept, p)
	}
	return p
}

// start readies p, new or dead, to run body as a new process.
func (e *Env) start(p *Proc, name string, n int, body func(p *Proc)) *Proc {
	p.pid, p.name, p.nameN = e.nextPID, name, n
	p.state, p.body, p.resumes = StateRunnable, body, 0
	p.wakeVal, p.killed, p.exitStatus = nil, false, 0
	e.nextPID++
	e.procs[p.pid] = p
	e.enqueue(&p.wake, 0)
	return p
}

// fire is the callback of the wake event, in scheduler context.
func (p *Proc) fire() {
	switch {
	case p.state == StateDead:
		p.runExitHooks()
		return
	case p.resumes > 0:
		// A Wake, the sleep timer or the unwind after Kill.
	case p.killed:
		// Killed before it ever ran: just report death.
		p.state = StateDead
		p.exitStatus = -1
		p.runExitHooks()
		return
	case p.resume == nil:
		p.resume, p.stop = iter.Pull(p.top)
	default: // a respawn: the parked coroutine runs the new body
		p.spare = false
	}
	p.state = StateRunning
	p.resumes++
	p.resume()
}

// top is the root frame of a process coroutine: it runs the body (live),
// then either returns, ending the coroutine, or — for a process that
// keeps it — parks as a spare until the next body or Close.
func (p *Proc) top(yield func(struct{}) bool) {
	p.yield = yield
	for {
		p.live()
		if !p.keep {
			return
		}
		p.spare = true
		if !yield(struct{}{}) {
			p.spare = false // Close
			return
		}
	}
}

// live runs the body. It recovers the unwind sentinels, records
// unexpected panics for the scheduler to re-raise, and always returns
// control. Exit hooks are left to the wake event so they run in
// scheduler context.
func (p *Proc) live() {
	status := 0
	defer func() {
		if r := recover(); r != nil {
			switch v := r.(type) {
			case killSentinel:
				status = -1
			case exitSentinel:
				status = v.status
			default:
				p.env.fatal = &procPanic{proc: p.Name(), value: r, stack: string(debug.Stack())}
				status = -1
			}
		}
		p.state = StateDead
		p.exitStatus = status
		p.env.enqueue(&p.wake, 0)
	}()
	p.body(p)
}

func (p *Proc) runExitHooks() {
	delete(p.env.procs, p.pid)
	for _, h := range p.exitHooks {
		h(p.exitStatus)
	}
}

// Park blocks the process until another party calls Wake, returning the
// value passed to Wake. If the process is killed while parked, Park never
// returns: the coroutine unwinds through its deferred calls.
//
// Park must only be called from the process's own coroutine.
func (p *Proc) Park() any {
	if p.state != StateRunning {
		panic(fmt.Sprintf("sim: Park on %s process %q", p.state, p.Name()))
	}
	p.state = StateParked
	p.switchOut()
	v := p.wakeVal
	p.wakeVal = nil
	return v
}

// switchOut hands control back to the scheduler until the wake event (or
// Env.Close) resumes the process.
func (p *Proc) switchOut() {
	if !p.yield(struct{}{}) || p.killed {
		panic(killSentinel{})
	}
}

// Wake schedules the parked process to resume at the current virtual time,
// making Park return v. Waking a process that is not parked panics: callers
// (the kernel layer) are responsible for tracking blocking state.
func (p *Proc) Wake(v any) {
	if p.state != StateParked {
		panic(fmt.Sprintf("sim: Wake on %s process %q", p.state, p.Name()))
	}
	if p.wake.index != idle { // asleep, not parked
		panic(fmt.Sprintf("sim: double Wake on process %q", p.Name()))
	}
	p.state = StateRunnable
	p.wakeVal = v
	p.env.enqueue(&p.wake, 0)
}

// Sleep suspends the process for d of virtual time. If the process is
// killed while sleeping, Sleep never returns.
func (p *Proc) Sleep(d Time) {
	if p.state != StateRunning {
		panic(fmt.Sprintf("sim: Sleep on %s process %q", p.state, p.Name()))
	}
	p.state = StateParked
	p.env.enqueue(&p.wake, d)
	p.switchOut()
}

// Yield gives other runnable work at the current virtual time a chance to
// execute, then resumes. Equivalent to Sleep(0).
func (p *Proc) Yield() { p.Sleep(0) }

// Exit terminates the calling process with the given status. It never
// returns; deferred calls in the process body run as the coroutine unwinds.
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
		p.wake.Cancel()
		p.state = StateRunnable
		p.env.enqueue(&p.wake, 0)
	case StateRunnable:
		// Either not yet started, or a wake is in flight; that event (or
		// the start event) observes p.killed and unwinds.
	case StateRunning:
		// Killing yourself: unwind immediately.
		panic(killSentinel{})
	}
}

// Close tears the environment down once its results are harvested: every
// process still alive is unwound, in PID order, as if killed — deferred
// calls run, exit hooks fire with status -1 —, the spare coroutines of
// dead processes are ended, and the queues are dropped, so no coroutine
// (a goroutine each) outlives the environment. Nothing an
// unwinding process or a hook schedules runs. The environment must not be
// used afterwards.
func (e *Env) Close() {
	pids := make([]int, 0, len(e.procs))
	for pid := range e.procs {
		pids = append(pids, pid)
	}
	slices.Sort(pids)
	for _, pid := range pids {
		p := e.procs[pid]
		p.wake.Cancel()
		p.killed = true
		if p.stop != nil && p.state != StateDead {
			p.state = StateRunning
			p.stop() // yield returns false; top queues the exit hooks
			p.wake.Cancel()
		}
		p.fire() // dead by now, or never started: the exit hooks, here
	}
	for _, p := range e.kept {
		if p.spare {
			p.stop() // yield returns false; the parked top returns
		}
	}
	e.kept = nil
	// Drop the queues; handles to the dropped events stay safe to Cancel.
	for _, ev := range e.events {
		ev.index = idle
	}
	for _, r := range e.runq[e.runHead:] {
		if r.live() {
			r.ev.index = idle
		}
	}
	e.events, e.runq, e.runHead, e.runLive = nil, nil, 0, 0
	e.raiseFatal()
}

// ExitStatus returns the status the process died with (-1 for killed or
// crashed). Only meaningful once the process is dead.
func (p *Proc) ExitStatus() int { return p.exitStatus }
