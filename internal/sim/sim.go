// Package sim implements a deterministic discrete-event simulation engine.
//
// The engine provides a virtual clock, an event queue, and cooperative
// process coroutines: at most one simulated process runs at any moment, and
// control transfers between the scheduler and processes are explicit
// (Park/Wake/Sleep). All randomness flows through a seeded generator, so a
// run is reproducible bit-for-bit given the same seed and inputs.
//
// Everything above this package (kernel, servers, drivers, workloads) runs
// in virtual time; wall-clock speed of the host is irrelevant to simulated
// results.
package sim

import (
	"fmt"
	"math/rand"
	"time"
)

// Time is a point in virtual time, measured as an offset from boot.
type Time = time.Duration

// Event is a scheduled callback and the cancelable handle to it: the
// value Schedule returns is the queue entry itself. Events with equal time
// fire in schedule order (seq breaks ties), which keeps runs deterministic.
//
// Proc, Ticker and Timer embed the one event they ever have pending and
// re-queue it, so waking, sleeping, ticking and re-arming allocate nothing.
type Event struct {
	env   *Env
	at    Time
	seq   uint64
	fn    func()
	index int // heap index, or idle / inRunq
}

// Values of Event.index for an event that is not in the heap.
const (
	idle   = -1 // not queued: fired, canceled, or never scheduled
	inRunq = -2 // in the run queue
)

func (ev *Event) before(at Time, seq uint64) bool {
	if ev.at != at {
		return ev.at < at
	}
	return ev.seq < seq
}

// eventQueue is a 4-ary min-heap on (at, seq), each event holding its
// own index. No two events share a (at, seq), so the pop order is a total
// order that any heap shape yields the same: this one halves the depth of
// a binary heap, and, typed, it calls no interface methods.
type eventQueue []*Event

// push adds ev to the heap.
func (q *eventQueue) push(ev *Event) {
	*q = append(*q, ev)
	q.up(len(*q)-1, ev)
}

// popMin removes and returns the first event by (at, seq).
func (q *eventQueue) popMin() *Event {
	ev := (*q)[0]
	q.remove(0)
	return ev
}

// remove takes the event at index i out of the heap and marks it idle.
func (q *eventQueue) remove(i int) {
	h := *q
	n := len(h) - 1
	ev, last := h[i], h[n]
	h[n] = nil
	*q = h[:n]
	ev.index = idle
	if i == n {
		return
	}
	if q.down(i, last) == i {
		q.up(i, last)
	}
}

// up places ev, which belongs at index i or above it, on the path from i
// to the root.
func (q eventQueue) up(i int, ev *Event) {
	for i > 0 {
		p := (i - 1) / 4
		if !ev.before(q[p].at, q[p].seq) {
			break
		}
		q[i] = q[p]
		q[i].index = i
		i = p
	}
	q[i] = ev
	ev.index = i
}

// down places ev, which belongs at index i or below it, among the
// descendants of i, and returns the index it landed at.
func (q eventQueue) down(i int, ev *Event) int {
	for {
		c := 4*i + 1
		if c >= len(q) {
			break
		}
		m := c
		for j := c + 1; j < min(c+4, len(q)); j++ {
			if q[j].before(q[m].at, q[m].seq) {
				m = j
			}
		}
		if !q[m].before(ev.at, ev.seq) {
			break
		}
		q[i] = q[m]
		q[i].index = i
		i = m
	}
	q[i] = ev
	ev.index = i
	return i
}

// runEntry is one run-queue slot. It is live while its event is still in
// the run queue under the seq the slot was filled with: a canceled event
// is only marked, and an embedded event may be back in the queue (further
// down, under a later seq) before the loop reaches its old slot.
type runEntry struct {
	ev  *Event
	seq uint64
}

func (r runEntry) live() bool { return r.ev.index == inRunq && r.ev.seq == r.seq }

// ProcEvent identifies a process-lifecycle transition reported to an
// observer (see Env.SetObserver).
type ProcEvent int

// Process-lifecycle transitions.
const (
	ProcSpawn ProcEvent = iota + 1
	ProcExit
)

// Observer receives process-lifecycle events from the engine. For
// ProcSpawn status is 0; for ProcExit it is the exit status (-1 for
// killed/crashed). Observers run synchronously in scheduler order and
// must be deterministic.
type Observer func(ev ProcEvent, name string, pid, status int)

// Env is a simulation environment: one virtual clock, one event queue, and
// the set of processes living on it. An Env is not safe for concurrent use;
// the entire simulation is single-threaded by design.
//
// The queue has two parts. Events due later wait in a heap ordered by
// (at, seq). Events due at the current instant — most of them: every Wake,
// Yield and Schedule(0) — wait in a FIFO run queue, which that order makes
// sorted already: all its entries have at == now, and seq only grows. The
// loop fires whichever of the two heads is first by (at, seq), so the
// firing order is the one a single heap would give.
type Env struct {
	now     Time
	events  eventQueue // due later than the instant they were scheduled at
	runq    []runEntry // due now; pending entries are runq[runHead:]
	runHead int
	runLive int // run-queue entries not canceled
	seq     uint64
	nexec   uint64 // events executed (scheduler work metric)
	rng     *rand.Rand
	procs   map[int]*Proc
	nextPID int
	stopped bool
	fatal   *procPanic // unexpected panic captured from a process

	observer Observer
	stepHook func()     // runs after every executed event (see SetStepHook)
	perf     *PerfHooks // wall-clock instrumentation (see SetPerfHooks)
}

// NewEnv returns a fresh environment whose randomness is derived from seed.
func NewEnv(seed int64) *Env {
	return &Env{
		rng:   rand.New(rand.NewSource(seed)),
		procs: make(map[int]*Proc),
	}
}

// Now returns the current virtual time.
func (e *Env) Now() Time { return e.now }

// Rand returns the environment's deterministic random source.
func (e *Env) Rand() *rand.Rand { return e.rng }

// SetObserver installs the process-lifecycle observer (nil disables).
// The observability layer (internal/obs) attaches here.
func (e *Env) SetObserver(o Observer) { e.observer = o }

// SetStepHook installs a callback that runs in scheduler context after
// every executed event (nil disables). The live invariant checker
// (internal/check) attaches here: the hook sees the system exactly at
// event boundaries, when no process is mid-instruction. The hook must not
// call blocking process primitives and must be deterministic.
func (e *Env) SetStepHook(fn func()) { e.stepHook = fn }

// EventsExecuted reports how many scheduler events have run — the
// engine's own work metric, independent of virtual time.
func (e *Env) EventsExecuted() uint64 { return e.nexec }

// PerfHooks are wall-clock instrumentation callbacks for the scheduler
// loop. They are plain funcs so this package keeps zero dependencies on
// the profiler (internal/perf attaches here). The hooks observe wall
// time only and must not touch simulation state: a run's virtual-time
// results are identical with and without them.
type PerfHooks struct {
	EventBegin, EventEnd func() // bracket every executed event
	HookBegin, HookEnd   func() // bracket the step hook (invariant checker)
}

// SetPerfHooks installs wall-clock instrumentation on the scheduler
// loop (nil disables).
func (e *Env) SetPerfHooks(h *PerfHooks) { e.perf = h }

// Schedule arranges for fn to run on the scheduler at now+d. The callback
// runs in scheduler context and must not call blocking process primitives
// (Sleep, Park, ...). It returns a handle that can cancel the event.
func (e *Env) Schedule(d Time, fn func()) *Event {
	ev := &Event{env: e, fn: fn, index: idle}
	e.enqueue(ev, d)
	return ev
}

// enqueue queues ev to fire at now+d. It is the only way into the queue,
// for Schedule's fresh events and for the embedded ones alike.
func (e *Env) enqueue(ev *Event, d Time) {
	if ev.index != idle {
		panic("sim: event scheduled twice")
	}
	if d < 0 {
		d = 0
	}
	ev.at, ev.seq = e.now+d, e.seq
	e.seq++
	if d > 0 {
		e.events.push(ev)
		return
	}
	// A queue that never drains (two processes waking each other inside
	// one instant) must not grow with the events fired: reuse the fired
	// slots once they are half of a full buffer.
	if len(e.runq) == cap(e.runq) && e.runHead > len(e.runq)/2 {
		n := copy(e.runq, e.runq[e.runHead:])
		clear(e.runq[n:])
		e.runq, e.runHead = e.runq[:n], 0
	}
	ev.index = inRunq
	e.runLive++
	e.runq = append(e.runq, runEntry{ev, ev.seq})
}

// Cancel prevents the event from firing. Canceling an already-fired or
// already-canceled event is a no-op. It reports whether the event was
// actually stopped before firing. An event in the heap leaves it at once:
// timers that are re-armed far more often than they fire (retransmit,
// alarm) would otherwise pile up dead entries until their time came. An
// event in the run queue is only marked; its slot is gone within the
// instant.
func (ev *Event) Cancel() bool {
	switch {
	case ev == nil || ev.index == idle:
		return false // already fired, firing, or canceled
	case ev.index == inRunq:
		ev.index = idle
		ev.env.runLive--
	default:
		ev.env.events.remove(ev.index)
	}
	return true
}

// Ticker is a cancelable periodic callback created by Env.Tick. The
// telemetry sampler (internal/obs/timeseries) uses one per run segment to
// fire window rollovers at exact virtual-time boundaries.
type Ticker struct {
	ev      Event // re-armed after every firing
	period  Time
	fn      func()
	stopped bool
}

// Tick schedules fn to run every period of virtual time, first at
// now+period. Unlike hand-rolled Schedule chains, the returned Ticker can
// be stopped, which removes the pending event from the queue — so a
// finished consumer does not keep the event queue from draining. fn runs
// in scheduler context and must not block.
func (e *Env) Tick(period Time, fn func()) *Ticker {
	if period <= 0 {
		period = 1
	}
	t := &Ticker{period: period, fn: fn}
	t.ev = Event{env: e, fn: t.fire, index: idle}
	e.enqueue(&t.ev, period)
	return t
}

func (t *Ticker) fire() {
	t.fn()
	if !t.stopped { // fn may have called Stop
		t.ev.env.enqueue(&t.ev, t.period)
	}
}

// Stop cancels the ticker; the pending rollover never fires. Idempotent.
func (t *Ticker) Stop() {
	if t == nil || t.stopped {
		return
	}
	t.stopped = true
	t.ev.Cancel()
}

// Timer is a re-armable one-shot created by Env.NewTimer. It carries the
// one event it can have pending, so re-arming it allocates nothing.
type Timer struct{ ev Event }

// NewTimer returns a stopped timer that runs fn in scheduler context each
// time it fires. fn must not block.
func (e *Env) NewTimer(fn func()) *Timer {
	return &Timer{ev: Event{env: e, fn: fn, index: idle}}
}

// Reset arms the timer to fire at now+d, replacing a pending firing. The
// firing takes a fresh seq, so it orders exactly as Cancel + Schedule
// would.
func (t *Timer) Reset(d Time) {
	t.ev.Cancel()
	t.ev.env.enqueue(&t.ev, d)
}

// Stop cancels a pending firing and reports whether there was one. A nil
// timer has none.
func (t *Timer) Stop() bool { return t != nil && t.ev.Cancel() }

// Stop makes Run return after the current event completes.
func (e *Env) Stop() { e.stopped = true }

// Stopped reports whether Stop has been called.
func (e *Env) Stopped() bool { return e.stopped }

// Run executes events until the queue drains, Stop is called, or the
// optional horizon passes (horizon <= 0 means no horizon). It returns the
// virtual time at which the run ended.
func (e *Env) Run(horizon Time) Time {
	limit := Time(-1)
	if horizon > 0 {
		limit = e.now + horizon
	}
	e.stopped = false
	for !e.stopped {
		ev := e.pop(limit)
		if ev == nil {
			break
		}
		if ev.at > e.now {
			e.now = ev.at
		}
		e.nexec++
		if e.perf != nil {
			e.perf.EventBegin()
			ev.fn()
			e.perf.EventEnd()
		} else {
			ev.fn()
		}
		if e.stepHook != nil {
			if e.perf != nil {
				e.perf.HookBegin()
				e.stepHook()
				e.perf.HookEnd()
			} else {
				e.stepHook()
			}
		}
		e.raiseFatal()
	}
	if limit >= 0 && e.now < limit && !e.stopped {
		e.now = limit
	}
	return e.now
}

// RunUntil advances the environment to the absolute virtual time t,
// executing every event scheduled before or at t. Unlike Run, whose
// horizon is relative to the current clock, RunUntil is idempotent for a
// clock already at or past t. It returns the virtual time reached (t,
// unless Stop fired first).
func (e *Env) RunUntil(t Time) Time {
	if t <= e.now {
		return e.now
	}
	return e.Run(t - e.now)
}

// pop removes and returns the first pending event by (at, seq), or nil
// when there is none due by limit (limit < 0 means no limit).
func (e *Env) pop(limit Time) *Event {
	for e.runHead < len(e.runq) {
		r := e.runq[e.runHead]
		live := r.live()
		if live && len(e.events) > 0 && e.events[0].before(r.ev.at, r.seq) {
			// Scheduled for this instant before it began: the heap's turn.
			return e.events.popMin()
		}
		e.runq[e.runHead] = runEntry{}
		if e.runHead++; e.runHead == len(e.runq) {
			e.runq, e.runHead = e.runq[:0], 0
		}
		if live {
			r.ev.index = idle
			e.runLive--
			return r.ev
		}
	}
	if len(e.events) == 0 || limit >= 0 && e.events[0].at > limit {
		return nil
	}
	return e.events.popMin()
}

// raiseFatal re-raises, on the scheduler's goroutine and with the process
// named, a panic that escaped a process body.
func (e *Env) raiseFatal() {
	if p := e.fatal; p != nil {
		e.fatal = nil
		panic(fmt.Sprintf("sim: process %q crashed: %v\n%s", p.proc, p.value, p.stack))
	}
}

// NextEvent reports when the first pending event is due, and false when
// none is pending.
func (e *Env) NextEvent() (Time, bool) {
	switch {
	case e.runLive > 0:
		return e.now, true
	case len(e.events) > 0:
		return e.events[0].at, true
	}
	return 0, false
}

// Pending reports the number of events waiting in the queue.
func (e *Env) Pending() int { return len(e.events) + e.runLive }

// procPanic records a non-sentinel panic escaping a process body so it can
// be re-raised on the scheduler goroutine with context.
type procPanic struct {
	proc  string
	value any
	stack string
}
