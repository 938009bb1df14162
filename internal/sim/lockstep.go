package sim

import (
	"sync"
	"sync/atomic"
)

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

// Lockstep coordinates a set of fully independent environments — the
// multi-system clock coordinator the fleet simulation (internal/cluster)
// is built on. Each member keeps its own event queue, RNG, and processes;
// Lockstep only hands them to a worker pool and waits, so members never
// observe each other while they run.
//
// Because members share no state, Each may run them concurrently. Each
// member's execution is internally sequential and seeded, so results are
// byte-identical for any worker count — the same property the sharded
// campaign runner (internal/campaign) provides for independent cells.
type Lockstep struct {
	envs    []*Env
	workers int

	perfBegin, perfEnd func() // bracket Each (see SetPerfHooks)
}

// NewLockstep creates a coordinator over envs advancing with the given
// worker-pool size (values < 1 mean 1: strictly sequential, in member
// order).
func NewLockstep(workers int, envs ...*Env) *Lockstep {
	if workers < 1 {
		workers = 1
	}
	return &Lockstep{envs: envs, workers: workers}
}

// Add appends another member environment.
func (l *Lockstep) Add(e *Env) { l.envs = append(l.envs, e) }

// Members returns the coordinated environments, in member order.
func (l *Lockstep) Members() []*Env { return l.envs }

// SetPerfHooks installs wall-clock instrumentation bracketing every
// Each call (both nil disables). When the same profiler also observes
// member environments, the coordinator must run with one worker: the
// profiler is single-threaded.
func (l *Lockstep) SetPerfHooks(begin, end func()) {
	l.perfBegin, l.perfEnd = begin, end
}

// Each calls fn(i, member i) once for every member and returns when all
// calls have (a barrier). The workers claim member indices from one
// atomic counter, so a member that has more to do does not hold up the
// others' queue; with one worker the calls run on the caller's goroutine
// in member order. With more, the caller starts them all and waits
// rather than taking a share itself: a lone helper would sit in the
// caller's run-next slot, which another thread may steal only after a
// delay as long as a short call's whole work. fn must touch only its own
// member's state, and the caller must not touch any member while Each is
// in flight.
func (l *Lockstep) Each(fn func(i int, e *Env)) {
	if l.perfBegin != nil {
		l.perfBegin()
		defer l.perfEnd()
	}
	var next atomic.Int64
	claim := func() {
		for i := int(next.Add(1)) - 1; i < len(l.envs); i = int(next.Add(1)) - 1 {
			fn(i, l.envs[i])
		}
	}
	if l.workers == 1 {
		claim()
		return
	}
	var wg sync.WaitGroup
	for w := 0; w < l.workers && w < len(l.envs); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			claim()
		}()
	}
	wg.Wait()
}

// AdvanceTo advances every member to the absolute virtual time t and
// returns once all have reached it. Members already at or past t are
// untouched.
func (l *Lockstep) AdvanceTo(t Time) {
	l.Each(func(_ int, e *Env) { e.RunUntil(t) })
}
