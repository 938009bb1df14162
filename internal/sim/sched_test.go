package sim

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"
	"testing"
	"time"
)

// key is the firing order: time first, schedule order within a time.
type key struct {
	at  Time
	seq uint64
}

func (k key) cmp(o key) int {
	return cmp.Or(cmp.Compare(k.at, o.at), cmp.Compare(k.seq, o.seq))
}

// pendingKeys returns the key of every pending event, heap and run queue
// together, sorted: the order one heap over all of them would pop them in.
func pendingKeys(e *Env) []key {
	var keys []key
	for _, ev := range e.events {
		keys = append(keys, key{ev.at, ev.seq})
	}
	for _, r := range e.runq[e.runHead:] {
		if r.live() {
			keys = append(keys, key{r.ev.at, r.seq})
		}
	}
	slices.SortFunc(keys, key.cmp)
	return keys
}

// oracle checks every firing of an environment against a pure-heap model
// of its queue. The model is the sorted pending set as it stood after the
// previous event; the event the engine fires next must be the model's
// first, and nothing else may have left the queue.
type oracle struct {
	t     *testing.T
	e     *Env
	model []key
	fired []key
}

func attachOracle(t *testing.T, e *Env) *oracle {
	o := &oracle{t: t, e: e}
	nop := func() {}
	e.SetPerfHooks(&PerfHooks{EventBegin: o.fire, EventEnd: nop, HookBegin: nop, HookEnd: nop})
	e.SetStepHook(o.sync)
	return o
}

// sync takes over what the event just run (or the test, between runs) did
// to the queue.
func (o *oracle) sync() {
	o.model = pendingKeys(o.e)
	if got := o.e.Pending(); got != len(o.model) {
		o.t.Fatalf("Pending() = %d with %d live entries queued", got, len(o.model))
	}
}

func (o *oracle) fire() {
	if len(o.model) == 0 {
		o.t.Fatalf("fired an event at %v with none pending in the model", o.e.now)
	}
	want := o.model[0]
	if o.e.now != want.at {
		o.t.Fatalf("firing at %v, model's first is %+v", o.e.now, want)
	}
	if rest := pendingKeys(o.e); !slices.Equal(rest, o.model[1:]) {
		o.t.Fatalf("fired something other than the first by (at, seq) %+v:\nstill pending %v\nmodel         %v", want, rest, o.model[1:])
	}
	if n := len(o.fired); n > 0 && o.fired[n-1].cmp(want) >= 0 {
		o.t.Fatalf("fired %+v after %+v", want, o.fired[n-1])
	}
	o.fired = append(o.fired, want)
}

// chaos issues random scheduler operations from inside events and
// processes until its budget is spent.
type chaos struct {
	e       *Env
	rng     *rand.Rand
	budget  int
	events  []*Event
	procs   []*Proc
	tickers []*Ticker
	timers  []*Timer
}

func (c *chaos) delay() Time { return Time(c.rng.Intn(4)) * time.Millisecond }

func pick[T any](c *chaos, s []T) (v T, ok bool) {
	if len(s) == 0 {
		return v, false
	}
	return s[c.rng.Intn(len(s))], true
}

// act performs up to three random operations.
func (c *chaos) act() {
	for n := c.rng.Intn(4); n > 0 && c.budget > 0; n-- {
		c.budget--
		switch c.rng.Intn(10) {
		case 0, 1:
			c.events = append(c.events, c.e.Schedule(0, c.act))
		case 2:
			c.events = append(c.events, c.e.Schedule(c.delay(), c.act))
		case 3:
			if ev, ok := pick(c, c.events); ok {
				ev.Cancel()
			}
		case 4, 5:
			if p, ok := pick(c, c.procs); ok && p.state == StateParked && p.wake.index == idle {
				p.Wake(nil)
			}
		case 6:
			if p, ok := pick(c, c.procs); ok {
				p.Kill() // possibly the caller itself, which unwinds from here
			}
		case 7:
			if len(c.tickers) < 4 {
				var t *Ticker
				t = c.e.Tick(c.delay()+time.Millisecond/2, func() {
					if c.budget == 0 {
						t.Stop()
					}
					c.act()
				})
				c.tickers = append(c.tickers, t)
			} else if t, ok := pick(c, c.tickers); ok {
				t.Stop()
			}
		case 8:
			if len(c.procs) < 24 {
				c.procs = append(c.procs, c.e.Spawn("chaos", c.body))
			}
		case 9:
			if len(c.timers) < 4 {
				c.timers = append(c.timers, c.e.NewTimer(c.act))
			} else if t, _ := pick(c, c.timers); c.rng.Intn(3) == 0 {
				t.Stop()
			} else {
				t.Reset(c.delay())
			}
		}
	}
}

func (c *chaos) body(p *Proc) {
	for c.budget > 0 {
		c.act()
		switch c.rng.Intn(4) {
		case 0:
			p.Park()
		case 1:
			p.Sleep(c.delay())
		case 2:
			p.Yield()
		}
	}
}

// TestFiringOrderOracle is the differential between the scheduler (run
// queue merged with the heap) and a pure heap: over 64 seeds of random
// Schedule / Cancel / Wake / Sleep / Yield / Kill / Tick / Stop / Spawn /
// Timer Reset / Stop, every single firing must be the first pending entry
// by (at, seq).
func TestFiringOrderOracle(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		e := NewEnv(seed)
		o := attachOracle(t, e)
		c := &chaos{e: e, rng: e.Rand(), budget: 4000}
		for i := 0; i < 8; i++ {
			c.procs = append(c.procs, e.Spawn("chaos", c.body))
		}
		var driver *Ticker // keeps the script going when everything else is parked
		driver = e.Tick(time.Millisecond, func() {
			if c.budget == 0 {
				driver.Stop()
			}
			c.act()
		})
		// Stopping and resuming in the middle of an instant, and handing
		// work in from outside, must not disturb the order either.
		for slice := 0; slice < 50 && e.Pending() > 0; slice++ {
			c.events = append(c.events, e.Schedule(0, c.act))
			o.sync()
			e.Run(2 * time.Millisecond)
		}
		o.sync()
		e.Run(0)
		if c.budget != 0 {
			t.Fatalf("seed %d: ran dry with %d operations left", seed, c.budget)
		}
		if got := e.EventsExecuted(); got != uint64(len(o.fired)) {
			t.Fatalf("seed %d: EventsExecuted = %d, oracle saw %d firings", seed, got, len(o.fired))
		}
		if len(o.fired) < 1000 {
			t.Fatalf("seed %d: only %d firings, the script is not exercising the queue", seed, len(o.fired))
		}
		late, soon := e.Schedule(time.Hour, c.act), e.Schedule(0, c.act)
		e.Close()
		if e.Pending() != 0 || len(e.procs) != 0 {
			t.Fatalf("seed %d: Close left %d events, %d processes", seed, e.Pending(), len(e.procs))
		}
		if late.Cancel() || soon.Cancel() { // handles outlive the queues
			t.Fatalf("seed %d: Cancel after Close found an event to stop", seed)
		}
	}
}

// oneShot is a re-armable one-shot: a Timer, or the code it replaced.
type oneShot interface {
	Reset(d Time)
	Stop() bool
}

// scheduleTimer is that code: every arm cancels the pending event and
// schedules a fresh one.
type scheduleTimer struct {
	e  *Env
	fn func()
	ev *Event
}

func (s *scheduleTimer) Reset(d Time) { s.ev.Cancel(); s.ev = s.e.Schedule(d, s.fn) }
func (s *scheduleTimer) Stop() bool   { return s.ev.Cancel() }

// timerScript runs a random script of Reset / Stop on six one-shots mixed
// with Schedule / Cancel, every delay 0, 1 or 2 ms so that ties abound,
// and returns what fired when and what every Stop and Cancel answered.
// The script's choices are drawn in firing order, so two runs diverge at
// the first firing they disagree on.
func timerScript(t *testing.T, seed int64, reference bool) []string {
	e := NewEnv(seed)
	defer e.Close()
	rng := rand.New(rand.NewSource(seed))
	var (
		log    []string
		shots  []oneShot
		events []*Event
		budget = 3000
		act    func(who string)
	)
	act = func(who string) {
		log = append(log, fmt.Sprintf("%v fire %s", e.Now(), who))
		for n := rng.Intn(4); n > 0 && budget > 0; n-- {
			budget--
			d := Time(rng.Intn(3)) * time.Millisecond
			switch i := rng.Intn(len(shots)); rng.Intn(6) {
			case 0, 1:
				shots[i].Reset(d)
			case 2:
				log = append(log, fmt.Sprintf("stop %d: %v", i, shots[i].Stop()))
			case 3, 4:
				id := fmt.Sprint("event ", len(events))
				events = append(events, e.Schedule(d, func() { act(id) }))
			case 5:
				if len(events) > 0 {
					ev := events[rng.Intn(len(events))]
					log = append(log, fmt.Sprintf("cancel: %v", ev.Cancel()))
				}
			}
		}
	}
	for i := range 6 {
		fn := func() { act(fmt.Sprint("timer ", i)) }
		if reference {
			shots = append(shots, &scheduleTimer{e: e, fn: fn})
		} else {
			shots = append(shots, e.NewTimer(fn))
		}
	}
	var driver *Ticker // keeps the script going when every one-shot is stopped
	driver = e.Tick(time.Millisecond, func() {
		if budget == 0 {
			driver.Stop()
		}
		act("tick")
	})
	if !reference {
		attachOracle(t, e).sync()
	}
	e.Run(0)
	if budget != 0 || len(log) < 2000 {
		t.Fatalf("seed %d: %d operations left, %d log lines: the script is not exercising the queue", seed, budget, len(log))
	}
	return log
}

// TestTimerOrderOracle: a Timer re-arms its one embedded event where the
// code it replaced cancelled an event and scheduled a fresh one. Under a
// random script the two must fire the same things at the same instants in
// the same order, and answer every Stop and Cancel alike — and the Timer
// run also passes the pure-heap oracle at every firing.
func TestTimerOrderOracle(t *testing.T) {
	for seed := int64(0); seed < 64; seed++ {
		got, want := timerScript(t, seed, false), timerScript(t, seed, true)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("seed %d: %d lines, reference %d; from line %d:\n%q\nreference:\n%q",
				seed, len(got), len(want), i, got[i:min(i+3, len(got))], want[i:min(i+3, len(want))])
		}
	}
}

// TestRunQueueSlides keeps the run queue from ever draining: two
// processes wake each other inside one instant while a third entry is
// always pending. The buffer must be reused, not grow with the firings.
func TestRunQueueSlides(t *testing.T) {
	e := NewEnv(1)
	const rounds = 20000
	var a, b *Proc
	a = e.Spawn("a", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			p.Park()
			b.Wake(nil)
		}
	})
	b = e.Spawn("b", func(p *Proc) {
		for i := 0; i < rounds; i++ {
			a.Wake(nil)
			p.Park()
		}
	})
	spins := 0
	var spin func()
	spin = func() {
		if spins++; a.Alive() {
			e.Schedule(0, spin)
		}
	}
	e.Schedule(0, spin)
	e.Run(0)
	if e.Now() != 0 {
		t.Fatalf("clock moved to %v", e.Now())
	}
	if spins < rounds {
		t.Fatalf("third party fired %d times in %d rounds: the run queue is not FIFO", spins, rounds)
	}
	if c := cap(e.runq); c > 16 {
		t.Fatalf("run queue grew to %d slots for 3 pending entries", c)
	}
}
