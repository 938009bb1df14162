package sim

import (
	"fmt"
	"slices"
	"testing"
)

// queue is the surface of an event queue that FuzzEventQueueMatchesReference
// drives: the Env, or refQueue.
type queue interface {
	now() Time
	schedule(d Time, fn func()) (cancel func() bool)
	newTimer(fn func()) (reset func(Time), stop func() bool)
	tick(period Time, fn func()) (stop func())
	run(horizon Time)
	next() (Time, bool)
	pending() int
}

type envQueue struct{ e *Env }

func (q envQueue) now() Time { return q.e.Now() }
func (q envQueue) schedule(d Time, fn func()) func() bool {
	return q.e.Schedule(d, fn).Cancel
}
func (q envQueue) newTimer(fn func()) (func(Time), func() bool) {
	t := q.e.NewTimer(fn)
	return t.Reset, t.Stop
}
func (q envQueue) tick(period Time, fn func()) func() { return q.e.Tick(period, fn).Stop }
func (q envQueue) run(horizon Time)                   { q.e.Run(horizon) }
func (q envQueue) next() (Time, bool)                 { return q.e.NextEvent() }
func (q envQueue) pending() int                       { return q.e.Pending() }

// refQueue is the reference: a plain list of entries, sorted by (at, seq)
// before every firing, whose first live entry due by the horizon fires.
type refQueue struct {
	t       Time
	seq     uint64
	entries []*refEntry
}

type refEntry struct {
	at   Time
	seq  uint64
	fn   func()
	live bool
}

func (r *refQueue) add(d Time, fn func()) *refEntry {
	e := &refEntry{at: r.t + max(d, 0), seq: r.seq, fn: fn, live: true}
	r.seq++
	r.entries = append(r.entries, e)
	return e
}

func (e *refEntry) cancel() bool {
	was := e != nil && e.live
	if e != nil {
		e.live = false
	}
	return was
}

func (r *refQueue) now() Time { return r.t }

func (r *refQueue) schedule(d Time, fn func()) func() bool { return r.add(d, fn).cancel }

func (r *refQueue) newTimer(fn func()) (func(Time), func() bool) {
	var cur *refEntry
	reset := func(d Time) {
		cur.cancel()
		cur = r.add(d, fn)
	}
	return reset, func() bool { return cur.cancel() }
}

func (r *refQueue) tick(period Time, fn func()) func() {
	if period <= 0 {
		period = 1
	}
	var cur *refEntry
	stopped := false
	var fire func()
	fire = func() {
		fn()
		if !stopped {
			cur = r.add(period, fire)
		}
	}
	cur = r.add(period, fire)
	return func() {
		if !stopped {
			stopped = true
			cur.cancel()
		}
	}
}

// live drops the canceled and fired entries and sorts the rest.
func (r *refQueue) live() []*refEntry {
	r.entries = slices.DeleteFunc(r.entries, func(e *refEntry) bool { return !e.live })
	slices.SortFunc(r.entries, func(a, b *refEntry) int {
		return key{a.at, a.seq}.cmp(key{b.at, b.seq})
	})
	return r.entries
}

func (r *refQueue) run(horizon Time) {
	limit := Time(-1)
	if horizon > 0 {
		limit = r.t + horizon
	}
	for {
		q := r.live()
		if len(q) == 0 || limit >= 0 && q[0].at > limit {
			break
		}
		e := q[0]
		e.live = false
		r.t = max(r.t, e.at)
		e.fn()
	}
	if limit >= 0 && r.t < limit {
		r.t = limit
	}
}

func (r *refQueue) next() (Time, bool) {
	if q := r.live(); len(q) > 0 {
		return q[0].at, true
	}
	return 0, false
}

func (r *refQueue) pending() int { return len(r.live()) }

// Ops of a FuzzEventQueueMatchesReference program, one per 3 bytes: the
// op and two arguments a and b. An event's b is also its action when it
// fires (see queueProgram).
const (
	qSchedule   = iota // Schedule(a%8) of a fresh event
	qCancel            // Cancel event a
	qNewTimer          // a fresh Timer, Reset(a%8)
	qReset             // Timer a: Reset(b%8)
	qStopTimer         // Timer a: Stop
	qTick              // Tick(a%8) of a fresh Ticker
	qStopTicker        // Ticker a: Stop
	qRun               // Run(1 + a%16)
	qOps
)

// queueProgram runs prog on q and returns what fired when and what every
// Cancel, Stop, Pending and NextEvent answered. A firing may act on the
// queue itself through its b: schedule a child at zero delay, cancel an
// event, re-arm a timer or stop a ticker, each chosen by b's upper bits.
// A budget bounds the firings that act, so a timer that re-arms itself at
// zero delay ends.
func queueProgram(q queue, prog []byte) []string {
	var (
		log     []string
		cancels []func() bool
		resets  []func(Time)
		stops   []func() bool
		tickers []func()
		budget  = 2000
		fire    func(id string, act byte) func()
	)
	pick := func(n int, i byte) int { return int(i) % n }
	fire = func(id string, act byte) func() {
		return func() {
			log = append(log, fmt.Sprintf("%s@%d", id, q.now()))
			if budget == 0 {
				return
			}
			budget--
			switch sub := act >> 2; act % 4 {
			case 1:
				child := fmt.Sprint("e", len(cancels))
				cancels = append(cancels, q.schedule(0, fire(child, sub)))
			case 2:
				log = append(log, fmt.Sprint("cancel ", cancels[pick(len(cancels), sub)]()))
			case 3:
				if len(resets) > 0 {
					resets[pick(len(resets), sub)](Time(sub % 3))
				} else if len(tickers) > 0 {
					tickers[pick(len(tickers), sub)]()
				}
			}
		}
	}
	// Event 0 keeps qCancel and the cancel action total.
	cancels = append(cancels, q.schedule(1, fire("e0", 0)))
	for i := 0; i+3 <= len(prog); i += 3 {
		a, b := prog[i+1], prog[i+2]
		switch prog[i] % qOps {
		case qSchedule:
			id := fmt.Sprint("e", len(cancels))
			cancels = append(cancels, q.schedule(Time(a%8), fire(id, b)))
		case qCancel:
			log = append(log, fmt.Sprint("cancel ", cancels[pick(len(cancels), a)]()))
		case qNewTimer:
			reset, stop := q.newTimer(fire(fmt.Sprint("t", len(resets)), b))
			resets, stops = append(resets, reset), append(stops, stop)
			reset(Time(a % 8))
		case qReset:
			if len(resets) > 0 {
				resets[pick(len(resets), a)](Time(b % 8))
			}
		case qStopTimer:
			if len(stops) > 0 {
				log = append(log, fmt.Sprint("stop ", stops[pick(len(stops), a)]()))
			}
		case qTick:
			tickers = append(tickers, q.tick(Time(a%8), fire(fmt.Sprint("k", len(tickers)), b)))
		case qStopTicker:
			if len(tickers) > 0 {
				tickers[pick(len(tickers), a)]()
			}
		case qRun:
			q.run(Time(1 + a%16))
			at, ok := q.next()
			log = append(log, fmt.Sprintf("ran to %d: %d pending, next %d %v", q.now(), q.pending(), at, ok))
		}
	}
	// Drain: with the tickers stopped, the queue empties.
	for _, stop := range tickers {
		stop()
	}
	q.run(0)
	return append(log, fmt.Sprintf("drained at %d: %d pending", q.now(), q.pending()))
}

func queueProg(ops ...[3]byte) []byte {
	var p []byte
	for _, op := range ops {
		p = append(p, op[:]...)
	}
	return p
}

// FuzzEventQueueMatchesReference runs a program of Schedule, Cancel,
// Timer.Reset / Stop, Tick / Ticker.Stop and Run(horizon) on an Env and on
// refQueue, firings acting on the queue too, and requires the same
// firings at the same instants in the same order, and the same answers:
// the heap and the run queue together fire exactly by (at, seq). The
// delays are a few nanoseconds, so many events share an instant, and
// zero-delay events are scheduled both between runs and from firings.
func FuzzEventQueueMatchesReference(f *testing.F) {
	// Same-instant events in the heap ahead of zero-delay children their
	// firings schedule, then cancels of both kinds.
	f.Add(queueProg(
		[3]byte{qSchedule, 3, 1}, [3]byte{qSchedule, 3, 5}, [3]byte{qSchedule, 3, 0},
		[3]byte{qSchedule, 0, 1}, [3]byte{qSchedule, 0, 2}, [3]byte{qRun, 1, 0},
		[3]byte{qCancel, 2, 0}, [3]byte{qRun, 4, 0}))
	// Timers re-armed before, at and after the instant they are due, and
	// from each other's firings.
	f.Add(queueProg(
		[3]byte{qNewTimer, 2, 3}, [3]byte{qNewTimer, 0, 7}, [3]byte{qReset, 0, 0},
		[3]byte{qSchedule, 2, 0}, [3]byte{qRun, 1, 0}, [3]byte{qReset, 1, 2},
		[3]byte{qStopTimer, 0, 0}, [3]byte{qRun, 5, 0}, [3]byte{qStopTimer, 1, 0}))
	// Tickers of period 0 (clamped to 1) and 3 beside one-shots on their
	// instants, a ticker stopped by a firing, a run between ticks.
	f.Add(queueProg(
		[3]byte{qTick, 0, 0}, [3]byte{qTick, 3, 1}, [3]byte{qSchedule, 3, 0},
		[3]byte{qSchedule, 6, 3}, [3]byte{qRun, 7, 0}, [3]byte{qStopTicker, 1, 0},
		[3]byte{qRun, 2, 0}, [3]byte{qStopTicker, 0, 0}, [3]byte{qRun, 0, 0}))
	// A cancel in the heap's second level whose hole the last entry,
	// due before the hole's parent, fills: it must move up, not down.
	f.Add(queueProg(
		[3]byte{qSchedule, 0, 0}, [3]byte{qSchedule, 2, 0}, [3]byte{qSchedule, 1, 0},
		[3]byte{qSchedule, 1, 0}, [3]byte{qSchedule, 2, 0}, [3]byte{qSchedule, 2, 0},
		[3]byte{qSchedule, 2, 0}, [3]byte{qSchedule, 2, 0}, [3]byte{qSchedule, 2, 0},
		[3]byte{qSchedule, 1, 0}, [3]byte{qCancel, 6, 0}, [3]byte{qSchedule, 0, 0}))
	// Enough events for a heap three levels deep, canceled from the
	// middle.
	var deep []byte
	for i := range byte(90) {
		deep = append(deep, qSchedule, i*7%8, i)
		if i%5 == 4 {
			deep = append(deep, qCancel, i*3, 0)
		}
	}
	f.Add(append(deep, qRun, 15, 0))
	f.Fuzz(func(t *testing.T, prog []byte) {
		e := NewEnv(1)
		defer e.Close()
		got, want := queueProgram(envQueue{e}, prog), queueProgram(&refQueue{}, prog)
		if !slices.Equal(got, want) {
			i := 0
			for i < len(got) && i < len(want) && got[i] == want[i] {
				i++
			}
			t.Fatalf("%d lines, reference %d; from line %d:\n%q\nreference:\n%q",
				len(got), len(want), i, got[i:min(i+4, len(got))], want[i:min(i+4, len(want))])
		}
	})
}
