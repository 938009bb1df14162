package sim

import (
	"slices"
	"testing"
	"time"
)

func TestScheduleOrdering(t *testing.T) {
	e := NewEnv(1)
	var got []int
	e.Schedule(3*time.Second, func() { got = append(got, 3) })
	e.Schedule(1*time.Second, func() { got = append(got, 1) })
	e.Schedule(2*time.Second, func() { got = append(got, 2) })
	end := e.Run(0)
	if end != 3*time.Second {
		t.Fatalf("end time = %v, want 3s", end)
	}
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestScheduleTieBreakBySeq(t *testing.T) {
	e := NewEnv(1)
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		e.Schedule(time.Second, func() { got = append(got, i) })
	}
	e.Run(0)
	for i := 0; i < 10; i++ {
		if got[i] != i {
			t.Fatalf("same-time events fired out of schedule order: %v", got)
		}
	}
}

func TestScheduleNegativeDelayClamped(t *testing.T) {
	e := NewEnv(1)
	fired := false
	e.Schedule(time.Second, func() {
		e.Schedule(-5*time.Second, func() { fired = true })
	})
	e.Run(0)
	if !fired {
		t.Fatal("negative-delay event did not fire")
	}
	if e.Now() != time.Second {
		t.Fatalf("clock went backwards: %v", e.Now())
	}
}

func TestEventCancel(t *testing.T) {
	e := NewEnv(1)
	fired := false
	ev := e.Schedule(time.Second, func() { fired = true })
	if !ev.Cancel() {
		t.Fatal("Cancel returned false for pending event")
	}
	if ev.Cancel() {
		t.Fatal("second Cancel returned true")
	}
	e.Run(0)
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestCancelFiredEvent(t *testing.T) {
	e := NewEnv(1)
	ev := e.Schedule(0, func() {})
	e.Run(0)
	if ev.Cancel() {
		t.Fatal("Cancel after firing returned true")
	}
}

func TestRunHorizon(t *testing.T) {
	e := NewEnv(1)
	fired := false
	e.Schedule(10*time.Second, func() { fired = true })
	end := e.Run(5 * time.Second)
	if end != 5*time.Second {
		t.Fatalf("end = %v, want 5s", end)
	}
	if fired {
		t.Fatal("event beyond horizon fired")
	}
	// Continuing the run past the horizon fires it.
	end = e.Run(10 * time.Second)
	if !fired {
		t.Fatal("event did not fire on resumed run")
	}
	if end != 15*time.Second {
		t.Fatalf("end = %v, want 15s (5s + 10s horizon)", end)
	}
}

func TestRunHorizonAdvancesIdleClock(t *testing.T) {
	e := NewEnv(1)
	end := e.Run(7 * time.Second)
	if end != 7*time.Second {
		t.Fatalf("idle run end = %v, want 7s", end)
	}
}

func TestStop(t *testing.T) {
	e := NewEnv(1)
	count := 0
	for i := 0; i < 5; i++ {
		e.Schedule(time.Duration(i)*time.Second, func() {
			count++
			if count == 2 {
				e.Stop()
			}
		})
	}
	e.Run(0)
	if count != 2 {
		t.Fatalf("count = %d, want 2 (stopped mid-run)", count)
	}
	if !e.Stopped() {
		t.Fatal("Stopped() = false after Stop")
	}
}

func TestPending(t *testing.T) {
	e := NewEnv(1)
	ev1 := e.Schedule(time.Second, func() {})
	e.Schedule(2*time.Second, func() {})
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending = %d, want 2", got)
	}
	ev1.Cancel()
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after cancel = %d, want 1", got)
	}

	// Entries due now wait in the run queue, where a canceled one is only
	// marked: Pending must not count it, nor Run execute it.
	fired := 0
	now1 := e.Schedule(0, func() { fired++ })
	e.Schedule(0, func() { fired++ })
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending with two entries due now = %d, want 3", got)
	}
	if !now1.Cancel() || now1.Cancel() {
		t.Fatal("Cancel of a run-queue entry: want true once, then false")
	}
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after canceling a run-queue entry = %d, want 2", got)
	}
	e.Run(time.Millisecond)
	if fired != 1 || e.EventsExecuted() != 1 {
		t.Fatalf("fired %d, EventsExecuted %d, want 1 and 1", fired, e.EventsExecuted())
	}
	if got := e.Pending(); got != 1 {
		t.Fatalf("Pending after the instant = %d, want 1", got)
	}

	// The events embedded in processes and tickers count like any other.
	p := e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Hour) })
	tk := e.Tick(time.Minute, func() {})
	e.Run(time.Millisecond)
	if got := e.Pending(); got != 3 {
		t.Fatalf("Pending with a sleeper and a ticker = %d, want 3", got)
	}
	tk.Stop()
	p.Kill() // cancels the sleep timer, queues the unwind
	if got := e.Pending(); got != 2 {
		t.Fatalf("Pending after Stop and Kill = %d, want 2 (the 2 s event and the unwind)", got)
	}
}

// TestCancelLeavesNoDeadEntries re-arms one timer 10,000 times among a
// few live events, the way a retransmit timer is re-armed per ACK: a
// canceled event must leave the queue at once, not linger until its time
// comes, and removing from the middle of the heap must not disturb the
// (time, schedule order) firing order of what remains.
func TestCancelLeavesNoDeadEntries(t *testing.T) {
	e := NewEnv(1)
	var fired []int
	for i := 0; i < 8; i++ {
		e.Schedule(time.Duration(8-i/2)*time.Second, func() { fired = append(fired, i) })
	}
	var timer *Event
	for i := 0; i < 10000; i++ {
		timer.Cancel() // nil-safe on the first cycle
		timer = e.Schedule(time.Duration(1+i%13)*time.Second, func() { fired = append(fired, -1) })
		if got := len(e.events); got != 9 {
			t.Fatalf("cycle %d: heap holds %d entries, want 9 (8 live + the armed timer)", i, got)
		}
	}
	timer.Cancel()
	if got := len(e.events); got != 8 {
		t.Fatalf("heap holds %d entries after the last cancel, want 8", got)
	}

	// The same for the embedded events: a ticker stopped and a sleeper
	// killed 10,000 times over leave nothing behind in the heap, and
	// their canceled run-queue entries are gone once the instant is over.
	for i := 0; i < 10000; i++ {
		tk := e.Tick(time.Duration(1+i%13)*time.Second, func() { fired = append(fired, -2) })
		p := e.Spawn("sleeper", func(p *Proc) { p.Sleep(time.Duration(1+i%7) * time.Second) })
		dud := e.Schedule(0, func() { fired = append(fired, -3) })
		dud.Cancel()
		e.Run(time.Nanosecond) // the sleeper starts and goes to sleep
		if got := len(e.events); got != 10 {
			t.Fatalf("cycle %d: heap holds %d entries, want 10 (8 live, ticker, sleep timer)", i, got)
		}
		tk.Stop()
		p.Kill()
		e.Run(time.Nanosecond) // the sleeper unwinds
		if h, r := len(e.events), len(e.runq); h != 8 || r != 0 {
			t.Fatalf("cycle %d: heap holds %d entries and the run queue %d, want 8 and 0", i, h, r)
		}
	}
	e.Run(0)
	want := []int{6, 7, 4, 5, 2, 3, 0, 1} // by time, ties in schedule order
	if !slices.Equal(fired, want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
}

func TestDeterministicRand(t *testing.T) {
	a := NewEnv(42).Rand()
	b := NewEnv(42).Rand()
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed produced different sequences")
		}
	}
}

// Events before or at the target run; events after it do not.
func TestRunUntil(t *testing.T) {
	e := NewEnv(1)
	var fired []string
	e.Schedule(10*time.Millisecond, func() { fired = append(fired, "a") })
	e.Schedule(30*time.Millisecond, func() { fired = append(fired, "b") })

	if got := e.RunUntil(20 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("RunUntil reached %v, want 20ms", got)
	}
	if len(fired) != 1 || fired[0] != "a" {
		t.Fatalf("fired = %v, want [a]", fired)
	}
	// Idempotent at or before the current clock.
	if got := e.RunUntil(5 * time.Millisecond); got != 20*time.Millisecond {
		t.Fatalf("backwards RunUntil moved the clock to %v", got)
	}
	e.RunUntil(40 * time.Millisecond)
	if len(fired) != 2 || fired[1] != "b" {
		t.Fatalf("fired = %v, want [a b]", fired)
	}
}
