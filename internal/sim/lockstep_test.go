package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// A member's events before the barrier run; events after it do not.
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

// lockstepTrace runs N self-rescheduling environments to a shared horizon
// in slices and returns a deterministic transcript of what each saw.
func lockstepTrace(workers int) string {
	const n = 4
	envs := make([]*Env, n)
	logs := make([]string, n)
	for i := 0; i < n; i++ {
		i := i
		envs[i] = NewEnv(int64(100 + i))
		period := time.Duration(i+1) * time.Millisecond
		envs[i].Tick(period, func() {
			logs[i] += fmt.Sprintf("%d@%v r=%d;", i, envs[i].Now(), envs[i].Rand().Intn(1000))
		})
		// A process too: with several workers its coroutine is resumed
		// from a different goroutine at every barrier.
		envs[i].Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(period * 3 / 2)
				logs[i] += fmt.Sprintf("%d woke@%v;", i, p.Env().Now())
			}
		})
		defer envs[i].Close()
	}
	ls := NewLockstep(workers, envs...)
	for bar := 5 * time.Millisecond; bar <= 25*time.Millisecond; bar += 5 * time.Millisecond {
		ls.AdvanceTo(bar)
		for i, e := range envs {
			if e.Now() != bar {
				logs[i] += fmt.Sprintf("CLOCK-SKEW %v != %v;", e.Now(), bar)
			}
		}
	}
	out := ""
	for i := 0; i < n; i++ {
		out += logs[i] + "\n"
	}
	return out
}

// The lockstep barrier yields byte-identical member transcripts for any
// worker count — the determinism contract the fleet simulator relies on.
func TestLockstepWorkerIndependence(t *testing.T) {
	want := lockstepTrace(1)
	for _, w := range []int{2, 3, 8} {
		if got := lockstepTrace(w); got != want {
			t.Fatalf("workers=%d transcript differs:\n%s\nwant:\n%s", w, got, want)
		}
	}
	if want == "" {
		t.Fatal("empty transcript")
	}
}

// Each hands every member to fn exactly once, whatever the pool size, in
// member order when there is one worker, and the perf hooks bracket the
// whole call once — not once per member or per worker.
func TestLockstepEach(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 2, 8} {
		envs := make([]*Env, n)
		for i := range envs {
			envs[i] = NewEnv(int64(i + 1))
			defer envs[i].Close()
		}
		ls := NewLockstep(workers, envs...)
		begins, ends := 0, 0
		ls.SetPerfHooks(func() { begins++ }, func() { ends++ })

		var visits [n]atomic.Int32
		var order []int // appended only under workers == 1
		ls.Each(func(i int, e *Env) {
			if e != envs[i] {
				t.Errorf("workers=%d: index %d came with another member's env", workers, i)
			}
			visits[i].Add(1)
			if workers == 1 {
				order = append(order, i)
			}
			e.RunUntil(Time(i+1) * time.Millisecond)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("workers=%d: member %d visited %d times", workers, i, got)
			}
			if want := Time(i+1) * time.Millisecond; envs[i].Now() != want {
				t.Errorf("workers=%d: member %d at %v, want %v", workers, i, envs[i].Now(), want)
			}
		}
		if workers == 1 && fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Errorf("one worker visited members in order %v", order)
		}
		if begins != 1 || ends != 1 {
			t.Errorf("workers=%d: perf hooks fired %d/%d times around one call", workers, begins, ends)
		}
	}
	// No members: nothing to call, nothing to wait for.
	NewLockstep(4).Each(func(int, *Env) { t.Error("fn called for an empty lockstep") })
}
