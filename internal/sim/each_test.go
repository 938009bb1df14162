package sim

import (
	"fmt"
	"sync/atomic"
	"testing"
	"time"
)

// eachTrace runs N self-rescheduling environments to a shared horizon in
// slices, one Each per slice, and returns a deterministic transcript of
// what each saw.
func eachTrace(workers int) string {
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
		// from a different goroutine at every call.
		envs[i].Spawn("sleeper", func(p *Proc) {
			for {
				p.Sleep(period * 3 / 2)
				logs[i] += fmt.Sprintf("%d woke@%v;", i, p.Env().Now())
			}
		})
		defer envs[i].Close()
	}
	for bar := 5 * time.Millisecond; bar <= 25*time.Millisecond; bar += 5 * time.Millisecond {
		Each(workers, n, func(i int) { envs[i].RunUntil(bar) })
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

// Environments advanced through Each yield byte-identical transcripts for
// any worker count — the determinism contract the fleet simulator and the
// campaign runner rely on.
func TestEachWorkerIndependence(t *testing.T) {
	want := eachTrace(1)
	for _, w := range []int{0, 2, 3, 8} {
		if got := eachTrace(w); got != want {
			t.Fatalf("workers=%d transcript differs:\n%s\nwant:\n%s", w, got, want)
		}
	}
	if want == "" {
		t.Fatal("empty transcript")
	}
}

// Each calls fn exactly once per index, whatever the pool size (0 is
// GOMAXPROCS), and in index order when there is one worker.
func TestEach(t *testing.T) {
	const n = 5
	for _, workers := range []int{1, 0, 2, 8} {
		envs := make([]*Env, n)
		for i := range envs {
			envs[i] = NewEnv(int64(i + 1))
			defer envs[i].Close()
		}
		var visits [n]atomic.Int32
		var order []int // appended only under workers == 1
		Each(workers, n, func(i int) {
			visits[i].Add(1)
			if workers == 1 {
				order = append(order, i)
			}
			envs[i].RunUntil(Time(i+1) * time.Millisecond)
		})
		for i := range visits {
			if got := visits[i].Load(); got != 1 {
				t.Errorf("workers=%d: index %d visited %d times", workers, i, got)
			}
			if want := Time(i+1) * time.Millisecond; envs[i].Now() != want {
				t.Errorf("workers=%d: env %d at %v, want %v", workers, i, envs[i].Now(), want)
			}
		}
		if workers == 1 && fmt.Sprint(order) != "[0 1 2 3 4]" {
			t.Errorf("one worker visited indices in order %v", order)
		}
	}
	// Nothing to run: nothing to call, nothing to wait for.
	Each(4, 0, func(int) { t.Error("fn called for n = 0") })
}
