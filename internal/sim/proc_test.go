package sim

import (
	"runtime"
	"strings"
	"testing"
	"time"
)

func TestSpawnRunsBody(t *testing.T) {
	e := NewEnv(1)
	ran := false
	e.Spawn("worker", func(p *Proc) { ran = true })
	e.Run(0)
	if !ran {
		t.Fatal("spawned body did not run")
	}
}

func TestSleepAdvancesClock(t *testing.T) {
	e := NewEnv(1)
	var woke Time
	e.Spawn("sleeper", func(p *Proc) {
		p.Sleep(3 * time.Second)
		woke = e.Now()
	})
	e.Run(0)
	if woke != 3*time.Second {
		t.Fatalf("woke at %v, want 3s", woke)
	}
}

func TestSleepInterleaving(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		p.Sleep(2 * time.Second)
		order = append(order, "a")
	})
	e.Spawn("b", func(p *Proc) {
		p.Sleep(1 * time.Second)
		order = append(order, "b")
	})
	e.Run(0)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestParkWake(t *testing.T) {
	e := NewEnv(1)
	var got any
	p := e.Spawn("waiter", func(p *Proc) {
		got = p.Park()
	})
	e.Spawn("waker", func(q *Proc) {
		q.Sleep(time.Second)
		p.Wake("hello")
	})
	e.Run(0)
	if got != "hello" {
		t.Fatalf("Park returned %v, want hello", got)
	}
	if p.State() != StateDead {
		t.Fatalf("waiter state = %v, want dead", p.State())
	}
}

func TestKillParkedProcessRunsDefers(t *testing.T) {
	e := NewEnv(1)
	cleaned := false
	p := e.Spawn("victim", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Park()
		t.Error("Park returned after kill")
	})
	e.Spawn("killer", func(q *Proc) {
		q.Sleep(time.Second)
		p.Kill()
	})
	e.Run(0)
	if !cleaned {
		t.Fatal("deferred cleanup did not run on kill")
	}
	if p.ExitStatus() != -1 {
		t.Fatalf("ExitStatus = %d, want -1", p.ExitStatus())
	}
}

func TestKillSleepingProcess(t *testing.T) {
	e := NewEnv(1)
	var after bool
	p := e.Spawn("victim", func(p *Proc) {
		p.Sleep(time.Hour)
		after = true
	})
	e.Spawn("killer", func(q *Proc) {
		q.Sleep(time.Second)
		p.Kill()
	})
	end := e.Run(0)
	if after {
		t.Fatal("sleep returned after kill")
	}
	if end >= time.Hour {
		t.Fatalf("run lasted %v; kill should have canceled the sleep timer", end)
	}
}

func TestKillBeforeStart(t *testing.T) {
	e := NewEnv(1)
	ran := false
	p := e.Spawn("victim", func(p *Proc) { ran = true })
	p.Kill() // before the start event fires
	e.Run(0)
	if ran {
		t.Fatal("killed-before-start process ran")
	}
	if p.State() != StateDead {
		t.Fatalf("state = %v, want dead", p.State())
	}
}

func TestKillRaceWithWake(t *testing.T) {
	// Wake the process, then kill it in the same timestamp before the wake
	// event delivers: the process must unwind, not resume.
	e := NewEnv(1)
	resumed := false
	p := e.Spawn("victim", func(p *Proc) {
		p.Park()
		resumed = true
	})
	e.Spawn("driver", func(q *Proc) {
		q.Sleep(time.Second)
		p.Wake(nil)
		p.Kill()
	})
	e.Run(0)
	if resumed {
		t.Fatal("process resumed after same-instant wake+kill")
	}
}

func TestExitStatus(t *testing.T) {
	e := NewEnv(1)
	p := e.Spawn("exiter", func(p *Proc) {
		p.Exit(42)
	})
	e.Run(0)
	if p.ExitStatus() != 42 {
		t.Fatalf("ExitStatus = %d, want 42", p.ExitStatus())
	}
}

func TestExitRunsDefers(t *testing.T) {
	e := NewEnv(1)
	cleaned := false
	e.Spawn("exiter", func(p *Proc) {
		defer func() { cleaned = true }()
		p.Exit(0)
	})
	e.Run(0)
	if !cleaned {
		t.Fatal("defers skipped on Exit")
	}
}

func TestSelfKill(t *testing.T) {
	e := NewEnv(1)
	var after bool
	p := e.Spawn("suicider", func(p *Proc) {
		p.Kill()
		after = true
	})
	e.Run(0)
	if after {
		t.Fatal("execution continued after self-kill")
	}
	if p.ExitStatus() != -1 {
		t.Fatalf("ExitStatus = %d, want -1", p.ExitStatus())
	}
}

func TestOnExitHooks(t *testing.T) {
	e := NewEnv(1)
	var statuses []int
	p := e.Spawn("child", func(p *Proc) { p.Exit(7) })
	p.OnExit(func(s int) { statuses = append(statuses, s) })
	p.OnExit(func(s int) { statuses = append(statuses, s*10) })
	e.Run(0)
	if len(statuses) != 2 || statuses[0] != 7 || statuses[1] != 70 {
		t.Fatalf("hook statuses = %v, want [7 70]", statuses)
	}
}

func TestOnExitHookForKilled(t *testing.T) {
	e := NewEnv(1)
	status := 99
	p := e.Spawn("victim", func(p *Proc) { p.Park() })
	p.OnExit(func(s int) { status = s })
	e.Spawn("killer", func(q *Proc) { p.Kill() })
	e.Run(0)
	if status != -1 {
		t.Fatalf("hook status = %d, want -1", status)
	}
}

func TestYieldAllowsInterleaving(t *testing.T) {
	e := NewEnv(1)
	var order []string
	e.Spawn("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	e.Spawn("b", func(p *Proc) {
		order = append(order, "b1")
	})
	e.Run(0)
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if i >= len(order) || order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestProcIdentity(t *testing.T) {
	e := NewEnv(1)
	a := e.Spawn("a", func(p *Proc) {})
	b := e.Spawn("b", func(p *Proc) {})
	if a.PID() == b.PID() {
		t.Fatal("PIDs not unique")
	}
	if a.Name() != "a" || b.Name() != "b" {
		t.Fatalf("names = %q, %q", a.Name(), b.Name())
	}
}

func TestDoubleKillIsNoop(t *testing.T) {
	e := NewEnv(1)
	p := e.Spawn("victim", func(p *Proc) { p.Park() })
	e.Spawn("killer", func(q *Proc) {
		p.Kill()
		p.Kill()
	})
	e.Run(0)
	if p.State() != StateDead {
		t.Fatalf("state = %v, want dead", p.State())
	}
}

func TestManyProcessesDeterministic(t *testing.T) {
	run := func() []int {
		e := NewEnv(7)
		var order []int
		for i := 0; i < 50; i++ {
			i := i
			e.Spawn("p", func(p *Proc) {
				d := time.Duration(e.Rand().Intn(1000)) * time.Millisecond
				p.Sleep(d)
				order = append(order, i)
			})
		}
		e.Run(0)
		return order
	}
	a, b := run(), run()
	if len(a) != 50 || len(b) != 50 {
		t.Fatalf("lengths = %d, %d, want 50", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("two identical runs diverged")
		}
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEnv(1)
	var childRan bool
	e.Spawn("parent", func(p *Proc) {
		e.Spawn("child", func(c *Proc) { childRan = true })
		p.Sleep(time.Second)
	})
	e.Run(0)
	if !childRan {
		t.Fatal("child spawned from process did not run")
	}
}

// TestKillInEveryState takes a process into each state a kill can find it
// in and ends it both ways, by Kill and by Env.Close. Either way the
// deferred calls of a started process run, nothing after the park point
// does, and the exit hooks fire exactly once, with -1.
func TestKillInEveryState(t *testing.T) {
	states := []struct {
		name    string
		started bool
		arrange func(e *Env, p *Proc) // from outside, after the body's first park
		viaKill func(e *Env, p *Proc) // nil: Kill once, from outside
	}{
		{name: "before start", arrange: nil},
		{name: "parked", started: true, arrange: func(e *Env, p *Proc) {}},
		{name: "sleeping", started: true, arrange: func(e *Env, p *Proc) {
			p.Wake("sleep")
			e.Run(time.Second)
		}},
		{name: "runnable, wake in flight", started: true, arrange: func(e *Env, p *Proc) { p.Wake(nil) }},
		{name: "self", started: true, arrange: func(e *Env, p *Proc) {},
			viaKill: func(e *Env, p *Proc) { p.Wake("self") }},
		{name: "twice", started: true, arrange: func(e *Env, p *Proc) {},
			viaKill: func(e *Env, p *Proc) { p.Kill(); p.Kill() }},
	}
	for _, st := range states {
		for _, how := range []string{"Kill", "Close"} {
			if st.name == "self" && how == "Close" {
				continue // Close is for whoever owns the Env, not for its processes
			}
			t.Run(st.name+"/"+how, func(t *testing.T) {
				e := NewEnv(1)
				var deferred, after bool
				var hooks []int
				p := e.Spawn("victim", func(p *Proc) {
					defer func() { deferred = true }()
					switch p.Park() {
					case "sleep":
						p.Sleep(time.Hour)
					case "self":
						p.Kill()
					}
					after = true
				})
				p.OnExit(func(status int) { hooks = append(hooks, status) })
				if st.arrange != nil {
					e.Run(0)
					st.arrange(e, p)
				}
				if how == "Kill" {
					if st.viaKill != nil {
						st.viaKill(e, p)
					} else {
						p.Kill()
					}
					if end := e.Run(0); end >= time.Hour {
						t.Fatalf("run lasted %v: the sleep timer survived the kill", end)
					}
				}
				e.Close() // after a Kill there is nothing left for it to do
				e.Close()
				if deferred != st.started || after {
					t.Fatalf("deferred = %v (want %v), ran past the park point = %v", deferred, st.started, after)
				}
				if len(hooks) != 1 || hooks[0] != -1 || p.ExitStatus() != -1 {
					t.Fatalf("exit hooks saw %v, ExitStatus = %d; want one call with -1", hooks, p.ExitStatus())
				}
				if p.State() != StateDead || e.Pending() != 0 {
					t.Fatalf("state = %v, %d events pending", p.State(), e.Pending())
				}
			})
		}
	}
}

// TestProcessPanicReachesCaller: a panic that is not one of the unwind
// sentinels is not swallowed with them. It surfaces, with the process
// named, from Run — or from Close, when it is a deferred call that panics
// during the teardown.
func TestProcessPanicReachesCaller(t *testing.T) {
	caught := func(fn func()) (msg string) {
		defer func() { msg, _ = recover().(string) }()
		fn()
		return ""
	}
	body := func(p *Proc) {
		defer func() { panic("boom") }()
		p.Park()
	}
	for _, how := range []string{"Kill", "Close"} {
		e := NewEnv(1)
		p := e.Spawn("faulty", body)
		status := 0
		p.OnExit(func(s int) { status = s })
		e.Run(0)
		msg := caught(func() {
			if how == "Kill" {
				p.Kill()
				e.Run(0)
			} else {
				e.Close()
			}
		})
		if !strings.Contains(msg, `"faulty"`) || !strings.Contains(msg, "boom") {
			t.Fatalf("%s: caller saw %q, want the process name and the panic value", how, msg)
		}
		e.Close()
		if status != -1 {
			t.Fatalf("%s: exit hook saw %d, want -1", how, status)
		}
	}
}

// TestCloseLeavesNoGoroutines: every parked process is a coroutine, and a
// coroutine is a goroutine; Close must leave none behind. (Without it the
// count below ends 1,000 higher than it started.)
func TestCloseLeavesNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 100; i++ {
		e := NewEnv(int64(i))
		unwound := 0
		for j := 0; j < 10; j++ {
			e.Spawn("parked", func(p *Proc) {
				defer func() { unwound++ }()
				p.Park()
			})
		}
		e.Run(0)
		e.Close()
		if unwound != 10 {
			t.Fatalf("env %d: %d of 10 processes unwound", i, unwound)
		}
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("%d goroutines before, %d after 100 closed environments", before, after)
	}
}
