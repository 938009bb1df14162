package kernel

import (
	"errors"
	"fmt"
	"reflect"
	"slices"
	"testing"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

// trusted returns privileges with everything a test server needs.
func trusted() Privileges {
	return Privileges{
		AllowAllIPC: true,
		Calls: []Call{
			CallSafeCopy, CallDevIO, CallIRQCtl, CallAlarm,
			CallKill, CallSpawn, CallPrivCtl,
		},
	}
}

func newKernel(t *testing.T) (*sim.Env, *Kernel) {
	t.Helper()
	env := sim.NewEnv(1)
	return env, New(env)
}

func TestSendReceiveRendezvous(t *testing.T) {
	env, k := newKernel(t)
	var got Message
	rc, err := k.Spawn("receiver", trusted(), func(c *Ctx) {
		m, err := c.Receive(Any)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		got = m
	})
	if err != nil {
		t.Fatal(err)
	}
	k.Spawn("sender", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		if err := c.Send(rc.Endpoint(), Message{Type: 7, Arg1: 42}); err != nil {
			t.Errorf("send: %v", err)
		}
	})
	env.Run(0)
	if got.Type != 7 || got.Arg1 != 42 {
		t.Fatalf("got %+v", got)
	}
	if got.Source == None || got.Source == Any {
		t.Fatalf("source not filled in: %v", got.Source)
	}
}

func TestSendBlocksUntilReceive(t *testing.T) {
	env, k := newKernel(t)
	var sendDone sim.Time
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		c.Sleep(5 * time.Second)
		if _, err := c.Receive(Any); err != nil {
			t.Errorf("receive: %v", err)
		}
	})
	k.Spawn("sender", trusted(), func(c *Ctx) {
		if err := c.Send(rc.Endpoint(), Message{Type: 1}); err != nil {
			t.Errorf("send: %v", err)
		}
		sendDone = c.Now()
	})
	env.Run(0)
	if sendDone != 5*time.Second {
		t.Fatalf("send completed at %v, want 5s (rendezvous)", sendDone)
	}
}

func TestSendRecRoundtrip(t *testing.T) {
	env, k := newKernel(t)
	srv, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		for i := 0; i < 3; i++ {
			m, err := c.Receive(Any)
			if err != nil {
				t.Errorf("receive: %v", err)
				return
			}
			if err := c.Send(m.Source, Message{Type: m.Type, Arg1: m.Arg1 * 2}); err != nil {
				t.Errorf("reply: %v", err)
			}
		}
	})
	var replies []int64
	k.Spawn("client", trusted(), func(c *Ctx) {
		for i := int64(1); i <= 3; i++ {
			r, err := c.SendRec(srv.Endpoint(), Message{Type: 5, Arg1: i})
			if err != nil {
				t.Errorf("sendrec: %v", err)
				return
			}
			replies = append(replies, r.Arg1)
		}
	})
	env.Run(0)
	if len(replies) != 3 || replies[0] != 2 || replies[1] != 4 || replies[2] != 6 {
		t.Fatalf("replies = %v", replies)
	}
}

func TestSendToDeadEndpoint(t *testing.T) {
	env, k := newKernel(t)
	victim, _ := k.Spawn("victim", trusted(), func(c *Ctx) { c.Exit(0) })
	var got error
	k.Spawn("sender", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		got = c.Send(victim.Endpoint(), Message{Type: 1})
	})
	env.Run(0)
	if !errors.Is(got, ErrDeadDst) {
		t.Fatalf("err = %v, want ErrDeadDst", got)
	}
}

func TestStaleEndpointAfterRestart(t *testing.T) {
	// A new instance on the same slot must not receive messages addressed
	// to the previous generation.
	env, k := newKernel(t)
	first, _ := k.Spawn("drv", trusted(), func(c *Ctx) { c.Exit(0) })
	oldEp := first.Endpoint()
	var newEp Endpoint
	var sendErr error
	k.Spawn("rs", trusted(), func(c *Ctx) {
		c.Sleep(time.Second) // let the first instance die
		ep, err := c.Spawn("drv", trusted(), func(c *Ctx) {
			c.Receive(Any) // should never get the stale message
			t.Error("new instance received a message for the old one")
		})
		if err != nil {
			t.Errorf("respawn: %v", err)
			return
		}
		newEp = ep
		sendErr = c.Send(oldEp, Message{Type: 9})
	})
	env.Run(0)
	if !errors.Is(sendErr, ErrDeadDst) {
		t.Fatalf("send to stale endpoint: %v, want ErrDeadDst", sendErr)
	}
	if newEp == oldEp {
		t.Fatal("restart reused the same endpoint value")
	}
	if newEp.slot() != oldEp.slot() {
		t.Fatalf("restart did not reuse slot: old %v new %v", oldEp, newEp)
	}
}

func TestBlockedSenderAbortedOnReceiverDeath(t *testing.T) {
	env, k := newKernel(t)
	victim, _ := k.Spawn("victim", trusted(), func(c *Ctx) {
		c.Sleep(time.Hour) // never receives
	})
	var got error
	var when sim.Time
	k.Spawn("sender", trusted(), func(c *Ctx) {
		got = c.Send(victim.Endpoint(), Message{Type: 1})
		when = c.Now()
	})
	k.Spawn("killer", trusted(), func(c *Ctx) {
		c.Sleep(2 * time.Second)
		if err := c.Kill(victim.Endpoint(), SIGKILL); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	env.Run(0)
	if !errors.Is(got, ErrDeadDst) {
		t.Fatalf("send err = %v, want ErrDeadDst", got)
	}
	if when != 2*time.Second {
		t.Fatalf("send aborted at %v, want 2s", when)
	}
}

func TestReceiverAbortedWhenAwaitedSourceDies(t *testing.T) {
	// The paper's §6.2 condition: FS blocked on a reply from the disk
	// driver when the driver dies; the rendezvous is aborted by the kernel.
	env, k := newKernel(t)
	drv, _ := k.Spawn("drv", trusted(), func(c *Ctx) {
		// Accept the request, then crash before replying.
		if _, err := c.Receive(Any); err != nil {
			t.Errorf("drv receive: %v", err)
		}
		c.Sleep(time.Second)
		c.Exit(2) // panic
	})
	var got error
	k.Spawn("fs", trusted(), func(c *Ctx) {
		_, got = c.SendRec(drv.Endpoint(), Message{Type: 3})
	})
	env.Run(0)
	if !errors.Is(got, ErrSrcDied) {
		t.Fatalf("sendrec err = %v, want ErrSrcDied", got)
	}
}

func TestReceiveAnySurvivesUnrelatedDeath(t *testing.T) {
	env, k := newKernel(t)
	k.Spawn("dier", trusted(), func(c *Ctx) { c.Exit(0) })
	var got Message
	rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		m, err := c.Receive(Any)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		got = m
	})
	k.Spawn("lateSender", trusted(), func(c *Ctx) {
		c.Sleep(10 * time.Second)
		c.Send(rc.Endpoint(), Message{Type: 4})
	})
	env.Run(0)
	if got.Type != 4 {
		t.Fatalf("got %+v, want type 4", got)
	}
}

// TestNotifyDelivery: only the kernel's pseudo-sources notify. Posted at
// a busy receiver in the reverse of their priority — a System
// notification (a catchable signal), a Clock alarm, then Hardware lines 3
// and 2, each raised twice — behind an async message PostAsync queued
// first, they are served Hardware, then Clock, then System, and the async
// message last. The four interrupts merge into one notification carrying
// both line bits, and a receive from one pseudo-source takes its
// notification and leaves the other two pending. Afterwards nothing is:
// the next message is a fresh alarm.
func TestNotifyDelivery(t *testing.T) {
	type delivery struct {
		src Endpoint
		typ int32
		arg int64
	}
	irq := delivery{Hardware, MsgNotify, 1<<2 | 1<<3}
	alarm := delivery{Clock, MsgNotify, 0}
	signal := delivery{System, MsgNotify, 0}
	async := delivery{System, 7, 0}
	for _, tc := range []struct {
		name string
		from []Endpoint // the source of each Receive
		want []delivery
	}{
		{"Any", []Endpoint{Any, Any, Any, Any}, []delivery{irq, alarm, signal, async}},
		{"Hardware", []Endpoint{Hardware, Any, Any, Any}, []delivery{irq, alarm, signal, async}},
		{"Clock", []Endpoint{Clock, Any, Any, Any}, []delivery{alarm, irq, signal, async}},
		{"System", []Endpoint{System, Any, Any, Any}, []delivery{signal, irq, alarm, async}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			env, k := newKernel(t)
			var got []delivery
			var last Message
			var lastAt sim.Time
			priv := trusted()
			priv.IRQs = []int{2, 3}
			rc, _ := k.Spawn("busy", priv, func(c *Ctx) {
				c.IRQSubscribe(2)
				c.IRQSubscribe(3)
				c.SetAlarm(2 * time.Second)
				c.Sleep(5 * time.Second) // everything arrives while busy
				for _, from := range tc.from {
					m, err := c.Receive(from)
					if err != nil {
						t.Errorf("Receive(%v): %v", from, err)
					}
					got = append(got, delivery{m.Source, m.Type, m.Arg1})
				}
				c.SetAlarm(time.Second)
				last, _ = c.Receive(Any)
				lastAt = c.Now()
			})
			k.Spawn("signaller", trusted(), func(c *Ctx) {
				c.Sleep(time.Second)
				c.Kill(rc.Endpoint(), SIGTERM)
			})
			env.Schedule(500*time.Millisecond, func() { k.PostAsync(rc.Endpoint(), Message{Type: 7}) })
			env.Schedule(3*time.Second, func() { k.RaiseIRQ(3); k.RaiseIRQ(2) })
			env.Schedule(4*time.Second, func() { k.RaiseIRQ(3); k.RaiseIRQ(2) })
			env.Run(10 * time.Second)
			if !slices.Equal(got, tc.want) {
				t.Fatalf("received %+v, want %+v", got, tc.want)
			}
			if last.Source != Clock || lastAt != 6*time.Second {
				t.Fatalf("then %+v at %v, want the next alarm at 6s: a notification stayed pending", last, lastAt)
			}
		})
	}
}

// TestNotifyMergesDuplicates: an interrupt line raised five times and a
// catchable signal sent five times while the receiver is busy leave one
// Hardware and one System notification, not ten.
func TestNotifyMergesDuplicates(t *testing.T) {
	env, k := newKernel(t)
	count := map[Endpoint]int{}
	priv := trusted()
	priv.IRQs = []int{2}
	rc, _ := k.Spawn("receiver", priv, func(c *Ctx) {
		c.IRQSubscribe(2)
		c.Sleep(2 * time.Second)
		for {
			c.SetAlarm(time.Second)
			m, err := c.Receive(Any)
			if err != nil {
				return
			}
			if m.Source == Clock {
				return // idle for a second: done
			}
			count[m.Source]++
		}
	})
	k.Spawn("signaller", trusted(), func(c *Ctx) {
		for i := 0; i < 5; i++ {
			c.Kill(rc.Endpoint(), SIGTERM)
		}
	})
	env.Schedule(time.Second, func() {
		for i := 0; i < 5; i++ {
			k.RaiseIRQ(2)
		}
	})
	env.Run(0)
	if count[Hardware] != 1 || count[System] != 1 || len(count) != 2 {
		t.Fatalf("notification counts = %v, want one each from Hardware and System (merged)", count)
	}
}

func TestAsyncSendQueued(t *testing.T) {
	env, k := newKernel(t)
	var got []int64
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		for i := 0; i < 3; i++ {
			m, err := c.Receive(Any)
			if err != nil {
				t.Errorf("receive: %v", err)
			}
			got = append(got, m.Arg1)
		}
	})
	k.Spawn("sender", trusted(), func(c *Ctx) {
		for i := int64(1); i <= 3; i++ {
			if err := c.AsyncSend(rc.Endpoint(), Message{Type: 2, Arg1: i}); err != nil {
				t.Errorf("asyncsend: %v", err)
			}
		}
	})
	env.Run(0)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestReceiveSpecificLeavesOthersQueued(t *testing.T) {
	env, k := newKernel(t)
	var order []string
	var aEp, bEp Endpoint
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		c.Sleep(2 * time.Second)
		m, err := c.Receive(bEp)
		if err != nil {
			t.Errorf("receive b: %v", err)
		}
		order = append(order, m.Name)
		m, err = c.Receive(aEp)
		if err != nil {
			t.Errorf("receive a: %v", err)
		}
		order = append(order, m.Name)
	})
	ac, _ := k.Spawn("a", trusted(), func(c *Ctx) {
		c.Send(rc.Endpoint(), Message{Type: 1, Name: "a"})
	})
	bc, _ := k.Spawn("b", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		c.Send(rc.Endpoint(), Message{Type: 1, Name: "b"})
	})
	aEp, bEp = ac.Endpoint(), bc.Endpoint()
	env.Run(0)
	if len(order) != 2 || order[0] != "b" || order[1] != "a" {
		t.Fatalf("order = %v, want [b a]", order)
	}
}

func TestIPCPrivilegeEnforced(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("fs", trusted(), func(c *Ctx) {
		c.Sleep(time.Hour)
	})
	var sendErr error
	restricted := Privileges{IPCTo: []string{"ds"}} // may not talk to fs
	k.Spawn("drv", restricted, func(c *Ctx) {
		sendErr = c.Send(rc.Endpoint(), Message{Type: 1})
	})
	env.Run(time.Second)
	if !errors.Is(sendErr, ErrNotAllowed) {
		t.Fatalf("send err = %v, want ErrNotAllowed", sendErr)
	}
}

func TestKernelCallPrivilegeEnforced(t *testing.T) {
	env, k := newKernel(t)
	other, _ := k.Spawn("other", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	var killErr, spawnErr error
	k.Spawn("drv", Privileges{AllowAllIPC: true}, func(c *Ctx) {
		killErr = c.Kill(other.Endpoint(), SIGKILL)
		_, spawnErr = c.Spawn("evil", trusted(), func(*Ctx) {})
	})
	env.Run(time.Second)
	if !errors.Is(killErr, ErrNotAllowed) {
		t.Fatalf("kill err = %v, want ErrNotAllowed", killErr)
	}
	if !errors.Is(spawnErr, ErrNotAllowed) {
		t.Fatalf("spawn err = %v, want ErrNotAllowed", spawnErr)
	}
	if !other.p.Alive() {
		t.Fatal("unprivileged kill succeeded")
	}
}

func TestSignalDeliveryCatchable(t *testing.T) {
	env, k := newKernel(t)
	var got []Signal
	rc, _ := k.Spawn("drv", trusted(), func(c *Ctx) {
		m, err := c.Receive(Any)
		if err != nil {
			t.Errorf("receive: %v", err)
			return
		}
		if m.Source == System {
			got = c.SigPending()
		}
	})
	k.Spawn("pm", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		if err := c.Kill(rc.Endpoint(), SIGTERM); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	env.Run(0)
	if len(got) != 1 || got[0] != SIGTERM {
		t.Fatalf("signals = %v, want [SIGTERM]", got)
	}
}

func TestSIGKILLTerminates(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("drv", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	k.Spawn("pm", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		c.Kill(rc.Endpoint(), SIGKILL)
	})
	env.Run(10 * time.Second)
	cause, ok := k.CauseOf(rc.Endpoint())
	if !ok {
		t.Fatal("no cause recorded")
	}
	if cause.Kind != CauseSignal || cause.Signal != SIGKILL {
		t.Fatalf("cause = %v, want killed(SIGKILL)", cause)
	}
}

func TestTrapRecordsException(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("drv", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		c.Trap(ExcMMU)
		t.Error("survived trap")
	})
	env.Run(0)
	cause, ok := k.CauseOf(rc.Endpoint())
	if !ok {
		t.Fatal("no cause recorded")
	}
	if cause.Kind != CauseException || cause.Exc != ExcMMU || cause.Signal != SIGSEGV {
		t.Fatalf("cause = %v", cause)
	}
}

func TestExitCauseRecorded(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("drv", trusted(), func(c *Ctx) { c.Exit(3) })
	env.Run(0)
	cause, ok := k.CauseOf(rc.Endpoint())
	if !ok {
		t.Fatal("no cause recorded")
	}
	if cause.Kind != CauseExit || cause.Status != 3 {
		t.Fatalf("cause = %v, want exit(3)", cause)
	}
}

func TestDeathHookFires(t *testing.T) {
	env, k := newKernel(t)
	var label string
	var cause Cause
	k.OnDeath(func(l string, ep Endpoint, c Cause) { label, cause = l, c })
	k.Spawn("drv", trusted(), func(c *Ctx) { c.Exit(2) })
	env.Run(0)
	if label != "drv" || cause.Kind != CauseExit || cause.Status != 2 {
		t.Fatalf("hook got label=%q cause=%v", label, cause)
	}
}

// The kernel traces process lifecycle itself, with no scheduler hook
// installed: Comp is the label whole, even one holding a '/', Aux the
// incarnation's name, V2 its PID, and a death's proc.exit comes before
// the proc.exception that says why.
func TestLifecycleEventsFromKernel(t *testing.T) {
	env, k := newKernel(t)
	sink := &obs.SliceSink{}
	rec := obs.NewRecorder(sink)
	rec.SetClock(env.Now)
	k.SetObs(rec)
	var want []string
	for i, body := range []func(c *Ctx){
		func(c *Ctx) { c.Trap(ExcMMU) },
		func(c *Ctx) { c.Exit(3) },
	} {
		ctx, err := k.Spawn("x/sb", trusted(), body)
		if err != nil {
			t.Fatal(err)
		}
		pid, name := ctx.e.proc.PID(), fmt.Sprintf("x/sb/%d", i+1)
		want = append(want, fmt.Sprintf("proc.spawn x/sb %s 0 %d", name, pid))
		if i == 0 {
			want = append(want, fmt.Sprintf("proc.exit x/sb %s -1 %d", name, pid),
				fmt.Sprintf("proc.exception x/sb MMU %d 0", ctx.Endpoint()))
		} else {
			want = append(want, fmt.Sprintf("proc.exit x/sb %s 3 %d", name, pid))
		}
		env.Run(0)
	}
	var got []string
	for _, e := range sink.Events() {
		got = append(got, fmt.Sprintf("%s %s %s %d %d", e.Kind, e.Comp, e.Aux, e.V1, e.V2))
	}
	if !slices.Equal(got, want) {
		t.Fatalf("trace:\n%q\nwant:\n%q", got, want)
	}
}

func TestAlarm(t *testing.T) {
	env, k := newKernel(t)
	var when sim.Time
	k.Spawn("drv", trusted(), func(c *Ctx) {
		c.SetAlarm(3 * time.Second)
		m, err := c.Receive(Clock)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		if m.Source != Clock {
			t.Errorf("source = %v", m.Source)
		}
		when = c.Now()
	})
	env.Run(0)
	if when != 3*time.Second {
		t.Fatalf("alarm fired at %v, want 3s", when)
	}
}

func TestAlarmReplacedAndCanceled(t *testing.T) {
	env, k := newKernel(t)
	fired := 0
	k.Spawn("drv", trusted(), func(c *Ctx) {
		c.SetAlarm(time.Second)
		c.SetAlarm(2 * time.Second) // replaces
		m, _ := c.Receive(Clock)
		if m.Source == Clock {
			fired++
			if c.Now() != 2*time.Second {
				t.Errorf("fired at %v, want 2s", c.Now())
			}
		}
		c.SetAlarm(time.Second)
		c.SetAlarm(0) // cancel
		c.Sleep(5 * time.Second)
	})
	env.Run(0)
	if fired != 1 {
		t.Fatalf("alarms fired = %d, want 1", fired)
	}
}

func TestGrantSafeCopy(t *testing.T) {
	env, k := newKernel(t)
	buf := []byte("hello world")
	var ownerEp Endpoint
	var gid GrantID
	owner, _ := k.Spawn("fs", trusted(), func(c *Ctx) {
		gid = c.CreateGrant(buf, GrantRead|GrantWrite, Any)
		c.Sleep(time.Hour)
	})
	ownerEp = owner.Endpoint()
	var readBack []byte
	var copyErr error
	k.Spawn("drv", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		readBack = make([]byte, 5)
		if err := c.SafeCopyFrom(ownerEp, gid, 6, readBack); err != nil {
			t.Errorf("safecopyfrom: %v", err)
		}
		copyErr = c.SafeCopyTo(ownerEp, gid, 0, []byte("HELLO"))
	})
	env.Run(2 * time.Second)
	if string(readBack) != "world" {
		t.Fatalf("read %q, want world", readBack)
	}
	if copyErr != nil {
		t.Fatalf("safecopyto: %v", copyErr)
	}
	if string(buf[:5]) != "HELLO" {
		t.Fatalf("buf = %q", buf)
	}
}

func TestGrantBoundsAndAccess(t *testing.T) {
	env, k := newKernel(t)
	buf := make([]byte, 8)
	var ownerEp Endpoint
	var gid GrantID
	owner, _ := k.Spawn("fs", trusted(), func(c *Ctx) {
		gid = c.CreateGrant(buf, GrantRead, Any)
		c.Sleep(time.Hour)
	})
	ownerEp = owner.Endpoint()
	var oob, wr error
	k.Spawn("drv", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		oob = c.SafeCopyFrom(ownerEp, gid, 4, make([]byte, 8)) // out of bounds
		wr = c.SafeCopyTo(ownerEp, gid, 0, []byte{1})          // read-only grant
	})
	env.Run(2 * time.Second)
	if !errors.Is(oob, ErrBadGrant) {
		t.Fatalf("oob err = %v, want ErrBadGrant", oob)
	}
	if !errors.Is(wr, ErrBadGrant) {
		t.Fatalf("write err = %v, want ErrBadGrant", wr)
	}
}

func TestGrantRevokedOnDeath(t *testing.T) {
	env, k := newKernel(t)
	buf := make([]byte, 8)
	var gid GrantID
	owner, _ := k.Spawn("fs", trusted(), func(c *Ctx) {
		gid = c.CreateGrant(buf, GrantRead, Any)
		c.Sleep(time.Second)
		c.Exit(0)
	})
	var got error
	k.Spawn("drv", trusted(), func(c *Ctx) {
		c.Sleep(2 * time.Second)
		got = c.SafeCopyFrom(owner.Endpoint(), gid, 0, make([]byte, 4))
	})
	env.Run(0)
	if !errors.Is(got, ErrDeadDst) {
		t.Fatalf("err = %v, want ErrDeadDst", got)
	}
}

func TestGrantGranteeRestriction(t *testing.T) {
	env, k := newKernel(t)
	buf := make([]byte, 8)
	var gid GrantID
	intended, _ := k.Spawn("intended", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	owner, _ := k.Spawn("fs", trusted(), func(c *Ctx) {
		gid = c.CreateGrant(buf, GrantRead, intended.Endpoint())
		c.Sleep(time.Hour)
	})
	var got error
	k.Spawn("imposter", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		got = c.SafeCopyFrom(owner.Endpoint(), gid, 0, make([]byte, 4))
	})
	env.Run(2 * time.Second)
	if !errors.Is(got, ErrBadGrant) {
		t.Fatalf("err = %v, want ErrBadGrant", got)
	}
}

func TestLookupLabel(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("fs", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	env.Run(time.Second)
	if got := k.LookupLabel("fs"); got != rc.Endpoint() {
		t.Fatalf("LookupLabel = %v, want %v", got, rc.Endpoint())
	}
	if got := k.LookupLabel("nope"); got != None {
		t.Fatalf("LookupLabel(nope) = %v, want None", got)
	}
}

func TestProcCount(t *testing.T) {
	env, k := newKernel(t)
	k.Spawn("a", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	k.Spawn("b", trusted(), func(c *Ctx) { c.Exit(0) })
	env.Run(time.Second)
	if n := k.ProcCount(); n != 1 {
		t.Fatalf("ProcCount = %d, want 1", n)
	}
}

// deliverVia is one way a peer hands a message to a process: the source
// the message carries is the peer's endpoint, or System for PostAsync and
// for a notification, which only the kernel's pseudo-sources post (here
// the System one a catchable signal raises).
type deliverVia struct {
	name   string
	system bool // the message carries System, not the peer's endpoint
	send   func(k *Kernel, c *Ctx, dst Endpoint)
}

var deliveries = []deliverVia{
	{"Send", false, func(_ *Kernel, c *Ctx, dst Endpoint) { c.Send(dst, Message{Type: 7}) }},
	{"AsyncSend", false, func(_ *Kernel, c *Ctx, dst Endpoint) { c.AsyncSend(dst, Message{Type: 7}) }},
	{"PostAsync", true, func(k *Kernel, _ *Ctx, dst Endpoint) { k.PostAsync(dst, Message{Type: 7}) }},
	{"Notify", true, func(_ *Kernel, c *Ctx, dst Endpoint) { c.Kill(dst, SIGTERM) }},
}

// srcOf is the source a message delivered by via from peer carries.
func (via deliverVia) srcOf(peer Endpoint) Endpoint {
	if via.system {
		return System
	}
	return peer
}

// TestReceiveOrTakesQueued: a message already waiting — as a pending
// notification, in the async queue or as a blocked sender — is taken from
// either source, ahead of an older one from a third process, which stays
// queued (a blocked sender stays blocked) for the next Receive.
func TestReceiveOrTakesQueued(t *testing.T) {
	for _, via := range deliveries {
		for _, pick := range []string{"from", "also"} {
			t.Run(via.name+"/"+pick, func(t *testing.T) {
				env, k := newKernel(t)
				var from, also, other *Ctx
				var got, rest Message
				var gotAt sim.Time
				rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
					c.Sleep(time.Second)
					f, a := from.Endpoint(), via.srcOf(also.Endpoint())
					if pick == "from" {
						f, a = via.srcOf(from.Endpoint()), also.Endpoint()
					}
					var err error
					if got, err = c.ReceiveOr(f, a); err != nil {
						t.Errorf("ReceiveOr: %v", err)
					}
					gotAt = c.Now()
					rest, _ = c.Receive(Any)
				})
				peer := func(label string, at time.Duration, send bool) *Ctx {
					pc, _ := k.Spawn(label, trusted(), func(c *Ctx) {
						if send {
							c.Sleep(at)
							via.send(k, c, rc.Endpoint())
						}
						c.Sleep(time.Hour)
					})
					return pc
				}
				// other queues first: a System message has one source,
				// so its bystander is a process's AsyncSend instead.
				other, _ = k.Spawn("other", trusted(), func(c *Ctx) {
					if via.system {
						c.AsyncSend(rc.Endpoint(), Message{Type: 8})
					} else {
						via.send(k, c, rc.Endpoint())
					}
					c.Sleep(time.Hour)
				})
				from = peer("from", 10*time.Millisecond, pick == "from")
				also = peer("also", 10*time.Millisecond, pick == "also")
				env.Run(2 * time.Second)
				want := via.srcOf(from.Endpoint())
				if pick == "also" {
					want = via.srcOf(also.Endpoint())
				}
				if got.Source != want || gotAt != time.Second {
					t.Fatalf("ReceiveOr took %v at %v, want %v's message at 1s", got.Source, gotAt, pick)
				}
				if rest.Source != other.Endpoint() {
					t.Fatalf("next Receive took %v, want other's queued message", rest.Source)
				}
			})
		}
	}
}

// TestReceiveOrDirectDelivery: a process blocked in ReceiveOr takes a
// message from also the instant it is sent, by each of the four delivery
// paths, while a third process's earlier message stays queued.
func TestReceiveOrDirectDelivery(t *testing.T) {
	for _, via := range deliveries {
		t.Run(via.name, func(t *testing.T) {
			env, k := newKernel(t)
			var from, also *Ctx
			var got Message
			var gotAt sim.Time
			rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
				var err error
				if got, err = c.ReceiveOr(from.Endpoint(), via.srcOf(also.Endpoint())); err != nil {
					t.Errorf("ReceiveOr: %v", err)
				}
				gotAt = c.Now()
				c.Sleep(time.Hour)
			})
			other, _ := k.Spawn("other", trusted(), func(c *Ctx) {
				c.Sleep(500 * time.Millisecond)
				c.AsyncSend(rc.Endpoint(), Message{Type: 8})
			})
			from, _ = k.Spawn("from", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
			also, _ = k.Spawn("also", trusted(), func(c *Ctx) {
				c.Sleep(time.Second)
				via.send(k, c, rc.Endpoint())
				c.Sleep(time.Hour)
			})
			env.Run(2 * time.Second)
			if got.Source != via.srcOf(also.Endpoint()) || gotAt != time.Second {
				t.Fatalf("ReceiveOr took %v at %v, want also's message at 1s", got.Source, gotAt)
			}
			if q := rc.e.asyncQ; len(q) != 1 || q[0].Source != other.Endpoint() {
				t.Fatalf("async queue %+v, want other's message still queued", q)
			}
		})
	}
}

// TestReceiveOrWatchesOnlyFrom: from's death aborts the wait with
// ErrSrcDied, exactly as Receive(from) does; also's death does not, and
// the wait goes on to take from's next message.
func TestReceiveOrWatchesOnlyFrom(t *testing.T) {
	for _, dies := range []string{"from", "also"} {
		t.Run(dies, func(t *testing.T) {
			env, k := newKernel(t)
			var from, also *Ctx
			var got Message
			var err error
			var gotAt sim.Time
			rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
				got, err = c.ReceiveOr(from.Endpoint(), also.Endpoint())
				gotAt = c.Now()
			})
			from, _ = k.Spawn("from", trusted(), func(c *Ctx) {
				c.Sleep(time.Second)
				if dies == "from" {
					c.Exit(1)
				}
				c.Sleep(time.Second)
				c.Send(rc.Endpoint(), Message{Type: 5})
			})
			also, _ = k.Spawn("also", trusted(), func(c *Ctx) {
				c.Sleep(time.Second)
				if dies == "also" {
					c.Exit(1)
				}
				c.Sleep(time.Hour)
			})
			env.Run(3 * time.Second)
			if dies == "from" {
				if !errors.Is(err, ErrSrcDied) || gotAt != time.Second {
					t.Fatalf("ReceiveOr = %+v, %v at %v; want ErrSrcDied at 1s", got, err, gotAt)
				}
				return
			}
			if err != nil || got.Type != 5 || gotAt != 2*time.Second {
				t.Fatalf("ReceiveOr = %+v, %v at %v; want from's message at 2s", got, err, gotAt)
			}
		})
	}
}

// TestReceiveOrReleasesBlockedSender: a receive that takes a queued
// rendezvous sender's message completes that sender's Send.
func TestReceiveOrReleasesBlockedSender(t *testing.T) {
	env, k := newKernel(t)
	var senderDone sim.Time
	var from *Ctx
	rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		if m, err := c.ReceiveOr(from.Endpoint(), None); err != nil || m.Type != 9 {
			t.Errorf("ReceiveOr = %+v, %v", m, err)
		}
		c.Sleep(time.Second)
	})
	from, _ = k.Spawn("sender", trusted(), func(c *Ctx) {
		if err := c.Send(rc.Endpoint(), Message{Type: 9}); err != nil {
			t.Errorf("send: %v", err)
		}
		senderDone = c.Now()
	})
	env.Run(3 * time.Second)
	if senderDone != time.Second {
		t.Fatalf("sender released at %v, want 1s", senderDone)
	}
}

// inboxEmpty reports whether nothing waits in the entry's delivery slot.
func inboxEmpty(c *Ctx) bool { return reflect.DeepEqual(c.e.inbox, Message{}) }

// TestInboxEmptyAfterReceive: a message delivered to a blocked receiver
// travels through the entry's inbox, whichever of the four delivery paths
// it took, and the slot is empty again when Receive returns.
func TestInboxEmptyAfterReceive(t *testing.T) {
	env, k := newKernel(t)
	var got []int32
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		for i := 0; i < 4; i++ {
			m, err := c.Receive(Any)
			if err != nil {
				t.Errorf("receive %d: %v", i, err)
			}
			if !inboxEmpty(c) {
				t.Errorf("receive %d left %+v in the inbox", i, c.e.inbox)
			}
			got = append(got, m.Type)
		}
	})
	k.Spawn("sender", trusted(), func(c *Ctx) {
		// Each after a sleep, so the receiver is blocked again.
		c.Sleep(time.Second)
		c.Send(rc.Endpoint(), Message{Type: 1, Payload: []byte("x")})
		c.Sleep(time.Second)
		c.AsyncSend(rc.Endpoint(), Message{Type: 2, Name: "y"})
		c.Sleep(time.Second)
		c.Kill(rc.Endpoint(), SIGTERM)
		c.Sleep(time.Second)
		k.PostAsync(rc.Endpoint(), Message{Type: 4})
	})
	env.Run(0)
	if want := []int32{1, 2, MsgNotify, 4}; !slices.Equal(got, want) {
		t.Fatalf("received types %v, want %v", got, want)
	}
}

// TestInboxClearedWhenReceiverKilledBeforeResume: a receiver killed in the
// instant between a delivery and its own resume never takes the message;
// it must not stay behind in the dead entry, and the sender, whose send
// completed, is not failed after the fact.
func TestInboxClearedWhenReceiverKilledBeforeResume(t *testing.T) {
	env, k := newKernel(t)
	resumed := false
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		c.Receive(Any)
		resumed = true
	})
	var sendErr error
	k.Spawn("sender", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		sendErr = c.Send(rc.Endpoint(), Message{Type: 9, Payload: make([]byte, 64)})
		if inboxEmpty(rc) {
			t.Error("delivery to a blocked receiver bypassed its inbox")
		}
		k.Kill(rc.Endpoint(), SIGKILL) // its wake is already in flight
	})
	env.Run(0)
	if resumed {
		t.Fatal("receiver resumed after the kill")
	}
	if sendErr != nil {
		t.Fatalf("send = %v, want nil (delivered before the kill)", sendErr)
	}
	if !inboxEmpty(rc) {
		t.Fatalf("dead receiver's inbox still holds %+v", rc.e.inbox)
	}
}

// TestAbortWinsOverEarlierDelivery: a receiver that took one message from
// a source and is waiting for the next when the source dies gets
// ErrSrcDied and an empty message — not a second copy of the first.
func TestAbortWinsOverEarlierDelivery(t *testing.T) {
	env, k := newKernel(t)
	var first, second Message
	var err1, err2 error
	var src *Ctx
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		first, err1 = c.Receive(src.Endpoint())
		second, err2 = c.Receive(src.Endpoint())
		if !inboxEmpty(c) {
			t.Errorf("aborted receive left %+v in the inbox", c.e.inbox)
		}
	})
	src, _ = k.Spawn("source", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		c.Send(rc.Endpoint(), Message{Type: 5, Arg1: 55})
		c.Sleep(time.Second)
		c.Exit(1)
	})
	env.Run(0)
	if err1 != nil || first.Type != 5 || first.Arg1 != 55 {
		t.Fatalf("first receive = %+v, %v", first, err1)
	}
	if !errors.Is(err2, ErrSrcDied) || second.Type != 0 || second.Arg1 != 0 {
		t.Fatalf("second receive = %+v, %v; want an empty message and ErrSrcDied", second, err2)
	}
}

// TestRecycledEntryHoldsNothingOfTheDead: Spawn hands a dead instance's
// process-table entry to the slot's next instance, here under another
// label. Nothing of the dead instance reaches the new one, and no handle
// to the dead instance reaches the new one's state: its endpoint still
// fails as dead (a send with ErrDeadDst, a receive from it with
// ErrSrcDied, a copy through its grant with ErrDeadDst), its Ctx still
// reports it, its label resolves to None, its grants, queued message and
// pending alarm are gone — also when reap leaves the grants behind
// (DebugLeakGrantsOnDeath), where the dead instance shows them until the
// slot passes on, and the new instance starts with none.
func TestRecycledEntryHoldsNothingOfTheDead(t *testing.T) {
	for _, leak := range []bool{false, true} {
		t.Run(fmt.Sprintf("leak=%v", leak), func(t *testing.T) {
			env, k := newKernel(t)
			k.DebugLeakGrantsOnDeath(leak)
			buf := make([]byte, 8)
			var gid GrantID
			dead, _ := k.Spawn("drv", trusted(), func(c *Ctx) {
				gid = c.CreateGrant(buf, GrantRead, Any)
				c.SetAlarm(10 * time.Second) // pending at death
				c.Sleep(time.Second)
				c.Exit(2)
			})
			oldEp := dead.Endpoint()
			k.Spawn("client", trusted(), func(c *Ctx) {
				if err := c.AsyncSend(oldEp, Message{Type: 5}); err != nil { // queued, never received
					t.Errorf("async send: %v", err)
				}
			})
			env.Run(2 * time.Second)
			var deadGrants int
			k.VisitProcs(func(p ProcInfo) {
				if p.Ep == oldEp {
					deadGrants = p.Grants
				}
			})
			if want := map[bool]int{false: 0, true: 1}[leak]; deadGrants != want {
				t.Fatalf("dead instance shows %d grants, want %d", deadGrants, want)
			}

			entry := k.slots[oldEp.slot()]
			var got []Message
			next, err := k.Spawn("other", trusted(), func(c *Ctx) {
				for {
					m, err := c.Receive(Any)
					if err != nil {
						return
					}
					got = append(got, m)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
			newEp := next.Endpoint()
			if newEp.slot() != oldEp.slot() || newEp == oldEp || k.slots[newEp.slot()] != entry {
				t.Fatalf("successor %v, dead %v: want the dead instance's entry under a new generation", newEp, oldEp)
			}
			if ep := dead.Endpoint(); ep != oldEp {
				t.Errorf("the dead instance's Ctx reports %v, want its own %v", ep, oldEp)
			}
			if ep := k.LookupLabel("drv"); ep != None {
				t.Errorf("LookupLabel(drv) = %v after its entry passed to other, want None", ep)
			}
			if ep := k.LookupLabel("other"); ep != newEp {
				t.Errorf("LookupLabel(other) = %v, want %v", ep, newEp)
			}
			var sendErr, recvErr, copyErr error
			k.Spawn("stale", trusted(), func(c *Ctx) {
				sendErr = c.Send(oldEp, Message{Type: 6})
				_, recvErr = c.Receive(oldEp)
				copyErr = c.SafeCopyFrom(oldEp, gid, 0, make([]byte, 4))
			})
			env.Run(20 * time.Second) // past the dead alarm's 10 s

			if !errors.Is(sendErr, ErrDeadDst) || !errors.Is(recvErr, ErrSrcDied) || !errors.Is(copyErr, ErrDeadDst) {
				t.Errorf("stale endpoint: send %v, receive %v, copy %v; want ErrDeadDst, ErrSrcDied, ErrDeadDst",
					sendErr, recvErr, copyErr)
			}
			if len(got) != 0 {
				t.Errorf("successor received %+v, meant for the dead instance or from its alarm", got)
			}
			k.VisitProcs(func(p ProcInfo) {
				if p.Ep == newEp && p.Grants != 0 {
					t.Errorf("successor starts with %d grants of the dead instance", p.Grants)
				}
			})
			k.VisitGrants(func(g GrantInfo) {
				t.Errorf("grant %d of %v (%s) survives", g.ID, g.Owner, g.OwnerLabel)
			})
		})
	}
}
