package kernel

import (
	"errors"
	"reflect"
	"slices"
	"testing"
	"time"

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

func TestNotifyDelivery(t *testing.T) {
	env, k := newKernel(t)
	var got Message
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
		m, err := c.Receive(Any)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		got = m
	})
	sender, _ := k.Spawn("notifier", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		if err := c.Notify(rc.Endpoint()); err != nil {
			t.Errorf("notify: %v", err)
		}
	})
	env.Run(0)
	if got.Type != MsgNotify || got.Source != sender.Endpoint() {
		t.Fatalf("got %+v", got)
	}
}

func TestNotifyMergesDuplicates(t *testing.T) {
	env, k := newKernel(t)
	count := 0
	rc, _ := k.Spawn("receiver", trusted(), func(c *Ctx) {
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
			count++
		}
	})
	k.Spawn("notifier", trusted(), func(c *Ctx) {
		for i := 0; i < 5; i++ {
			c.Notify(rc.Endpoint())
		}
	})
	env.Run(0)
	if count != 1 {
		t.Fatalf("notification count = %d, want 1 (merged)", count)
	}
}

func TestNotifyNonblocking(t *testing.T) {
	env, k := newKernel(t)
	rc, _ := k.Spawn("busy", trusted(), func(c *Ctx) { c.Sleep(time.Hour) })
	var done sim.Time
	k.Spawn("notifier", trusted(), func(c *Ctx) {
		if err := c.Notify(rc.Endpoint()); err != nil {
			t.Errorf("notify: %v", err)
		}
		done = c.Now()
	})
	env.Run(2 * time.Second)
	if done != 0 {
		t.Fatalf("notify blocked until %v", done)
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
	var sendErr, notifyErr error
	restricted := Privileges{IPCTo: []string{"ds"}} // may not talk to fs
	k.Spawn("drv", restricted, func(c *Ctx) {
		sendErr = c.Send(rc.Endpoint(), Message{Type: 1})
		notifyErr = c.Notify(rc.Endpoint())
	})
	env.Run(time.Second)
	if !errors.Is(sendErr, ErrNotAllowed) {
		t.Fatalf("send err = %v, want ErrNotAllowed", sendErr)
	}
	if !errors.Is(notifyErr, ErrNotAllowed) {
		t.Fatalf("notify err = %v, want ErrNotAllowed", notifyErr)
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

func TestTryReceive(t *testing.T) {
	env, k := newKernel(t)
	var got []int32
	var missed int
	rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		// Drain everything queued without blocking.
		for {
			m, ok := c.TryReceive(Any)
			if !ok {
				break
			}
			got = append(got, m.Type)
		}
		// Nothing left: TryReceive reports false.
		if _, ok := c.TryReceive(Any); ok {
			missed++
		}
	})
	k.Spawn("sender", trusted(), func(c *Ctx) {
		c.AsyncSend(rc.Endpoint(), Message{Type: 5})
		c.AsyncSend(rc.Endpoint(), Message{Type: 6})
	})
	env.Run(2 * time.Second)
	if len(got) != 2 || got[0] != 5 || got[1] != 6 {
		t.Fatalf("got %v", got)
	}
	if missed != 0 {
		t.Fatal("TryReceive returned a message from an empty queue")
	}
}

func TestTryReceiveUnblocksSender(t *testing.T) {
	env, k := newKernel(t)
	var senderDone bool
	rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		if m, ok := c.TryReceive(Any); !ok || m.Type != 9 {
			t.Errorf("tryreceive: ok=%v m=%+v", ok, m)
		}
		c.Sleep(time.Second)
	})
	k.Spawn("sender", trusted(), func(c *Ctx) {
		if err := c.Send(rc.Endpoint(), Message{Type: 9}); err != nil {
			t.Errorf("send: %v", err)
		}
		senderDone = true
	})
	env.Run(3 * time.Second)
	if !senderDone {
		t.Fatal("rendezvous sender not released by TryReceive")
	}
}

func TestTryReceiveSourceFilter(t *testing.T) {
	env, k := newKernel(t)
	var aEp, bEp Endpoint
	var first Endpoint
	rc, _ := k.Spawn("server", trusted(), func(c *Ctx) {
		c.Sleep(time.Second)
		// Only take b's message even though a's arrived first.
		if m, ok := c.TryReceive(bEp); ok {
			first = m.Source
		}
		// a's message is still queued.
		if m, ok := c.TryReceive(Any); !ok || m.Source != aEp {
			t.Errorf("a's message lost: ok=%v", ok)
		}
	})
	ac, _ := k.Spawn("a", trusted(), func(c *Ctx) {
		c.AsyncSend(rc.Endpoint(), Message{Type: 1})
	})
	bc, _ := k.Spawn("b", trusted(), func(c *Ctx) {
		c.Sleep(100 * time.Millisecond)
		c.AsyncSend(rc.Endpoint(), Message{Type: 2})
	})
	aEp, bEp = ac.Endpoint(), bc.Endpoint()
	env.Run(2 * time.Second)
	if first != bEp {
		t.Fatalf("first = %v, want b", first)
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
		c.Notify(rc.Endpoint())
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
