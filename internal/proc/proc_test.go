package proc

import (
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

func bootPM(t *testing.T) (*sim.Env, *kernel.Kernel, kernel.Endpoint) {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	ep, err := Start(k)
	if err != nil {
		t.Fatal(err)
	}
	return env, k, ep
}

// subscribe spawns an "rs" process that subscribes and collects exit
// events into the returned slice.
func subscribe(t *testing.T, k *kernel.Kernel, pmEp kernel.Endpoint) *[]kernel.Message {
	t.Helper()
	events := &[]kernel.Message{}
	_, err := k.Spawn("rs", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		if _, err := c.SendRec(pmEp, kernel.Message{Type: proto.PMSubscribe}); err != nil {
			t.Errorf("subscribe: %v", err)
			return
		}
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.PMExitEvent {
				*events = append(*events, m)
			}
		}
	})
	if err != nil {
		t.Fatal(err)
	}
	return events
}

func TestExitEventForPanic(t *testing.T) {
	env, k, pmEp := bootPM(t)
	events := subscribe(t, k, pmEp)
	k.Spawn("drv", kernel.Privileges{}, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		c.Exit(2)
	})
	env.Run(3 * time.Second)
	if len(*events) != 1 {
		t.Fatalf("events = %d", len(*events))
	}
	e := (*events)[0]
	if e.Name != "drv" || e.Arg2 != proto.CauseExit || e.Arg3 != 2 {
		t.Fatalf("event = %+v", e)
	}
}

func TestExitEventForException(t *testing.T) {
	env, k, pmEp := bootPM(t)
	events := subscribe(t, k, pmEp)
	k.Spawn("drv", kernel.Privileges{}, func(c *kernel.Ctx) {
		c.Trap(kernel.ExcCPU)
	})
	env.Run(time.Second)
	if len(*events) != 1 {
		t.Fatalf("events = %d", len(*events))
	}
	e := (*events)[0]
	if e.Arg2 != proto.CauseException || kernel.Exception(e.Arg4) != kernel.ExcCPU {
		t.Fatalf("event = %+v", e)
	}
}

func TestBacklogDeliveredToLateSubscriber(t *testing.T) {
	env, k, pmEp := bootPM(t)
	// Something dies before the subscriber exists.
	k.Spawn("early", kernel.Privileges{}, func(c *kernel.Ctx) { c.Exit(1) })
	env.Run(time.Second)
	events := subscribe(t, k, pmEp)
	env.Run(time.Second)
	if len(*events) != 1 || (*events)[0].Name != "early" {
		t.Fatalf("backlog events = %+v", *events)
	}
}

func TestExitEventForSignal(t *testing.T) {
	env, k, pmEp := bootPM(t)
	events := subscribe(t, k, pmEp)
	victim, _ := k.Spawn("victim", kernel.Privileges{}, func(c *kernel.Ctx) {
		c.Sleep(time.Hour)
	})
	env.Schedule(time.Second, func() { k.Kill(victim.Endpoint(), kernel.SIGKILL) })
	env.Run(3 * time.Second)
	if len(*events) != 1 || (*events)[0].Arg2 != proto.CauseSignal ||
		(*events)[0].Arg3 != int64(kernel.SIGKILL) {
		t.Fatalf("events = %+v", *events)
	}
	if (*events)[0].Name != "victim" {
		t.Fatalf("event for %q", (*events)[0].Name)
	}
}

func TestForgedExitEventIgnored(t *testing.T) {
	env, k, pmEp := bootPM(t)
	events := subscribe(t, k, pmEp)
	k.Spawn("forger", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		_ = c.AsyncSend(pmEp, kernel.Message{
			Type: proto.PMExitEvent, Name: "fake", Arg2: proto.CauseExit,
		})
		c.Sleep(time.Hour) // stay alive; its own death is not the point
	})
	env.Run(time.Second)
	if len(*events) != 0 {
		t.Fatalf("forged event forwarded: %+v", *events)
	}
}
