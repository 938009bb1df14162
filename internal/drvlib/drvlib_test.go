package drvlib

import (
	"errors"
	"testing"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// fakeDevice records dispatches from the message loop.
type fakeDevice struct {
	initErr  error
	requests []int32
	irqs     []uint64
	shutdown bool
}

func (d *fakeDevice) Init(c *kernel.Ctx) error { return d.initErr }

func (d *fakeDevice) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	d.requests = append(d.requests, m.Type)
	if m.Source.String() != "" && m.Type == 777 {
		_ = c.Send(m.Source, kernel.Message{Type: 778})
	}
}

func (d *fakeDevice) HandleIRQ(c *kernel.Ctx, mask uint64) { d.irqs = append(d.irqs, mask) }

func (d *fakeDevice) Shutdown(c *kernel.Ctx) { d.shutdown = true }

func spawnDriver(t *testing.T, k *kernel.Kernel, d Device) kernel.Endpoint {
	t.Helper()
	c, err := k.Spawn("drv", kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallIRQCtl, kernel.CallAlarm},
		IRQs:        []int{3},
	}, func(c *kernel.Ctx) { Run(c, d) })
	if err != nil {
		t.Fatal(err)
	}
	return c.Endpoint()
}

func TestRunDispatchesRequests(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	dev := &fakeDevice{}
	ep := spawnDriver(t, k, dev)
	var reply kernel.Message
	k.Spawn("client", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		r, err := c.SendRec(ep, kernel.Message{Type: 777})
		if err != nil {
			t.Errorf("sendrec: %v", err)
		}
		reply = r
	})
	env.Run(time.Second)
	if len(dev.requests) != 1 || dev.requests[0] != 777 {
		t.Fatalf("requests = %v", dev.requests)
	}
	if reply.Type != 778 {
		t.Fatalf("reply = %+v", reply)
	}
}

func TestRunAnswersHeartbeats(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	ep := spawnDriver(t, k, &fakeDevice{})
	pongs := 0
	k.Spawn("rs", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		for i := 0; i < 3; i++ {
			_ = c.AsyncSend(ep, kernel.Message{Type: proto.RSPing})
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSPong {
				pongs++
			}
			c.Sleep(100 * time.Millisecond)
		}
	})
	env.Run(time.Second)
	if pongs != 3 {
		t.Fatalf("pongs = %d, want 3", pongs)
	}
}

func TestRunShutdownOnSIGTERM(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	dev := &fakeDevice{}
	ep := spawnDriver(t, k, dev)
	k.Spawn("rs", kernel.Privileges{
		AllowAllIPC: true, Calls: []kernel.Call{kernel.CallKill},
	}, func(c *kernel.Ctx) {
		c.Sleep(100 * time.Millisecond)
		if err := c.Kill(ep, kernel.SIGTERM); err != nil {
			t.Errorf("kill: %v", err)
		}
	})
	env.Run(time.Second)
	if !dev.shutdown {
		t.Fatal("Shutdown not called on SIGTERM")
	}
	cause, ok := k.CauseOf(ep)
	if !ok || cause.Kind != kernel.CauseExit || cause.Status != 0 {
		t.Fatalf("cause = %v, want clean exit", cause)
	}
}

// An interrupt reaches HandleIRQ; the alarm the device sets in Init is
// dropped by the loop: it reaches no handler and does not kill the
// driver.
func TestRunDispatchesIRQsAndAlarms(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	dev := &fakeDevice{}
	devSetup := &irqSetupDevice{inner: dev}
	ep := spawnDriver(t, k, devSetup)
	env.Schedule(100*time.Millisecond, func() { k.RaiseIRQ(3) })
	env.Run(time.Second)
	if len(dev.irqs) != 1 || dev.irqs[0] != 1<<3 {
		t.Fatalf("irqs = %v", dev.irqs)
	}
	if len(dev.requests) != 0 {
		t.Fatalf("the alarm reached HandleRequest: requests = %v", dev.requests)
	}
	if cause, dead := k.CauseOf(ep); dead {
		t.Fatalf("the alarm killed the driver: %v", cause)
	}
}

// irqSetupDevice subscribes to IRQ 3 and sets an alarm during Init, then
// delegates.
type irqSetupDevice struct{ inner *fakeDevice }

func (d *irqSetupDevice) Init(c *kernel.Ctx) error {
	if err := c.IRQSubscribe(3); err != nil {
		return err
	}
	c.SetAlarm(500 * time.Millisecond)
	return nil
}

func (d *irqSetupDevice) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	d.inner.HandleRequest(c, m)
}
func (d *irqSetupDevice) HandleIRQ(c *kernel.Ctx, mask uint64) { d.inner.HandleIRQ(c, mask) }
func (d *irqSetupDevice) Shutdown(c *kernel.Ctx)               { d.inner.Shutdown(c) }

func TestRunInitFailurePanicsDriver(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	ep := spawnDriver(t, k, &fakeDevice{initErr: errors.New("no such card")})
	env.Run(time.Second)
	cause, ok := k.CauseOf(ep)
	if !ok || cause.Kind != kernel.CauseExit || cause.Status == 0 {
		t.Fatalf("cause = %v, want panic exit", cause)
	}
}

func TestReactOutcomes(t *testing.T) {
	env := sim.NewEnv(1)
	k := kernel.New(env)
	outcomes := map[string]struct {
		res        ucode.Result
		wantReturn bool // React returns (true/false)
		wantDead   bool // process died
		wantKind   kernel.CauseKind
	}{
		"ok":     {ucode.Result{Outcome: ucode.OutcomeOK}, true, false, 0},
		"fail":   {ucode.Result{Outcome: ucode.OutcomeFail}, false, false, 0},
		"assert": {ucode.Result{Outcome: ucode.OutcomeAssert}, false, true, kernel.CauseExit},
		"mmu":    {ucode.Result{Outcome: ucode.OutcomeMMU}, false, true, kernel.CauseException},
		"cpu":    {ucode.Result{Outcome: ucode.OutcomeCPU}, false, true, kernel.CauseException},
	}
	for name, tc := range outcomes {
		name, tc := name, tc
		returned := false
		var retVal bool
		c, err := k.Spawn("t-"+name, kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
			retVal = React(c, tc.res)
			returned = true
			c.Sleep(time.Hour)
		})
		if err != nil {
			t.Fatal(err)
		}
		env.Run(time.Second)
		if tc.wantDead {
			if returned {
				t.Errorf("%s: React returned instead of terminating", name)
			}
			cause, ok := k.CauseOf(c.Endpoint())
			if !ok || cause.Kind != tc.wantKind {
				t.Errorf("%s: cause = %v", name, cause)
			}
		} else {
			if !returned || retVal != tc.wantReturn {
				t.Errorf("%s: returned=%v val=%v", name, returned, retVal)
			}
		}
	}
}
