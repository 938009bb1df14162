package kernel

import (
	"errors"
	"testing"
	"time"

	"resilientos/internal/sim"
)

// fakeDev is a trivial register file device for tests.
type fakeDev struct {
	regs map[uint32]uint32
}

func (d *fakeDev) PortIn(port uint32) (uint32, error) { return d.regs[port], nil }

func (d *fakeDev) PortOut(port uint32, val uint32) error {
	d.regs[port] = val
	return nil
}

func driverPriv(ports PortRange, irqs ...int) Privileges {
	return Privileges{
		AllowAllIPC: true,
		Calls:       []Call{CallDevIO, CallIRQCtl, CallAlarm},
		Ports:       []PortRange{ports},
		IRQs:        irqs,
	}
}

func TestDevInOut(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	dev := &fakeDev{regs: map[uint32]uint32{}}
	k.MapDevice(PortRange{0x100, 0x110}, dev)
	var got uint32
	k.Spawn("drv", driverPriv(PortRange{0x100, 0x110}), func(c *Ctx) {
		if err := c.DevOut(0x104, 0xBEEF); err != nil {
			t.Errorf("devout: %v", err)
		}
		v, err := c.DevIn(0x104)
		if err != nil {
			t.Errorf("devin: %v", err)
		}
		got = v
	})
	env.Run(0)
	if got != 0xBEEF {
		t.Fatalf("got %#x", got)
	}
}

func TestDevIOPortPrivilege(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	dev := &fakeDev{regs: map[uint32]uint32{}}
	k.MapDevice(PortRange{0x100, 0x110}, dev)
	k.MapDevice(PortRange{0x200, 0x210}, dev)
	var inErr, outErr error
	k.Spawn("drv", driverPriv(PortRange{0x100, 0x110}), func(c *Ctx) {
		_, inErr = c.DevIn(0x200) // other device's range
		outErr = c.DevOut(0x208, 1)
	})
	env.Run(0)
	if !errors.Is(inErr, ErrNotAllowed) || !errors.Is(outErr, ErrNotAllowed) {
		t.Fatalf("errs = %v, %v, want ErrNotAllowed", inErr, outErr)
	}
}

func TestDevIOUnmappedPort(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	var err error
	k.Spawn("drv", driverPriv(PortRange{0x300, 0x310}), func(c *Ctx) {
		_, err = c.DevIn(0x300) // allowed but nothing mapped
	})
	env.Run(0)
	if !errors.Is(err, ErrBadPort) {
		t.Fatalf("err = %v, want ErrBadPort", err)
	}
}

func TestIRQDelivery(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	var mask int64
	k.Spawn("drv", driverPriv(PortRange{}, 5), func(c *Ctx) {
		if err := c.IRQSubscribe(5); err != nil {
			t.Errorf("subscribe: %v", err)
		}
		m, err := c.Receive(Hardware)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		mask = m.Arg1
	})
	env.Schedule(time.Second, func() { k.RaiseIRQ(5) })
	env.Run(0)
	if mask != 1<<5 {
		t.Fatalf("pending mask = %#x, want bit 5", mask)
	}
}

func TestIRQPrivilege(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	var err error
	k.Spawn("drv", driverPriv(PortRange{}, 3), func(c *Ctx) {
		err = c.IRQSubscribe(9) // not our line
	})
	env.Run(0)
	if !errors.Is(err, ErrNotAllowed) {
		t.Fatalf("err = %v, want ErrNotAllowed", err)
	}
}

func TestIRQUnsubscribedOnDeath(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	rc, _ := k.Spawn("drv", driverPriv(PortRange{}, 4), func(c *Ctx) {
		c.IRQSubscribe(4)
		c.Sleep(time.Second)
		c.Exit(0)
	})
	env.Run(2 * time.Second)
	_ = rc
	// Raising the line after the driver died must not panic or deliver.
	k.RaiseIRQ(4)
	env.Run(time.Second)
	if subs := k.irqs[4]; len(subs) != 0 {
		t.Fatalf("dead driver still subscribed: %d subs", len(subs))
	}
}

func TestIRQLostWithoutDriver(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	k.RaiseIRQ(7) // no subscribers: dropped silently
	env.Run(0)
}

func TestHardwareNotificationMergesLines(t *testing.T) {
	env := sim.NewEnv(1)
	k := New(env)
	var mask int64
	k.Spawn("drv", Privileges{
		AllowAllIPC: true,
		Calls:       []Call{CallIRQCtl},
		IRQs:        []int{2, 3},
	}, func(c *Ctx) {
		c.IRQSubscribe(2)
		c.IRQSubscribe(3)
		c.Sleep(2 * time.Second) // both IRQs fire while busy
		m, err := c.Receive(Hardware)
		if err != nil {
			t.Errorf("receive: %v", err)
		}
		mask = m.Arg1
	})
	env.Schedule(time.Second, func() { k.RaiseIRQ(2); k.RaiseIRQ(3) })
	env.Run(0)
	if mask != (1<<2 | 1<<3) {
		t.Fatalf("mask = %#x, want bits 2+3", mask)
	}
}
