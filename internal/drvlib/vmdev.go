package drvlib

import (
	"errors"
	"fmt"
	"sync"
	"time"

	"resilientos/internal/kernel"
	"resilientos/internal/ucode"
)

// StatusBits is a condition on a device's status register.
type StatusBits struct{ Mask, Want uint32 }

// In reports whether status st satisfies the condition.
func (b StatusBits) In(st uint32) bool { return st&b.Mask == b.Want }

// VMDevice is the part of a ucode driver that is the same for every chip:
// how an instance comes to own its device. A driver embeds it, describes
// its chip in the exported fields, and inherits the Device, Promoter and
// Microrebooter hooks — so the recovery ladder's driver half (cold init,
// standby attach, in-place VM reset) exists once, here.
//
// The chip's control program must export "reset" (start a device reset)
// and "status" (r1 = status register).
type VMDevice struct {
	Chip string // names the chip in errors and capsule kinds
	// Image assembles the chip's pristine binary for a port base. It runs
	// once per (Chip, base) in the life of the program (see pristine), so
	// it may depend on nothing else.
	Image func(base uint32) *ucode.Image
	// Plant, if set, seeds the state block in driver RAM that a fresh
	// (zeroed) VM needs to pass its own consistency checks.
	Plant func(vm *ucode.VM)
	// OnVM, if set, is called with each new VM — the hook the
	// fault-injection campaign uses to reach the running binary.
	OnVM func(*ucode.VM)
	Base uint32 // port base the image is assembled for
	IRQ  int

	// The reset cycle: run "reset", then poll "status" every Poll until
	// the register satisfies Ready, for at most Timeout.
	Poll, Timeout time.Duration
	Ready         StatusBits
	// Live is the status of a device that can be taken over as it stands,
	// without a reset: a crash of its driver does not reset the hardware.
	Live StatusBits

	VM *ucode.VM
	St uint32 // status register as Status last read it
}

// pristine holds the one assembled image of each chip at each port base
// (the image is position-dependent on it). No VM runs it: every instance
// runs a Clone — the paper's restart from a RAM copy — so faults injected
// into the running copy die with it. Fleet members and campaign cells
// boot concurrently, hence the sync.Map.
var pristine sync.Map // imageKey -> *ucode.Image

type imageKey struct {
	chip string
	base uint32
}

// fresh swaps in a VM running a copy of the pristine image, without
// touching device state.
func (d *VMDevice) fresh(c *kernel.Ctx) {
	key := imageKey{d.Chip, d.Base}
	img, ok := pristine.Load(key)
	if !ok {
		img, _ = pristine.LoadOrStore(key, d.Image(d.Base))
	}
	d.VM = ucode.New(img.(*ucode.Image).Clone(), CtxBus{C: c})
	if d.Plant != nil {
		d.Plant(d.VM)
	}
	if d.OnVM != nil {
		d.OnVM(d.VM)
	}
}

// attach gives a new instance its VM and the device's interrupt line.
func (d *VMDevice) attach(c *kernel.Ctx) error {
	d.fresh(c)
	if err := c.IRQSubscribe(d.IRQ); err != nil {
		return fmt.Errorf("irq: %w", err)
	}
	return nil
}

// Call runs one routine of the control program and reacts to its outcome
// (see React): true if it succeeded, false on a clean failure.
func (d *VMDevice) Call(c *kernel.Ctx, entry string, args ...uint32) bool {
	return React(c, d.VM.Run(entry, args...))
}

// Status reads the device's status register through the VM.
func (d *VMDevice) Status(c *kernel.Ctx) (st uint32, ok bool) {
	ok = d.Call(c, "status")
	d.St = d.VM.Regs[1]
	return d.St, ok
}

// ResetCycle resets the device and waits until it is ready again — the
// hardware delay that dominates a respawn's recovery time.
func (d *VMDevice) ResetCycle(c *kernel.Ctx) error {
	d.Call(c, "reset")
	deadline := c.Now() + d.Timeout
	for {
		c.Sleep(d.Poll)
		if st, ok := d.Status(c); ok && d.Ready.In(st) {
			return nil
		}
		if c.Now() > deadline {
			return errors.New(d.Chip + ": reset did not complete")
		}
	}
}

// Init implements Device: a cold start pays the full reset cycle. After a
// crash this is what reinitializes the device for the fresh instance.
func (d *VMDevice) Init(c *kernel.Ctx) error {
	if err := d.attach(c); err != nil {
		return err
	}
	return d.ResetCycle(c)
}

// Promote implements Promoter: attach to the device the dead primary left
// behind. It is normally still Live and the reset cycle is skipped — the
// fast path that keeps the failover dip shallow; otherwise the promoted
// replica pays the full cycle.
func (d *VMDevice) Promote(c *kernel.Ctx) error {
	if err := d.attach(c); err != nil {
		return err
	}
	if st, ok := d.Status(c); ok && d.Live.In(st) {
		return nil
	}
	return d.ResetCycle(c)
}

// Microreboot implements Microrebooter: swap in a pristine VM against the
// running device — no hardware reset, no respawn, no re-grant churn. What
// the driver keeps outside the VM survives: it was never the faulty
// state, the VM was. St holds the status the probe read.
func (d *VMDevice) Microreboot(c *kernel.Ctx) error {
	d.fresh(c)
	if _, ok := d.Status(c); !ok {
		return errors.New(d.Chip + ": status probe failed after vm reset")
	}
	return nil
}

// Shutdown implements Device: quiesce the device for a clean exit.
func (d *VMDevice) Shutdown(c *kernel.Ctx) { d.Call(c, "reset") }

// HandleAlarm implements Device; ucode drivers set no alarms.
func (d *VMDevice) HandleAlarm(c *kernel.Ctx) {}
