package kernel

import "slices"

// Device is the hardware side of the port-I/O bus. Device models in
// internal/hw implement it and are mapped into the kernel's port space; a
// driver reaches them only through Ctx.DevIn/DevOut, which enforce the
// per-process port privileges (paper §4).
type Device interface {
	// PortIn reads the device register at port (absolute port number).
	PortIn(port uint32) (uint32, error)
	// PortOut writes the device register at port.
	PortOut(port uint32, val uint32) error
}

// MapDevice maps dev into the kernel port space for the given range.
// Overlapping an existing mapping panics: the machine topology is fixed at
// boot and overlap is a configuration bug.
func (k *Kernel) MapDevice(r PortRange, dev Device) {
	for p := r.Lo; p < r.Hi; p++ {
		if _, dup := k.ports[p]; dup {
			panic("kernel: overlapping device port mapping")
		}
		k.ports[p] = dev
	}
}

// RaiseIRQ asserts interrupt line `line` (0–63): every subscribed process
// gets (or merges) a Hardware notification with the line's bit set in the
// pending mask. Device models call this.
func (k *Kernel) RaiseIRQ(line int) {
	k.raised[line]++
	// With no driver attached the interrupt is lost, as on real hardware.
	for _, e := range k.irqs[line] {
		if !e.alive {
			continue
		}
		e.irqPending |= 1 << uint(line)
		k.notifyEntry(e, Hardware)
	}
}

// IRQsRaised counts the times line has been asserted, subscribed or not:
// the machine's /proc/interrupts.
func (k *Kernel) IRQsRaised(line int) uint64 { return k.raised[line] }

// devIn performs a privileged port read for e.
func (k *Kernel) devIn(e *procEntry, port uint32) (uint32, error) {
	if !e.priv.allowsCall(CallDevIO) || !e.priv.allowsPort(port) {
		return 0, ErrNotAllowed
	}
	dev, ok := k.ports[port]
	if !ok {
		return 0, ErrBadPort
	}
	return dev.PortIn(port)
}

// devOut performs a privileged port write for e.
func (k *Kernel) devOut(e *procEntry, port uint32, val uint32) error {
	if !e.priv.allowsCall(CallDevIO) || !e.priv.allowsPort(port) {
		return ErrNotAllowed
	}
	dev, ok := k.ports[port]
	if !ok {
		return ErrBadPort
	}
	return dev.PortOut(port, val)
}

// irqSubscribe attaches e to the line; subscribing twice is one
// subscription.
func (k *Kernel) irqSubscribe(e *procEntry, line int) error {
	if !e.priv.allowsCall(CallIRQCtl) || !e.priv.allowsIRQ(line) {
		return ErrNotAllowed
	}
	if !slices.Contains(k.irqs[line], e) {
		k.irqs[line] = append(k.irqs[line], e)
	}
	return nil
}
