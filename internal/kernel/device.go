package kernel

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

// irqLine fans an interrupt line out to subscribed processes.
type irqLine struct {
	line int
	subs []*procEntry
	mask map[*procEntry]bool // true = disabled (masked) for that subscriber
}

func (l *irqLine) unsubscribe(e *procEntry) {
	for i, s := range l.subs {
		if s == e {
			l.subs = append(l.subs[:i], l.subs[i+1:]...)
			delete(l.mask, e)
			return
		}
	}
}

func (k *Kernel) irqLineFor(line int) *irqLine {
	l, ok := k.irqs[line]
	if !ok {
		l = &irqLine{line: line, mask: make(map[*procEntry]bool)}
		k.irqs[line] = l
	}
	return l
}

// RaiseIRQ asserts interrupt line `line` (0–63): every subscribed,
// unmasked process gets (or merges) a Hardware notification with the
// line's bit set in the pending mask. Device models call this.
func (k *Kernel) RaiseIRQ(line int) {
	k.raised[line]++
	l, ok := k.irqs[line]
	if !ok {
		return // no driver attached; interrupt is lost, as on real hardware
	}
	for _, e := range l.subs {
		if l.mask[e] || !e.alive {
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

// irqSubscribe attaches e to the line (enabled).
func (k *Kernel) irqSubscribe(e *procEntry, line int) error {
	if !e.priv.allowsCall(CallIRQCtl) || !e.priv.allowsIRQ(line) {
		return ErrNotAllowed
	}
	l := k.irqLineFor(line)
	for _, s := range l.subs {
		if s == e {
			l.mask[e] = false
			return nil
		}
	}
	l.subs = append(l.subs, e)
	l.mask[e] = false
	return nil
}

// irqSetMask masks or unmasks the line for e.
func (k *Kernel) irqSetMask(e *procEntry, line int, masked bool) error {
	if !e.priv.allowsCall(CallIRQCtl) || !e.priv.allowsIRQ(line) {
		return ErrNotAllowed
	}
	l, ok := k.irqs[line]
	if !ok {
		return ErrBadIRQ
	}
	found := false
	for _, s := range l.subs {
		if s == e {
			found = true
		}
	}
	if !found {
		return ErrBadIRQ
	}
	l.mask[e] = masked
	return nil
}
