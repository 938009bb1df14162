package kernel

import (
	"resilientos/internal/obs"
	"resilientos/internal/perf"
)

// IPC primitives, modeled on MINIX 3:
//
//   - Send: rendezvous; blocks until the destination receives. Fails with
//     ErrDeadDst for dead/stale endpoints, and is aborted with the same
//     error if the destination dies while we are queued.
//   - Receive: blocks for a matching notification, async message, or
//     sender. Receive from a *specific* source is aborted with ErrSrcDied
//     when that source dies; receive-from-Any keeps waiting.
//   - ReceiveOr: Receive that also accepts a second source. Only the first
//     is watched for death; the second is a side channel (a server blocked
//     on one peer keeps answering the reincarnation server's heartbeats).
//   - SendRec: Send followed by Receive from the same destination (the
//     standard request/reply shape for driver protocols).
//   - Notifications come only from the kernel's pseudo-sources: Hardware
//     (interrupts), Clock (alarms) and System (catchable signals). One is
//     a pending bit per source, merged if already set; no process can
//     notify another.
//   - AsyncSend: nonblocking queued message (MINIX senda), used by the
//     reincarnation server for heartbeat pings so a stuck driver cannot
//     block it (paper §5.1).
//
// Delivery priority in Receive follows MINIX: notifications (Hardware,
// then Clock, then System) > async messages > queued senders.

// send implements the blocking rendezvous send from e to dst.
//
// The wall-clock region (RegionKernelIPC) covers the dispatch attempt
// only and is always closed before Park: a region spanning a park would
// interleave with other events' regions and corrupt the LIFO stack.
func (k *Kernel) send(e *procEntry, dst Endpoint, msg Message) error {
	if !e.alive {
		return ErrDying
	}
	k.perf.Begin(perf.RegionKernelIPC)
	d := k.lookup(dst)
	if d == nil {
		k.obs.Emit(obs.KindIPCAbort, e.label, k.labelFor(dst), int64(msg.Type), 0)
		k.perf.End(perf.RegionKernelIPC)
		return ErrDeadDst
	}
	if !e.priv.allowsIPCTo(d.label) {
		k.perf.End(perf.RegionKernelIPC)
		return ErrNotAllowed
	}
	if k.obs != nil {
		if !msg.Trace.Valid() {
			msg.Trace = e.traceCtx
		}
		k.ipcSend.Add(1)
		k.obs.EmitCtx(obs.KindIPCSend, e.label, d.label, int64(msg.Type), 0, msg.Trace)
	}
	msg.Source = e.ep
	if d.wants(e.ep) {
		d.deliver(msg)
		k.perf.End(perf.RegionKernelIPC)
		return nil
	}
	// Destination not ready: queue and block.
	e.sendMsg = msg
	e.sendTo = d
	d.senders = append(d.senders, e)
	k.perf.End(perf.RegionKernelIPC)
	switch v := e.proc.Park().(type) {
	case sendOK:
		return nil
	case ipcAbort:
		k.obs.Emit(obs.KindIPCAbort, e.label, k.labelFor(dst), int64(msg.Type), 0)
		return v.err
	default:
		panic("kernel: unexpected wake value in send")
	}
}

// receive implements the blocking receive for e, wrapping the inner
// receive with trace-context adoption and trace emission: every
// delivered message becomes an ipc.recv event, every death-abort an
// ipc.abort, and the receiver adopts the message's causal context as its
// ambient context (notifications never carry one, so they cannot clobber
// a context a driver is working under).
func (k *Kernel) receive(e *procEntry, from, also Endpoint) (Message, error) {
	m, err := k.receiveInner(e, from, also)
	if k.obs != nil {
		if err == nil {
			k.ipcRecv.Add(1)
			if m.Type != MsgNotify {
				e.traceCtx = m.Trace
			}
		}
		if k.obs.On(obs.KindIPCRecv) {
			if err != nil {
				k.obs.Emit(obs.KindIPCAbort, e.label, k.labelFor(from), 0, 1)
			} else {
				k.obs.EmitCtx(obs.KindIPCRecv, e.label, k.labelFor(m.Source), int64(m.Type), 0, m.Trace)
			}
		}
	}
	return m, err
}

// receiveInner implements the blocking receive for e: a message from from
// (or Any) or from also (None when there is no second source). As in
// send, the wall-clock region covers the delivery scan only, never the
// park.
func (k *Kernel) receiveInner(e *procEntry, from, also Endpoint) (Message, error) {
	if !e.alive {
		return Message{}, ErrDying
	}
	k.perf.Begin(perf.RegionKernelIPC)
	e.recvFrom, e.recvAlso = from, also
	// 1. Pending notifications, pseudo-sources first.
	if msg, ok := e.takeNotification(); ok {
		k.perf.End(perf.RegionKernelIPC)
		return msg, nil
	}
	// 2. Queued asynchronous messages.
	for i, m := range e.asyncQ {
		if e.accepts(m.Source) {
			e.asyncQ = append(e.asyncQ[:i], e.asyncQ[i+1:]...)
			k.perf.End(perf.RegionKernelIPC)
			return m, nil
		}
	}
	// 3. Blocked senders.
	for i, s := range e.senders {
		if e.accepts(s.ep) {
			e.senders = append(e.senders[:i], e.senders[i+1:]...)
			msg := s.sendMsg
			s.sendTo = nil
			s.sendMsg = Message{}
			s.proc.Wake(sendOK{})
			k.perf.End(perf.RegionKernelIPC)
			return msg, nil
		}
	}
	// 4. If waiting for a specific process source, make sure it is alive
	// (pseudo-sources like Hardware/Clock never "die").
	if from.valid() && k.lookup(from) == nil {
		k.perf.End(perf.RegionKernelIPC)
		return Message{}, ErrSrcDied
	}
	// 5. Block.
	e.recvWait = true
	k.perf.End(perf.RegionKernelIPC)
	switch v := e.proc.Park().(type) {
	case delivered:
		msg := e.inbox
		e.inbox = Message{}
		return msg, nil
	case ipcAbort:
		return Message{}, v.err
	default:
		panic("kernel: unexpected wake value in receive")
	}
}

// accepts reports whether the receive e last entered takes a message
// from src.
func (e *procEntry) accepts(src Endpoint) bool {
	return e.recvFrom == Any || src == e.recvFrom || src == e.recvAlso
}

// wants reports whether e is blocked in a receive that takes a message
// from src: the one test every delivery path makes before handing a
// message over directly instead of queueing it.
func (e *procEntry) wants(src Endpoint) bool { return e.recvWait && e.accepts(src) }

// deliver hands msg to a process blocked in Receive. The message waits in
// the entry's inbox and the wake value only says it is there: boxing a
// Message into Park's return value would allocate on every delivery.
func (d *procEntry) deliver(msg Message) {
	d.recvWait = false
	d.inbox = msg
	d.proc.Wake(delivered{})
}

// notifyBit is src's bit in procEntry.notified. Only the kernel's
// pseudo-sources notify, and Hardware, Clock and System are -3, -4 and
// -5: bits 0, 1 and 2, in the order Receive serves them.
func notifyBit(src Endpoint) uint8 { return 1 << (Hardware - src) }

// takeNotification pops the highest-priority pending notification the
// current receive accepts (Hardware, then Clock, then System), building
// its message.
func (e *procEntry) takeNotification() (Message, bool) {
	for src := Hardware; src >= System; src-- {
		if e.notified&notifyBit(src) != 0 && e.accepts(src) {
			e.notified &^= notifyBit(src)
			return e.notification(src), true
		}
	}
	return Message{}, false
}

// notification builds the message announcing src; a Hardware one carries
// the pending IRQ lines and clears them.
func (e *procEntry) notification(src Endpoint) Message {
	msg := Message{Source: src, Type: MsgNotify}
	if src == Hardware {
		msg.Arg1 = int64(e.irqPending)
		e.irqPending = 0
	}
	return msg
}

// notifyEntry posts a notification from the pseudo-source src to the live
// entry d, merged with one already pending, and delivers it at once when
// d is blocked in a receive that takes it.
func (k *Kernel) notifyEntry(d *procEntry, src Endpoint) {
	if d.wants(src) {
		d.deliver(d.notification(src))
		return
	}
	d.notified |= notifyBit(src)
}

// PostAsync queues msg at dst on behalf of the kernel itself (Source =
// System). It is usable from scheduler context — device completions and
// death hooks use it to hand events to system processes.
func (k *Kernel) PostAsync(dst Endpoint, msg Message) error {
	k.perf.Begin(perf.RegionKernelIPC)
	defer k.perf.End(perf.RegionKernelIPC)
	d := k.lookup(dst)
	if d == nil {
		return ErrDeadDst
	}
	msg.Source = System
	if d.wants(System) {
		d.deliver(msg)
		return nil
	}
	d.asyncQ = append(d.asyncQ, msg)
	return nil
}

// asyncSend queues msg at the destination without blocking the sender.
func (k *Kernel) asyncSend(e *procEntry, dst Endpoint, msg Message) error {
	if !e.alive {
		return ErrDying
	}
	k.perf.Begin(perf.RegionKernelIPC)
	defer k.perf.End(perf.RegionKernelIPC)
	d := k.lookup(dst)
	if d == nil {
		return ErrDeadDst
	}
	if !e.priv.allowsIPCTo(d.label) {
		return ErrNotAllowed
	}
	if k.obs != nil {
		if !msg.Trace.Valid() {
			msg.Trace = e.traceCtx
		}
		k.ipcSend.Add(1)
		k.obs.EmitCtx(obs.KindIPCSend, e.label, d.label, int64(msg.Type), 1, msg.Trace)
	}
	msg.Source = e.ep
	if d.wants(e.ep) {
		d.deliver(msg)
		return nil
	}
	d.asyncQ = append(d.asyncQ, msg)
	return nil
}
