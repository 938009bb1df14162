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
//   - SendRec: Send followed by Receive from the same destination (the
//     standard request/reply shape for driver protocols).
//   - Notify: nonblocking notification bit, never fails against a live
//     target, merged if already pending.
//   - AsyncSend: nonblocking queued message (MINIX senda), used by the
//     reincarnation server for heartbeat pings so a stuck driver cannot
//     block it (paper §5.1).
//
// Delivery priority in Receive follows MINIX: notifications (Hardware,
// Clock, System first) > async messages > queued senders.

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
	if d.recvWait && (d.recvFrom == Any || d.recvFrom == e.ep) {
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
func (k *Kernel) receive(e *procEntry, from Endpoint) (Message, error) {
	m, err := k.receiveInner(e, from)
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

// receiveInner implements the blocking receive for e. As in send, the
// wall-clock region covers the delivery scan only, never the park.
func (k *Kernel) receiveInner(e *procEntry, from Endpoint) (Message, error) {
	if !e.alive {
		return Message{}, ErrDying
	}
	k.perf.Begin(perf.RegionKernelIPC)
	for {
		// 1. Pending notifications, pseudo-sources first.
		if msg, ok := e.takeNotification(from); ok {
			k.perf.End(perf.RegionKernelIPC)
			return msg, nil
		}
		// 2. Queued asynchronous messages.
		for i, m := range e.asyncQ {
			if from == Any || m.Source == from {
				e.asyncQ = append(e.asyncQ[:i], e.asyncQ[i+1:]...)
				k.perf.End(perf.RegionKernelIPC)
				return m, nil
			}
		}
		// 3. Blocked senders.
		for i, s := range e.senders {
			if from == Any || s.ep == from {
				e.senders = append(e.senders[:i], e.senders[i+1:]...)
				msg := s.sendMsg
				s.sendTo = nil
				s.sendMsg = Message{}
				s.proc.Wake(sendOK{})
				k.perf.End(perf.RegionKernelIPC)
				return msg, nil
			}
		}
		// 4. If waiting for a specific process source, make sure it is
		// alive (pseudo-sources like Hardware/Clock never "die").
		if from.valid() && k.lookup(from) == nil {
			k.perf.End(perf.RegionKernelIPC)
			return Message{}, ErrSrcDied
		}
		// 5. Block.
		e.recvWait = true
		e.recvFrom = from
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
}

// deliver hands msg to a process blocked in Receive. The message waits in
// the entry's inbox and the wake value only says it is there: boxing a
// Message into Park's return value would allocate on every delivery.
func (d *procEntry) deliver(msg Message) {
	d.recvWait = false
	d.inbox = msg
	d.proc.Wake(delivered{})
}

// takeNotification pops the highest-priority pending notification matching
// from, building its message.
func (e *procEntry) takeNotification(from Endpoint) (Message, bool) {
	pick := -1
	// Pseudo-sources get priority in fixed order.
	for _, pri := range []Endpoint{Hardware, Clock, System} {
		if from != Any && from != pri {
			continue
		}
		for i, src := range e.notifyQ {
			if src == pri {
				pick = i
				break
			}
		}
		if pick >= 0 {
			break
		}
	}
	if pick < 0 {
		for i, src := range e.notifyQ {
			if from == Any || src == from {
				pick = i
				break
			}
		}
	}
	if pick < 0 {
		return Message{}, false
	}
	src := e.notifyQ[pick]
	e.notifyQ = append(e.notifyQ[:pick], e.notifyQ[pick+1:]...)
	msg := Message{Source: src, Type: MsgNotify}
	if src == Hardware {
		msg.Arg1 = int64(e.irqPending)
		e.irqPending = 0
	}
	return msg, true
}

// tryReceive is the nonblocking receive (MINIX's RECEIVE with the
// non-blocking flag): it returns a matching pending notification, queued
// async message, or blocked sender's message if one exists, and reports
// false otherwise. Like receive, it adopts the delivered message's causal
// context.
func (k *Kernel) tryReceive(e *procEntry, from Endpoint) (Message, bool) {
	m, ok := k.tryReceiveInner(e, from)
	if ok && k.obs != nil && m.Type != MsgNotify {
		e.traceCtx = m.Trace
	}
	return m, ok
}

func (k *Kernel) tryReceiveInner(e *procEntry, from Endpoint) (Message, bool) {
	if !e.alive {
		return Message{}, false
	}
	k.perf.Begin(perf.RegionKernelIPC)
	defer k.perf.End(perf.RegionKernelIPC)
	if msg, ok := e.takeNotification(from); ok {
		return msg, true
	}
	for i, m := range e.asyncQ {
		if from == Any || m.Source == from {
			e.asyncQ = append(e.asyncQ[:i], e.asyncQ[i+1:]...)
			return m, true
		}
	}
	for i, snd := range e.senders {
		if from == Any || snd.ep == from {
			e.senders = append(e.senders[:i], e.senders[i+1:]...)
			msg := snd.sendMsg
			snd.sendTo = nil
			snd.sendMsg = Message{}
			snd.proc.Wake(sendOK{})
			return msg, true
		}
	}
	return Message{}, false
}

// notify posts a notification from src to the entry, merging duplicates,
// and delivers immediately when the target is blocked and matching.
func (k *Kernel) notifyEntry(d *procEntry, src Endpoint) {
	if d == nil || !d.alive {
		return
	}
	if d.recvWait && (d.recvFrom == Any || d.recvFrom == src) {
		msg := Message{Source: src, Type: MsgNotify}
		if src == Hardware {
			msg.Arg1 = int64(d.irqPending)
			d.irqPending = 0
		}
		d.deliver(msg)
		return
	}
	for _, pending := range d.notifyQ {
		if pending == src {
			return // merged
		}
	}
	d.notifyQ = append(d.notifyQ, src)
}

// notifyFrom is the process-level notify call.
func (k *Kernel) notifyFrom(e *procEntry, dst Endpoint) error {
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
	k.notifyEntry(d, e.ep)
	return nil
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
	if d.recvWait && (d.recvFrom == Any || d.recvFrom == System) {
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
	if d.recvWait && (d.recvFrom == Any || d.recvFrom == e.ep) {
		d.deliver(msg)
		return nil
	}
	d.asyncQ = append(d.asyncQ, msg)
	return nil
}
