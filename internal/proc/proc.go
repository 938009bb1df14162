// Package proc implements the process manager (PM). PM is the parent-side
// bookkeeper of paper §5.1: it observes every system-process death through
// the kernel, records the exit status or killing signal, and reports it to
// the reincarnation server — the SIGCHLD path that feeds defect classes
// 1–3.
//
// Notably, PM itself needs *zero* recovery-specific code (Fig. 9 lists the
// process manager at 0 recovery LoC): everything here is ordinary POSIX
// process management; the recovery logic lives in the reincarnation server.
package proc

import (
	"resilientos/internal/kernel"
	"resilientos/internal/proto"
)

// Label is PM's stable component label.
const Label = "pm"

// Privileges returns the privilege set PM runs with.
func Privileges() kernel.Privileges {
	return kernel.Privileges{
		AllowAllIPC: true,
		UID:         0,
	}
}

// PM is the process manager.
type PM struct {
	ctx        *kernel.Ctx
	subscriber kernel.Endpoint // the reincarnation server, once subscribed
	backlog    []kernel.Message
}

// Start spawns the process manager on k and returns its endpoint. The
// kernel death hook is registered immediately so no death is missed
// between boot steps.
func Start(k *kernel.Kernel) (kernel.Endpoint, error) {
	pm := &PM{}
	ctx, err := k.Spawn(Label, Privileges(), pm.run)
	if err != nil {
		return kernel.None, err
	}
	pmEp := ctx.Endpoint()
	k.OnDeath(func(label string, ep kernel.Endpoint, cause kernel.Cause) {
		if label == Label {
			return // PM does not report its own death
		}
		msg := exitEventMessage(label, ep, cause)
		// Hand the event to PM's message loop; PM forwards it to the
		// subscriber (the reincarnation server).
		_ = k.PostAsync(pmEp, msg)
	})
	return pmEp, nil
}

func exitEventMessage(label string, ep kernel.Endpoint, cause kernel.Cause) kernel.Message {
	msg := kernel.Message{
		Type: proto.PMExitEvent,
		Name: label,
		Arg1: int64(ep),
	}
	switch cause.Kind {
	case kernel.CauseExit:
		msg.Arg2 = proto.CauseExit
		msg.Arg3 = int64(cause.Status)
	case kernel.CauseSignal:
		msg.Arg2 = proto.CauseSignal
		msg.Arg3 = int64(cause.Signal)
	case kernel.CauseException:
		msg.Arg2 = proto.CauseException
		msg.Arg3 = int64(cause.Signal)
		msg.Arg4 = int64(cause.Exc)
	}
	return msg
}

// run is PM's message loop.
func (pm *PM) run(c *kernel.Ctx) {
	pm.ctx = c
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		switch m.Type {
		case proto.PMExitEvent:
			// Kernel-originated (Source == System): forward to subscriber.
			if m.Source != kernel.System {
				continue // forged exit events are ignored
			}
			pm.forward(m)
		case proto.PMSubscribe:
			pm.subscriber = m.Source
			reply := kernel.Message{Type: proto.PMAck, Arg1: proto.OK}
			_ = c.Send(m.Source, reply)
			// Drain anything that died before the subscriber arrived.
			backlog := pm.backlog
			pm.backlog = nil
			for _, ev := range backlog {
				pm.forward(ev)
			}
		}
	}
}

func (pm *PM) forward(ev kernel.Message) {
	if pm.subscriber == kernel.None || pm.subscriber == 0 {
		pm.backlog = append(pm.backlog, ev)
		return
	}
	ev.Source = 0 // rewritten by the kernel on send
	if err := pm.ctx.AsyncSend(pm.subscriber, ev); err != nil {
		pm.backlog = append(pm.backlog, ev)
		pm.subscriber = kernel.None
	}
}
