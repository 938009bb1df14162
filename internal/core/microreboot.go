package core

import (
	"fmt"

	"resilientos/internal/kernel"
	"resilientos/internal/obs/decision"
	"resilientos/internal/proto"
)

// microBudget is how many in-place microreboots one instance may perform
// before RS denies further requests and forces a full respawn — the
// escalation rung for a VM whose state is corrupt beyond an in-place
// reset. A full respawn (or a long stable run) resets the budget.
const microBudget = 3

// [recovery:begin]
// onMicroAsk arbitrates a driver's request to microreboot its faulted
// ucode VM in place. Every granted microreboot is charged against the
// same consecutive-failure budget as a respawn — MaxRestarts bounds
// recoveries, not process spawns — and against the per-instance
// microreboot budget; when either is exhausted the request is denied,
// the driver carries out its original fatal, and the ladder escalates to
// a full respawn (which resets the microreboot budget).
func (rs *RS) onMicroAsk(c *kernel.Ctx, m kernel.Message) {
	svc := rs.lookup(m.Name)
	reply := kernel.Message{Type: proto.RSAck, Arg1: proto.OK}
	if svc == nil || m.Source != svc.ep || svc.cfg.Mechanism != MechMicroreboot ||
		(svc.phase != PhaseServing && svc.phase != PhaseMicrorebooting) {
		reply.Arg1 = proto.ErrPerm
		_ = c.Send(m.Source, reply)
		return
	}
	class := Defect(m.Arg1)
	if class < DefectExit || class > DefectUpdate {
		class = DefectExit
	}
	svc.creditStableRun(c.Now())
	var deny string
	switch {
	case svc.microCount >= microBudget:
		deny = fmt.Sprintf("microreboot budget exhausted (%d/%d)", svc.microCount, microBudget)
	case svc.cfg.MaxRestarts > 0 && svc.failures+1 > svc.cfg.MaxRestarts:
		deny = "restart budget exhausted"
	}
	if deny != "" {
		rs.decide(svc, class, decision.Event{Kind: decision.KindTrigger,
			Action: "microreboot-deny", Detail: deny})
		reply.Arg1 = proto.ErrAgain
		_ = c.Send(m.Source, reply)
		return
	}
	svc.failures++
	svc.lastFailure = c.Now()
	svc.microCount++
	svc.setPhase(PhaseMicrorebooting)
	svc.class = class
	rs.openEpisode(c, svc, class)
	if rs.dec != nil {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction, Action: "microreboot",
			Detail: fmt.Sprintf("in-place vm reset %d/%d", svc.microCount, microBudget)})
	}
	_ = c.Send(m.Source, reply)
}

// onMicroDone closes an in-place microreboot episode: the driver is
// serving again on the same endpoint, so there is no republish and no
// reintegration — only the books are settled.
func (rs *RS) onMicroDone(c *kernel.Ctx, m kernel.Message) {
	svc := rs.lookup(m.Name)
	if svc == nil || m.Source != svc.ep || svc.phase != PhaseMicrorebooting {
		return
	}
	svc.restartHeartbeat(c.Now())
	rs.settle(c, svc, svc.class, "microreboot")
}

// [recovery:end]
