package core

import (
	"fmt"
	"strings"

	"resilientos/internal/drvlib"
	"resilientos/internal/kernel"
	"resilientos/internal/obs/decision"
	"resilientos/internal/proto"
)

// spawnStandby parks a fresh warm replica for svc under the "/sb" label.
// The replica runs the same binary with the same privileges but does not
// touch the device until promoted (internal/drvlib's standby loop parks
// it before Init).
// [recovery:begin]
func (rs *RS) spawnStandby(c *kernel.Ctx, svc *service) {
	if svc.standbyEp != kernel.None || svc.phase == PhaseStopping || svc.phase == PhaseStopped || svc.phase == PhaseGaveUp {
		return
	}
	if ep, err := c.Spawn(drvlib.StandbyLabel(svc.cfg.Label), svc.cfg.Priv, svc.cfg.Binary); err == nil {
		svc.standbyEp = ep
	}
}

// killStandby retires the parked replica (give-up, administrative stop).
// The endpoint is cleared before the kill so the resulting death event is
// not mistaken for a replica crash and back-filled.
func (rs *RS) killStandby(c *kernel.Ctx, svc *service, sig kernel.Signal) {
	if ep := svc.standbyEp; ep != kernel.None {
		svc.standbyEp = kernel.None
		_ = c.Kill(ep, sig)
	}
}

// onStandbyExit handles a parked replica dying: clear it and back-fill,
// so the pool self-heals. Deliberate retirements (give-up, stop,
// promotion) clear standbyEp before acting and are ignored here.
func (rs *RS) onStandbyExit(c *kernel.Ctx, m kernel.Message) {
	svc := rs.lookup(strings.TrimSuffix(m.Name, drvlib.StandbySuffix))
	if svc == nil || kernel.Endpoint(m.Arg1) != svc.standbyEp {
		return
	}
	svc.standbyEp = kernel.None
	if svc.cfg.Mechanism == MechStandby {
		rs.spawnStandby(c, svc)
	}
}

// promoteStandby fails over to the parked warm replica: the kernel
// relabels the replica onto the service label, the replica is told to
// attach, and the data store atomically republishes the endpoint — no
// spawn and no cold device reset on the critical path, which is what
// makes the Fig. 7 dip shallower than a respawn. A fresh standby is
// back-filled in the same turn. Returns false (the caller falls back to
// the spawn path) if the kernel refuses the relabel.
func (rs *RS) promoteStandby(c *kernel.Ctx, svc *service, class Defect) bool {
	ep := svc.standbyEp
	svc.standbyEp = kernel.None
	if err := c.Relabel(ep, svc.cfg.Label); err != nil {
		return false
	}
	if rs.dec != nil {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "promote-standby", Detail: fmt.Sprintf("replica=%v", ep)})
	}
	c.SetTraceCtx(svc.episode)
	svc.serveFrom(c, ep)
	// The promote must be queued at the replica before the data-store
	// fanout lets dependents talk to it; per-receiver delivery is arrival
	// order, so the replica attaches before serving its first request.
	_ = c.AsyncSend(ep, kernel.Message{Type: proto.RSPromote, Name: svc.cfg.Label})
	// As in spawnInstance, a failover the data store does not answer has
	// no fallback.
	_, _ = c.SendRec(rs.dsEp, kernel.Message{
		Type: proto.DSFailover, Name: svc.cfg.Label, Arg1: int64(ep),
	})
	rs.settle(c, svc, class, "promote-standby")
	rs.spawnStandby(c, svc) // back-fill the pool in the background
	return true
}

// [recovery:end]
