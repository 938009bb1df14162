package core

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"resilientos/internal/drvlib"
	"resilientos/internal/kernel"
	"resilientos/internal/obs/decision"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
	"resilientos/internal/ucode"
)

// mechDevice is a minimal drvlib.Device with the recovery hooks, shared
// across the instances RS spawns (primary, standby, respawns) — safe
// because the simulation is single-threaded.
type mechDevice struct {
	initCount    int
	promoteCount int
	microCount   int
	failNext     bool          // next request raises a fatal VM outcome
	failMicro    bool          // next in-place reset fails
	microSleep   time.Duration // how long a failing in-place reset takes
}

func (d *mechDevice) Init(c *kernel.Ctx) error { d.initCount++; return nil }
func (d *mechDevice) HandleRequest(c *kernel.Ctx, m kernel.Message) {
	if d.failNext {
		d.failNext = false
		drvlib.React(c, ucode.Result{Outcome: ucode.OutcomeAssert, Reason: "induced fault"})
		return
	}
	_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSAck})
}
func (d *mechDevice) HandleIRQ(c *kernel.Ctx, mask uint64) {}
func (d *mechDevice) Shutdown(c *kernel.Ctx)               {}
func (d *mechDevice) Promote(c *kernel.Ctx) error          { d.promoteCount++; return nil }
func (d *mechDevice) Microreboot(c *kernel.Ctx) error {
	d.microCount++
	if d.failMicro {
		d.failMicro = false
		c.Sleep(d.microSleep)
		return errors.New("induced reset failure")
	}
	return nil
}

func mechBinary(d drvlib.Device, mech Mechanism) Binary {
	return func(c *kernel.Ctx) { drvlib.RunWith(c, d, mech) }
}

func findService(t *testing.T, rs *RS, label string) ServiceInfo {
	t.Helper()
	for _, s := range rs.Services() {
		if s.Label == label {
			return s
		}
	}
	t.Fatalf("service %q not in snapshot", label)
	return ServiceInfo{}
}

// poke makes the device fault on its next request and delivers one.
func poke(r *rig, dev *mechDevice, label string, n int) {
	dev.failNext = true
	target := r.rs.ServiceEndpoint(label)
	r.k.Spawn(fmt.Sprintf("poke%d", n), kernel.Privileges{AllowAllIPC: true},
		func(c *kernel.Ctx) {
			_ = c.AsyncSend(target, kernel.Message{Type: proto.EthSend})
		})
	r.env.Run(time.Second)
}

// TestStandbyPromotionFailsOver is the warm-standby happy path: RS parks
// a replica alongside the primary, an external SIGKILL promotes it via
// the Promoter fast path (no re-init), the data store follows, and a
// fresh standby is back-filled at a new endpoint.
func TestStandbyPromotionFailsOver(t *testing.T) {
	r := boot(t)
	dev := &mechDevice{}
	cfg := svcCfg("drv", mechBinary(dev, MechStandby))
	cfg.Mechanism = MechStandby
	r.rs.StartService(cfg)
	r.env.Run(2 * time.Second)

	primary := r.rs.ServiceEndpoint("drv")
	info := findService(t, r.rs, "drv")
	if info.StandbyEp == kernel.None {
		t.Fatal("no warm standby parked")
	}
	standby := info.StandbyEp
	if standby == primary {
		t.Fatalf("standby shares the primary's endpoint %v", primary)
	}
	if dev.initCount != 1 {
		t.Fatalf("initCount = %d before failover: the parked replica must not touch hardware", dev.initCount)
	}

	r.rs.KillService("drv", kernel.SIGKILL)
	r.env.Run(2 * time.Second)

	if got := r.rs.ServiceEndpoint("drv"); got != standby {
		t.Fatalf("service at %v after failover, want promoted replica %v", got, standby)
	}
	if dev.promoteCount != 1 || dev.initCount != 1 {
		t.Fatalf("promote=%d init=%d: promotion must take the fast-attach path",
			dev.promoteCount, dev.initCount)
	}
	if r.rs.FailureCount("drv") != 1 {
		t.Fatalf("failures = %d, want 1: a promotion counts against the budget",
			r.rs.FailureCount("drv"))
	}
	info = findService(t, r.rs, "drv")
	if info.StandbyEp == kernel.None || info.StandbyEp == standby {
		t.Fatalf("standby pool not back-filled: %v", info.StandbyEp)
	}

	// The data store must agree with RS about the promoted endpoint.
	r.env.Run(time.Second)
	if published, _ := r.published("drv"); published != standby {
		t.Fatalf("DS publishes %v after failover, want %v", published, standby)
	}
}

// TestStandbyReplicaDeathIsBackFilled kills the parked replica, not the
// primary: RS parks a fresh one at a new endpoint and leaves the serving
// instance alone — no failure counted, no recovery booked.
func TestStandbyReplicaDeathIsBackFilled(t *testing.T) {
	r := boot(t)
	dev := &mechDevice{}
	cfg := svcCfg("drv", mechBinary(dev, MechStandby))
	cfg.Mechanism = MechStandby
	r.rs.StartService(cfg)
	r.env.Run(2 * time.Second)

	before := findService(t, r.rs, "drv")
	parked := r.k.LookupLabel(drvlib.StandbyLabel("drv"))
	if parked == kernel.None || parked != before.StandbyEp {
		t.Fatalf("parked replica at %v, RS records %v", parked, before.StandbyEp)
	}
	events := len(r.rs.Events())

	if err := r.k.Kill(parked, kernel.SIGKILL); err != nil {
		t.Fatal(err)
	}
	r.env.Run(2 * time.Second)

	after := findService(t, r.rs, "drv")
	if after.StandbyEp == kernel.None || after.StandbyEp == parked {
		t.Fatalf("standby pool not back-filled: %v (the dead replica was %v)", after.StandbyEp, parked)
	}
	if got := r.k.LookupLabel(drvlib.StandbyLabel("drv")); got != after.StandbyEp {
		t.Fatalf("kernel has the replica at %v, RS at %v", got, after.StandbyEp)
	}
	if after.Ep != before.Ep || after.Phase != before.Phase {
		t.Fatalf("primary %v/%v after the replica died, was %v/%v", after.Ep, after.Phase, before.Ep, before.Phase)
	}
	if got := r.rs.Events(); len(got) != events {
		t.Fatalf("a replica's death booked recovery events: %v", got[events:])
	}
	if after.Failures != 0 || dev.promoteCount != 0 || dev.initCount != 1 {
		t.Fatalf("failures=%d promote=%d init=%d: the primary must be untouched",
			after.Failures, dev.promoteCount, dev.initCount)
	}
}

// TestRelabelRefusesLiveDuplicate pins the kernel half of the
// never-two-owners invariant: a relabel onto a label another live
// process bears must be refused.
func TestRelabelRefusesLiveDuplicate(t *testing.T) {
	r := boot(t)
	spawn := func(label string) kernel.Endpoint {
		ctx, err := r.k.Spawn(label, kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
			_, _ = c.Receive(kernel.Any)
		})
		if err != nil {
			t.Fatal(err)
		}
		return ctx.Endpoint()
	}
	spawn("owner")
	other := spawn("other")
	r.env.Run(10 * time.Millisecond)
	if err := r.k.Relabel(other, "owner"); err == nil {
		t.Fatal("relabel onto a live label accepted: two owners of one name")
	}
}

// TestMicrorebootRecoversInPlace: fatal VM outcomes under MechMicroreboot
// are absorbed in place — same process, same endpoint, no respawn — until
// the per-instance budget runs out, at which point RS denies the request
// and the ladder escalates to a full respawn (which resets the budget).
func TestMicrorebootRecoversInPlace(t *testing.T) {
	r := boot(t)
	dev := &mechDevice{}
	cfg := svcCfg("drv", mechBinary(dev, MechMicroreboot))
	cfg.Mechanism = MechMicroreboot
	r.rs.StartService(cfg)
	r.env.Run(time.Second)
	ep := r.rs.ServiceEndpoint("drv")

	// Three faults: all inside the budget, all absorbed in place.
	for i := 1; i <= 3; i++ {
		poke(r, dev, "drv", i)
		if got := r.rs.ServiceEndpoint("drv"); got != ep {
			t.Fatalf("fault %d: endpoint %v, want %v (microreboot must not respawn)", i, got, ep)
		}
		if dev.microCount != i {
			t.Fatalf("fault %d: %d microreboots", i, dev.microCount)
		}
		if r.rs.FailureCount("drv") != i {
			t.Fatalf("fault %d: failures = %d — each microreboot must be charged",
				i, r.rs.FailureCount("drv"))
		}
	}
	if dev.initCount != 1 {
		t.Fatalf("initCount = %d while rebooting in place", dev.initCount)
	}

	// Fourth fault: budget exhausted, RS denies, the original fatal runs
	// and the service respawns at a fresh endpoint.
	poke(r, dev, "drv", 4)
	respawned := r.rs.ServiceEndpoint("drv")
	if respawned == ep || respawned == kernel.None {
		t.Fatalf("endpoint %v after budget exhaustion, want a fresh respawn", respawned)
	}
	if dev.microCount != 3 || dev.initCount != 2 {
		t.Fatalf("micro=%d init=%d after escalation, want 3 and 2", dev.microCount, dev.initCount)
	}
	if r.rs.FailureCount("drv") != 4 {
		t.Fatalf("failures = %d after escalation, want 4", r.rs.FailureCount("drv"))
	}

	// The respawn earned a fresh budget: the next fault microreboots again.
	poke(r, dev, "drv", 5)
	if got := r.rs.ServiceEndpoint("drv"); got != respawned {
		t.Fatalf("endpoint %v after post-respawn fault, want %v in place", got, respawned)
	}
	if dev.microCount != 4 {
		t.Fatalf("microCount = %d, want 4: respawn must reset the budget", dev.microCount)
	}
}

// TestMicrorebootCountsAgainstMaxRestarts is the give-up accounting
// contract: in-place microreboots consume the same MaxRestarts budget as
// respawns, so a service that keeps faulting gives up after the same
// number of recoveries regardless of mechanism.
func TestMicrorebootCountsAgainstMaxRestarts(t *testing.T) {
	r := boot(t)
	dev := &mechDevice{}
	cfg := svcCfg("drv", mechBinary(dev, MechMicroreboot))
	cfg.Mechanism = MechMicroreboot
	cfg.MaxRestarts = 2
	r.rs.StartService(cfg)
	r.env.Run(time.Second)

	for i := 1; i <= 3; i++ {
		poke(r, dev, "drv", i)
	}
	if dev.microCount != 2 {
		t.Fatalf("%d microreboots granted with MaxRestarts=2, want 2", dev.microCount)
	}
	info := findService(t, r.rs, "drv")
	if info.Phase != PhaseGaveUp {
		t.Fatalf("service did not give up after exhausting MaxRestarts: %+v", info)
	}
	if r.rs.ServiceEndpoint("drv") != kernel.None {
		t.Fatal("abandoned service still has a live endpoint")
	}
	if r.rs.FailureCount("drv") != 3 {
		t.Fatalf("failures = %d at give-up, want 3", r.rs.FailureCount("drv"))
	}
}

// TestMicrorebootFailedResetRespawns walks recover's PhaseMicrorebooting
// branch: RS grants the in-place reset, the reset fails, and the driver
// dies with its original fatal. The death is the tail of the granted
// microreboot, not a second failure: one episode, charged once at
// RSMicroAsk, settled by a full respawn at a fresh endpoint. The episode
// is detected at the ask, so the failed reset's time is part of its
// recovery: the second detection does not restart the clock.
func TestMicrorebootFailedResetRespawns(t *testing.T) {
	r, sink := decBoot(t)
	dev := &mechDevice{failMicro: true, microSleep: 50 * time.Millisecond}
	cfg := svcCfg("drv", mechBinary(dev, MechMicroreboot))
	cfg.Mechanism = MechMicroreboot
	r.rs.StartService(cfg)
	r.env.Run(time.Second)
	ep := r.rs.ServiceEndpoint("drv")

	poke(r, dev, "drv", 1)

	respawned := r.rs.ServiceEndpoint("drv")
	if respawned == ep || respawned == kernel.None {
		t.Fatalf("endpoint %v after the failed reset, want a fresh respawn (was %v)", respawned, ep)
	}
	if dev.microCount != 1 || dev.initCount != 2 {
		t.Fatalf("micro=%d init=%d, want 1 failed reset and 2 inits", dev.microCount, dev.initCount)
	}
	events := r.rs.Events()
	if len(events) != 1 || !events[0].Recovered || events[0].Repetition != 1 || events[0].NewEp != respawned {
		t.Fatalf("events %+v, want one recovery at repetition 1 onto %v", events, respawned)
	}
	if got := r.rs.FailureCount("drv"); got != 1 {
		t.Fatalf("failures = %d, want 1: the death must not be charged again", got)
	}
	decs := sink.Events()
	if problems := decision.Check(decs); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	outcomes := byKind(decs, decision.KindOutcome)
	if len(outcomes) != 1 || outcomes[0].Action != "recovered" {
		t.Fatalf("outcomes %+v, want the one episode recovered", outcomes)
	}
	var asked sim.Time
	for _, d := range byKind(decs, decision.KindAction) {
		if d.Action == "microreboot" {
			asked = d.T
		}
	}
	if ev := events[0]; ev.Time != asked || ev.Duration < dev.microSleep || outcomes[0].Latency != ev.Duration {
		t.Fatalf("recovery at %v taking %v, outcome latency %v; want it detected at the ask (%v), "+
			"at least the %v reset, and the latency equal to the duration",
			ev.Time, ev.Duration, outcomes[0].Latency, asked, dev.microSleep)
	}
}
