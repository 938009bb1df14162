package core

import (
	"fmt"
	"testing"
	"time"

	"resilientos/internal/ds"
	"resilientos/internal/kernel"
	"resilientos/internal/obs/decision"
	"resilientos/internal/policy"
	"resilientos/internal/proc"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// rig is a booted minimal system: kernel + PM + DS + RS.
type rig struct {
	env  *sim.Env
	k    *kernel.Kernel
	rs   *RS
	ds   *ds.DS
	dsEp kernel.Endpoint
	pmEp kernel.Endpoint
}

func boot(t *testing.T, opts ...Option) *rig {
	t.Helper()
	env := sim.NewEnv(1)
	k := kernel.New(env)
	pmEp, err := proc.Start(k)
	if err != nil {
		t.Fatal(err)
	}
	d, dsEp, err := ds.StartServer(k)
	if err != nil {
		t.Fatal(err)
	}
	rs, err := Start(k, pmEp, dsEp, opts...)
	if err != nil {
		t.Fatal(err)
	}
	return &rig{env: env, k: k, rs: rs, ds: d, dsEp: dsEp, pmEp: pmEp}
}

// published reads name's entry in the data store's naming table.
func (r *rig) published(name string) (ep kernel.Endpoint, ok bool) {
	r.ds.VisitNames(func(n string, e kernel.Endpoint) {
		if n == name {
			ep, ok = e, true
		}
	})
	return ep, ok
}

// steadyBody is a well-behaved service: answers heartbeats forever.
func steadyBody(c *kernel.Ctx) {
	for {
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		if m.Type == proto.RSPing {
			_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong})
		}
		if m.Type == kernel.MsgNotify && m.Source == kernel.System {
			for _, sig := range c.SigPending() {
				if sig == kernel.SIGTERM {
					c.Exit(0)
				}
			}
		}
	}
}

// crashAfter returns a body that panics (exit status 2) after d.
func crashAfter(d sim.Time) Binary {
	return func(c *kernel.Ctx) {
		c.Sleep(d)
		c.Panic("induced failure")
	}
}

func svcCfg(label string, b Binary) ServiceConfig {
	return ServiceConfig{
		Label:  label,
		Binary: b,
		Priv:   kernel.Privileges{AllowAllIPC: true},
	}
}

func TestServiceStartPublishesEndpoint(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.env.Run(2 * time.Second)
	ep, _ := r.published("drv")
	if ep <= 0 {
		t.Fatalf("published endpoint = %d", ep)
	}
	if ep != r.rs.ServiceEndpoint("drv") {
		t.Fatal("DS and RS disagree about the endpoint")
	}
}

func TestDefectClass1PanicRestart(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", crashAfter(time.Second)))
	r.env.Run(3 * time.Second)
	events := r.rs.Events()
	if len(events) == 0 {
		t.Fatal("no recovery events")
	}
	if events[0].Defect != DefectExit {
		t.Fatalf("defect = %v, want exit/panic", events[0].Defect)
	}
	if !events[0].Recovered {
		t.Fatal("not recovered")
	}
	if r.rs.ServiceEndpoint("drv") == kernel.None {
		t.Fatal("service not running after recovery")
	}
}

func TestDefectClass2ExceptionRestart(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		c.Trap(kernel.ExcMMU)
	}))
	r.env.Run(3 * time.Second)
	events := r.rs.Events()
	if len(events) == 0 || events[0].Defect != DefectException {
		t.Fatalf("events = %+v, want exception", events)
	}
}

func TestDefectClass3UserKillRestart(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.env.Schedule(time.Second, func() {
		r.rs.KillService("drv", kernel.SIGKILL)
	})
	r.env.Run(3 * time.Second)
	events := r.rs.Events()
	if len(events) != 1 || events[0].Defect != DefectKilled {
		t.Fatalf("events = %+v, want one killed", events)
	}
	if r.rs.ServiceEndpoint("drv") == kernel.None {
		t.Fatal("not restarted")
	}
}

func TestDefectClass4HeartbeatStuck(t *testing.T) {
	r := boot(t)
	// A service that answers pings for 2 seconds, then wedges.
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		deadline := c.Now() + 2*time.Second
		for c.Now() < deadline {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSPing {
				_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong})
			}
		}
		for { // stuck: alive but unresponsive
			c.Sleep(time.Hour)
		}
	})
	cfg.HeartbeatPeriod = 500 * time.Millisecond
	cfg.HeartbeatMisses = 3
	r.rs.StartService(cfg)
	r.env.Run(10 * time.Second)
	events := r.rs.Events()
	if len(events) == 0 {
		t.Fatal("stuck driver never detected")
	}
	if events[0].Defect != DefectHeartbeat {
		t.Fatalf("defect = %v, want heartbeat", events[0].Defect)
	}
	// Detection latency: ~N+1 periods after it wedged at t=2s.
	if events[0].Time > 2*time.Second+4*500*time.Millisecond+time.Second {
		t.Fatalf("detected too late: %v", events[0].Time)
	}
	if r.rs.ServiceEndpoint("drv") == kernel.None {
		t.Fatal("not restarted")
	}
}

func TestHealthyServiceNotKilledByHeartbeat(t *testing.T) {
	r := boot(t)
	cfg := svcCfg("drv", steadyBody)
	cfg.HeartbeatPeriod = 200 * time.Millisecond
	r.rs.StartService(cfg)
	r.env.Run(10 * time.Second)
	if len(r.rs.Events()) != 0 {
		t.Fatalf("healthy service produced events: %+v", r.rs.Events())
	}
}

func TestDefectClass5Complaint(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	var ackOK, ackDenied int64
	// Authorized complainer (the file server role).
	r.k.Spawn("fs", kernel.Privileges{AllowAllIPC: true, MayComplain: true}, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		reply, err := c.SendRec(r.rs.Endpoint(), kernel.Message{Type: proto.RSComplain, Name: "drv"})
		if err != nil {
			t.Errorf("complain: %v", err)
			return
		}
		ackOK = reply.Arg1
	})
	r.env.Run(3 * time.Second)
	events := r.rs.Events()
	if ackOK != proto.OK {
		t.Fatalf("authorized complaint ack = %d", ackOK)
	}
	if len(events) != 1 || events[0].Defect != DefectComplaint {
		t.Fatalf("events = %+v, want one complaint", events)
	}
	// Unauthorized complainer is rejected.
	r.k.Spawn("rogue", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		reply, err := c.SendRec(r.rs.Endpoint(), kernel.Message{Type: proto.RSComplain, Name: "drv"})
		if err != nil {
			t.Errorf("complain: %v", err)
			return
		}
		ackDenied = reply.Arg1
	})
	r.env.Run(2 * time.Second)
	if ackDenied != proto.ErrPerm {
		t.Fatalf("unauthorized complaint ack = %d, want ErrPerm", ackDenied)
	}
	if len(r.rs.Events()) != 1 {
		t.Fatal("unauthorized complaint triggered recovery")
	}
}

func TestDefectClass6DynamicUpdate(t *testing.T) {
	r := boot(t)
	version := ""
	mkBody := func(v string) Binary {
		return func(c *kernel.Ctx) {
			version = v
			steadyBody(c)
		}
	}
	cfg := svcCfg("drv", mkBody("v1"))
	cfg.Version = "v1"
	r.rs.StartService(cfg)
	r.env.Schedule(time.Second, func() {
		cfg2 := svcCfg("drv", mkBody("v2"))
		cfg2.Version = "v2"
		r.rs.UpdateService(cfg2)
	})
	r.env.Run(5 * time.Second)
	if version != "v2" {
		t.Fatalf("running version = %q, want v2", version)
	}
	events := r.rs.Events()
	if len(events) != 1 || events[0].Defect != DefectUpdate {
		t.Fatalf("events = %+v, want one update", events)
	}
	if r.rs.FailureCount("drv") != 0 {
		t.Fatalf("update bumped failure count to %d", r.rs.FailureCount("drv"))
	}
}

func TestUpdateEscalatesToSIGKILL(t *testing.T) {
	r := boot(t)
	// A service that ignores SIGTERM.
	started := 0
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		started++
		for {
			if _, err := c.Receive(kernel.Any); err != nil {
				return
			}
			// Ignores all signals and pings.
		}
	})
	r.rs.StartService(cfg)
	r.env.Schedule(time.Second, func() { r.rs.UpdateService(cfg) })
	r.env.Run(5 * time.Second)
	if started != 2 {
		t.Fatalf("instances started = %d, want 2 (SIGKILL escalation)", started)
	}
}

func TestStopServiceNoRecovery(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.env.Schedule(time.Second, func() { r.rs.StopService("drv") })
	r.env.Run(5 * time.Second)
	if len(r.rs.Events()) != 0 {
		t.Fatalf("administrative stop produced events: %+v", r.rs.Events())
	}
	if r.rs.ServiceEndpoint("drv") != kernel.None {
		t.Fatal("service still running after stop")
	}
}

func TestEndpointChangesAcrossRestart(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", crashAfter(time.Second)))
	r.env.Run(500 * time.Millisecond)
	first := r.rs.ServiceEndpoint("drv")
	r.env.Run(2 * time.Second)
	second := r.rs.ServiceEndpoint("drv")
	if first == kernel.None || second == kernel.None {
		t.Fatal("service missing")
	}
	if first == second {
		t.Fatal("endpoint did not change across restart")
	}
}

func TestPolicyScriptBackoff(t *testing.T) {
	r := boot(t)
	script := policy.MustParse(`
component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
`)
	cfg := svcCfg("drv", crashAfter(100*time.Millisecond))
	cfg.Policy = script
	r.rs.StartService(cfg)
	r.env.Run(20 * time.Second)
	events := r.rs.Events()
	if len(events) < 3 {
		t.Fatalf("only %d recoveries in 20s", len(events))
	}
	// Consecutive recoveries must be spaced by the exponential backoff:
	// crash ~0.1s after start, then sleep 1, 2, 4... seconds.
	for i := 0; i < len(events)-1 && i < 3; i++ {
		gap := events[i+1].Time - events[i].Time
		wantMin := time.Duration(1<<uint(i+1))*time.Second/2 + 100*time.Millisecond
		if gap < wantMin {
			t.Fatalf("gap %d->%d = %v, want >= %v (backoff)", i, i+1, gap, wantMin)
		}
	}
	// Repetition counts increase.
	if events[1].Repetition != events[0].Repetition+1 {
		t.Fatalf("repetitions: %d then %d", events[0].Repetition, events[1].Repetition)
	}
}

func TestPolicyScriptAlert(t *testing.T) {
	r := boot(t)
	script := policy.MustParse(`
component=$1
reason=$2
repetition=$3
shift 3
service restart $component
status=$?
while getopts a: option; do
	case $option in
	a)
		cat << END | mail -s "Failure Alert" "$OPTARG"
failure: $component, $reason, $repetition
restart status: $status
END
		;;
	esac
done
`)
	cfg := svcCfg("drv", crashAfter(time.Second))
	cfg.Policy = script
	cfg.PolicyParams = []string{"-a", "operator@example.org"}
	cfg.MaxRestarts = 1
	r.rs.StartService(cfg)
	r.env.Run(3 * time.Second)
	alerts := r.rs.Alerts()
	if len(alerts) == 0 {
		t.Fatal("no alert sent")
	}
	a := alerts[0]
	if a.To != "operator@example.org" || a.Subject != "Failure Alert" {
		t.Fatalf("alert = %+v", a)
	}
	if want := "failure: drv, 1, 1"; !contains(a.Body, want) {
		t.Fatalf("alert body %q missing %q", a.Body, want)
	}
}

func TestPolicyScriptReboot(t *testing.T) {
	r := boot(t)
	rebooted := false
	r.rs.onReboot = func() { rebooted = true; r.env.Stop() }
	script := policy.MustParse(`
repetition=$3
if [ $repetition -ge 3 ]; then
	reboot
	exit 0
fi
service restart $1
`)
	cfg := svcCfg("drv", crashAfter(50*time.Millisecond))
	cfg.Policy = script
	r.rs.StartService(cfg)
	r.env.Run(time.Minute)
	if !rebooted {
		t.Fatal("reboot never requested")
	}
	if !r.rs.Rebooted() {
		t.Fatal("Rebooted() = false")
	}
	if len(r.rs.Events()) != 2 {
		t.Fatalf("events before reboot = %d, want 2", len(r.rs.Events()))
	}
}

func TestMaxRestartsGivesUpAndWithdraws(t *testing.T) {
	r := boot(t)
	cfg := svcCfg("drv", crashAfter(10*time.Millisecond))
	cfg.MaxRestarts = 3
	r.rs.StartService(cfg)
	r.env.Run(10 * time.Second)
	events := r.rs.Events()
	var gaveUp bool
	recoveries := 0
	for _, e := range events {
		if e.GaveUp {
			gaveUp = true
		}
		if e.Recovered {
			recoveries++
		}
	}
	if !gaveUp {
		t.Fatal("never gave up")
	}
	if recoveries != 3 {
		t.Fatalf("recoveries = %d, want 3", recoveries)
	}
	// Name must be withdrawn from DS.
	r.env.Run(time.Second)
	if ep, ok := r.published("drv"); ok {
		t.Fatalf("DS still publishes drv as %v after give-up", ep)
	}
}

func TestFailureCountResetsAfterStablePeriod(t *testing.T) {
	r := boot(t)
	// Crashes once, then stays up well past the stable window, then
	// crashes again: the second crash must be repetition 1 again.
	crashes := 0
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		crashes++
		if crashes <= 1 {
			c.Sleep(time.Second)
			c.Panic("first crash")
		}
		if crashes == 2 {
			c.Sleep(stableResetAfter + 10*time.Second)
			c.Panic("late crash")
		}
		steadyBody(c)
	})
	r.rs.StartService(cfg)
	r.env.Run(2 * stableResetAfter)
	events := r.rs.Events()
	if len(events) != 2 {
		t.Fatalf("events = %d, want 2", len(events))
	}
	if events[1].Repetition != 1 {
		t.Fatalf("late crash repetition = %d, want 1 (reset)", events[1].Repetition)
	}
}

func TestRecoveryEventDurations(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", crashAfter(time.Second)))
	r.env.Run(3 * time.Second)
	events := r.rs.Events()
	if len(events) == 0 {
		t.Fatal("no events")
	}
	// Direct restart completes within the same virtual instant.
	if events[0].Duration > 10*time.Millisecond {
		t.Fatalf("direct restart took %v", events[0].Duration)
	}
}

func TestManyServicesIndependentRecovery(t *testing.T) {
	r := boot(t)
	for i := 0; i < 5; i++ {
		label := fmt.Sprintf("drv%d", i)
		if i == 2 {
			r.rs.StartService(svcCfg(label, crashAfter(time.Second)))
		} else {
			cfg := svcCfg(label, steadyBody)
			cfg.HeartbeatPeriod = 300 * time.Millisecond
			r.rs.StartService(cfg)
		}
	}
	r.env.Run(5 * time.Second)
	events := r.rs.Events()
	for _, e := range events {
		if e.Label != "drv2" {
			t.Fatalf("unexpected recovery of %s", e.Label)
		}
	}
	if len(events) == 0 {
		t.Fatal("drv2 never recovered")
	}
}

func TestBrokenPolicyScriptFallsBackToRestart(t *testing.T) {
	r := boot(t)
	script := policy.MustParse(`nonexistent_command_xyz`)
	cfg := svcCfg("drv", crashAfter(time.Second))
	cfg.Policy = script
	r.rs.StartService(cfg)
	r.env.Run(5 * time.Second)
	if r.rs.ServiceEndpoint("drv") == kernel.None {
		t.Fatal("service stranded by broken policy script")
	}
}

func contains(s, sub string) bool {
	return len(s) >= len(sub) && (s == sub || len(sub) == 0 ||
		indexOf(s, sub) >= 0)
}

func indexOf(s, sub string) int {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return i
		}
	}
	return -1
}

func TestStopServiceEscalatesToSIGKILL(t *testing.T) {
	r := boot(t)
	// A service that ignores SIGTERM entirely.
	r.rs.StartService(svcCfg("stubborn", func(c *kernel.Ctx) {
		for {
			if _, err := c.Receive(kernel.Any); err != nil {
				return
			}
		}
	}))
	r.env.Schedule(time.Second, func() { r.rs.StopService("stubborn") })
	r.env.Run(10 * time.Second)
	if r.rs.ServiceEndpoint("stubborn") != kernel.None {
		t.Fatal("stubborn service survived StopService")
	}
	if len(r.rs.Events()) != 0 {
		t.Fatalf("administrative stop produced recovery events: %+v", r.rs.Events())
	}
}

func TestPolicyScriptCanStopService(t *testing.T) {
	// A policy that gives up after 2 failures by stopping the service —
	// the "at least don't crash-loop" strategy of §5.2. The stop ends the
	// third episode: the service reads stopped, not recovering.
	r, sink := decBoot(t)
	script := policy.MustParse(`
if [ $3 -ge 3 ]; then
	service stop $1
	exit 0
fi
service restart $1
`)
	cfg := svcCfg("flaky", crashAfter(50*time.Millisecond))
	cfg.Policy = script
	r.rs.StartService(cfg)
	r.env.Run(30 * time.Second)
	if r.rs.ServiceEndpoint("flaky") != kernel.None {
		t.Fatal("service still running; script's stop was ignored")
	}
	recoveries := 0
	for _, e := range r.rs.Events() {
		if e.Recovered {
			recoveries++
		}
	}
	if recoveries != 2 {
		t.Fatalf("recoveries = %d, want 2 before the scripted stop", recoveries)
	}
	if info := findService(t, r.rs, "flaky"); info.Phase != PhaseStopped {
		t.Fatalf("phase %v, want stopped", info.Phase)
	}
	if problems := decision.Check(sink.Events()); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
}

// TestStopDuringBackoffHolds: an administrative stop that lands while the
// policy script sleeps out its backoff ends the episode as "stopped", and
// the script's later `service restart` is refused, so the stop holds.
func TestStopDuringBackoffHolds(t *testing.T) {
	r, sink := decBoot(t)
	cfg := svcCfg("drv", crashAfter(100*time.Millisecond))
	cfg.Policy = policy.MustParse("sleep 1\nservice restart $1\n")
	r.rs.StartService(cfg)
	r.env.Schedule(500*time.Millisecond, func() { r.rs.StopService("drv") })
	r.env.Run(3 * time.Second)

	if info := findService(t, r.rs, "drv"); info.Phase != PhaseStopped {
		t.Fatalf("phase %v, want stopped", info.Phase)
	}
	if ep := r.k.LookupLabel("drv"); ep != kernel.None {
		t.Fatalf("instance %v runs; the script's restart overrode the stop", ep)
	}
	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) != 1 || outcomes[0].Action != "stopped" || outcomes[0].Status != 1 {
		t.Fatalf("outcomes %+v, want one stopped outcome", outcomes)
	}
	if evs := r.rs.Events(); len(evs) != 0 {
		t.Fatalf("recovery events %+v, want none", evs)
	}
}

func TestHeartbeatNotSentWhenDisabled(t *testing.T) {
	r := boot(t)
	pings := 0
	cfg := svcCfg("quiet", func(c *kernel.Ctx) {
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSPing {
				pings++
			}
		}
	})
	// HeartbeatPeriod zero: no monitoring.
	r.rs.StartService(cfg)
	r.env.Run(10 * time.Second)
	if pings != 0 {
		t.Fatalf("pings = %d for a service without heartbeats", pings)
	}
}

// A second start of a label RS already guards is refused: nothing is
// spawned, and the first instance stays the one RS guards and the kernel
// resolves the label to.
func TestSecondStartIsRefused(t *testing.T) {
	r := boot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.env.Run(time.Second)
	first := r.rs.ServiceEndpoint("drv")
	if first == kernel.None {
		t.Fatal("the first start did not serve")
	}
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.env.Run(2 * time.Second)
	var live []kernel.Endpoint
	r.k.VisitProcs(func(p kernel.ProcInfo) {
		if p.Label == "drv" && p.Alive {
			live = append(live, p.Ep)
		}
	})
	if len(live) != 1 || live[0] != first {
		t.Fatalf("live drv instances %v, want only the first, %v", live, first)
	}
	if got := r.rs.ServiceEndpoint("drv"); got != first {
		t.Errorf("RS guards %v, want the first instance %v", got, first)
	}
	if got := r.k.LookupLabel("drv"); got != first {
		t.Errorf("the label resolves to %v, want the first instance %v", got, first)
	}
	if ep, _ := r.published("drv"); ep != first {
		t.Errorf("the data store publishes %v, want the first instance %v", ep, first)
	}
}
