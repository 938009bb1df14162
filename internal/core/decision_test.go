package core

import (
	"fmt"
	"slices"
	"strings"
	"testing"
	"time"

	"resilientos/internal/ds"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/policy"
	"resilientos/internal/proc"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// decBoot boots a rig with a decision recorder attached.
func decBoot(t *testing.T, opts ...Option) (*rig, *decision.SliceSink) {
	t.Helper()
	sink := &decision.SliceSink{}
	rec := decision.NewRecorder(sink)
	r := boot(t, append(opts, WithDecisions(rec))...)
	rec.SetClock(r.env.Now)
	return r, sink
}

func byKind(events []decision.Event, k decision.Kind) []decision.Event {
	var out []decision.Event
	for _, e := range events {
		if e.Kind == k {
			out = append(out, e)
		}
	}
	return out
}

func TestDecisionDirectRestart(t *testing.T) {
	r, sink := decBoot(t)
	r.rs.StartService(svcCfg("drv", crashAfter(time.Second)))
	r.env.Run(3 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	detects := byKind(events, decision.KindDetect)
	if len(detects) == 0 {
		t.Fatal("no detect events")
	}
	d := detects[0]
	if d.Service != "drv" || d.Defect != int(DefectExit) || d.Failures != 1 || d.Budget != -1 {
		t.Fatalf("detect = %+v", d)
	}
	actions := byKind(events, decision.KindAction)
	if len(actions) == 0 || actions[0].Action != "restart-direct" {
		t.Fatalf("actions = %+v", actions)
	}
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) == 0 {
		t.Fatal("no outcome")
	}
	o := outcomes[0]
	if o.Action != "recovered" || o.Status != 0 {
		t.Fatalf("outcome = %+v", o)
	}
	// Direct restart completes in the same virtual instant as detection;
	// the latency must agree with the recovery event log.
	if o.Latency != r.rs.Events()[0].Duration {
		t.Fatalf("latency %v != event duration %v", o.Latency, r.rs.Events()[0].Duration)
	}
}

func TestDecisionPolicyScriptTrail(t *testing.T) {
	r, sink := decBoot(t)
	script := policy.MustParse(`
component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
`)
	// Crash exactly once so the log ends with the episode closed.
	crashed := false
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		if !crashed {
			crashed = true
			c.Sleep(100 * time.Millisecond)
			c.Panic("induced failure")
		}
		steadyBody(c)
	})
	cfg.Policy = script
	r.rs.StartService(cfg)
	r.env.Run(5 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	actions := byKind(events, decision.KindAction)
	if len(actions) == 0 || actions[0].Action != "policy-run" {
		t.Fatalf("actions = %+v", actions)
	}
	if !strings.Contains(actions[0].Detail, "drv 1 1") {
		t.Fatalf("policy-run detail = %q, want script args", actions[0].Detail)
	}
	steps := byKind(events, decision.KindPolicyStep)
	var sleepStep, serviceStep, exitStep *decision.Event
	for i := range steps {
		switch steps[i].Action {
		case "sleep":
			if sleepStep == nil {
				sleepStep = &steps[i]
			}
		case "service":
			if serviceStep == nil {
				serviceStep = &steps[i]
			}
		case "exit":
			if exitStep == nil {
				exitStep = &steps[i]
			}
		}
	}
	if sleepStep == nil || serviceStep == nil || exitStep == nil {
		t.Fatalf("missing steps: sleep=%v service=%v exit=%v", sleepStep, serviceStep, exitStep)
	}
	// First crash: repetition 1 -> backoff 1<<0 = 1s, surfaced as Delay.
	if sleepStep.Delay != sim.Time(time.Second) {
		t.Fatalf("sleep delay = %v, want 1s", sleepStep.Delay)
	}
	// The step detail carries argv and the arith/variable state.
	if !strings.Contains(sleepStep.Detail, "sleep 1") ||
		!strings.Contains(sleepStep.Detail, "component=drv") ||
		!strings.Contains(sleepStep.Detail, "repetition=1") {
		t.Fatalf("sleep detail = %q", sleepStep.Detail)
	}
	if !strings.Contains(serviceStep.Detail, "service restart drv") || serviceStep.Status != 0 {
		t.Fatalf("service step = %+v", serviceStep)
	}
	if exitStep.Status != 0 {
		t.Fatalf("exit step status = %d", exitStep.Status)
	}
	// The outcome lands between the service step and the runner's exit
	// (the restart request completes the recovery mid-script).
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) == 0 || outcomes[0].Action != "recovered" {
		t.Fatalf("outcomes = %+v", outcomes)
	}
}

// TestPolicyServiceUpdateIsRefused: a script cannot name a new binary,
// so RS refuses its `service update` and the builtin returns 1. The
// script goes on, restarts the driver and exits, and the episode settles.
// RS used to drop the request and leave the runner blocked for good.
func TestPolicyServiceUpdateIsRefused(t *testing.T) {
	r, sink := decBoot(t)
	crashed := false
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		if !crashed {
			crashed = true
			c.Sleep(100 * time.Millisecond)
			c.Panic("induced failure")
		}
		steadyBody(c)
	})
	cfg.Policy = policy.MustParse(`
service update $1
service restart $1
exit 0
`)
	r.rs.StartService(cfg)
	r.env.Run(2 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	var steps []string
	for _, e := range byKind(events, decision.KindPolicyStep) {
		steps = append(steps, fmt.Sprintf("%s %q %d", e.Action, e.Detail, e.Status))
	}
	want := []string{`service "service update drv" 1`, `service "service restart drv" 0`, `exit "" 0`}
	if !slices.Equal(steps, want) {
		t.Fatalf("policy steps = %q, want %q", steps, want)
	}
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) != 1 || outcomes[0].Action != "recovered" {
		t.Fatalf("outcomes = %+v", outcomes)
	}
	if info := r.rs.Services()[0]; info.Phase != PhaseServing {
		t.Fatalf("drv in phase %v after the script, want serving", info.Phase)
	}
}

func TestDecisionGiveUp(t *testing.T) {
	r, sink := decBoot(t)
	cfg := svcCfg("flaky", crashAfter(50*time.Millisecond))
	cfg.MaxRestarts = 2
	r.rs.StartService(cfg)
	r.env.Run(10 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	detects := byKind(events, decision.KindDetect)
	// Budget counts down: 1 remaining after first failure, 0 after the
	// second, then the third failure exhausts it.
	if len(detects) != 3 {
		t.Fatalf("detects = %d, want 3", len(detects))
	}
	if detects[0].Budget != 1 || detects[1].Budget != 0 || detects[2].Budget != 0 {
		t.Fatalf("budgets = %d,%d,%d", detects[0].Budget, detects[1].Budget, detects[2].Budget)
	}
	var gaveUp *decision.Event
	for _, e := range byKind(events, decision.KindOutcome) {
		if e.Action == "gave-up" {
			e := e
			gaveUp = &e
		}
	}
	if gaveUp == nil {
		t.Fatal("no gave-up outcome")
	}
	if gaveUp.Status != 1 || gaveUp.Failures != 3 {
		t.Fatalf("gave-up = %+v", gaveUp)
	}
	var act *decision.Event
	for _, e := range byKind(events, decision.KindAction) {
		if e.Action == "give-up" {
			e := e
			act = &e
		}
	}
	if act == nil {
		t.Fatal("no give-up action")
	}
}

func TestDecisionHeartbeatWindow(t *testing.T) {
	r, sink := decBoot(t)
	// Answers the first two pings, then wedges (receives but stays mute).
	cfg := svcCfg("mute", func(c *kernel.Ctx) {
		answered := 0
		for {
			m, err := c.Receive(kernel.Any)
			if err != nil {
				return
			}
			if m.Type == proto.RSPing && answered < 2 {
				answered++
				_ = c.AsyncSend(m.Source, kernel.Message{Type: proto.RSPong})
			}
		}
	})
	cfg.HeartbeatPeriod = 200 * time.Millisecond
	cfg.HeartbeatMisses = 3
	r.rs.StartService(cfg)
	r.env.Run(5 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	var stuck *decision.Event
	for _, e := range byKind(events, decision.KindTrigger) {
		if e.Action == "declare-stuck" {
			e := e
			stuck = &e
			break
		}
	}
	if stuck == nil {
		t.Fatal("no declare-stuck trigger")
	}
	if stuck.Defect != int(DefectHeartbeat) {
		t.Fatalf("stuck defect = %d", stuck.Defect)
	}
	// Window: two answered pings then three misses, oldest first.
	if !strings.Contains(stuck.Detail, "hb=oommm") || !strings.Contains(stuck.Detail, "missed=3") {
		t.Fatalf("stuck detail = %q, want hb=oommm missed=3", stuck.Detail)
	}
	// The detect that follows carries the (reset-free) window too.
	detects := byKind(events, decision.KindDetect)
	if len(detects) == 0 || detects[0].Defect != int(DefectHeartbeat) {
		t.Fatalf("detects = %+v", detects)
	}
	if detects[0].Detail != "oommm" {
		t.Fatalf("detect window = %q, want oommm", detects[0].Detail)
	}
}

func TestDecisionUpdateTriggers(t *testing.T) {
	r, sink := decBoot(t)
	r.rs.StartService(svcCfg("drv", steadyBody))
	r.k.Spawn("admin", kernel.Privileges{AllowAllIPC: true}, func(c *kernel.Ctx) {
		c.Sleep(time.Second)
		r.rs.UpdateService(ServiceConfig{Label: "drv", Version: "v2"})
	})
	r.env.Run(4 * time.Second)

	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	var term *decision.Event
	for _, e := range byKind(events, decision.KindTrigger) {
		if e.Action == "terminate" {
			e := e
			term = &e
		}
	}
	if term == nil {
		t.Fatal("no terminate trigger for dynamic update")
	}
	if term.Defect != int(DefectUpdate) || term.Delay != sim.Time(termGrace) {
		t.Fatalf("terminate = %+v", term)
	}
	// steadyBody honors SIGTERM, so the update completes as a recovery.
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) != 1 || outcomes[0].Defect != int(DefectUpdate) {
		t.Fatalf("outcomes = %+v", outcomes)
	}
}

func TestDecisionDefectNamesMatchCore(t *testing.T) {
	for d := DefectExit; d <= DefectUpdate; d++ {
		name := decision.DefectName(int(d))
		if name == "" || strings.HasPrefix(name, "class(") {
			t.Fatalf("decision.DefectName(%d) = %q", int(d), name)
		}
	}
}

func TestDecisionEpisodeLinkage(t *testing.T) {
	// With an obs recorder attached, decision events carry the episode's
	// trace/span IDs so the two logs join.
	sink := &decision.SliceSink{}
	rec := decision.NewRecorder(sink)
	obsSink := &obs.SliceSink{}
	obsRec := obs.NewRecorder(obsSink)
	env := sim.NewEnv(1)
	obsRec.SetClock(env.Now)
	k := kernel.New(env)
	k.SetObs(obsRec)
	pmEp, err := proc.Start(k)
	if err != nil {
		t.Fatal(err)
	}
	dsEp, err := ds.Start(k)
	if err != nil {
		t.Fatal(err)
	}
	rsrv, err := Start(k, pmEp, dsEp, WithDecisions(rec))
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{env: env, k: k, rs: rsrv, dsEp: dsEp, pmEp: pmEp}
	rec.SetClock(r.env.Now)
	r.rs.StartService(svcCfg("drv", crashAfter(time.Second)))
	r.env.Run(3 * time.Second)

	detects := byKind(sink.Events(), decision.KindDetect)
	if len(detects) == 0 {
		t.Fatal("no detects")
	}
	if detects[0].Trace == 0 || detects[0].Span == 0 {
		t.Fatalf("detect not linked to episode span: %+v", detects[0])
	}
	found := false
	for _, e := range obsSink.Events() {
		if e.Trace == detects[0].Trace && e.Span == detects[0].Span {
			found = true
			break
		}
	}
	if !found {
		t.Fatal("no obs event shares the episode trace/span")
	}
	outcomes := byKind(sink.Events(), decision.KindOutcome)
	if len(outcomes) == 0 || outcomes[0].Trace != detects[0].Trace {
		t.Fatalf("outcome not in the same trace: %+v", outcomes)
	}
}

// TestPolicyOutsideTheShellLanguageFallsBackToRestart: a policy that
// uses a construct the policy shell does not have — a for loop, echo,
// true — fails as an unknown command, the runner exits 1, and RS
// restarts the service directly instead of stranding it.
func TestPolicyOutsideTheShellLanguageFallsBackToRestart(t *testing.T) {
	for _, src := range []string{
		"for s in $1; do\n\tservice restart $s\ndone\n",
		"echo restarting $1\nservice restart $1\n",
		"true\nservice restart $1\n",
	} {
		r, sink := decBoot(t)
		cfg := svcCfg("drv", crashAfter(time.Second))
		cfg.Policy = policy.MustParse(src)
		r.rs.StartService(cfg)
		r.env.Run(1500 * time.Millisecond)
		if events := r.rs.Events(); len(events) != 1 || !events[0].Recovered {
			t.Fatalf("%q: recovery events %+v, want one recovery", src, events)
		}
		if r.rs.ServiceEndpoint("drv") == kernel.None {
			t.Fatalf("%q: service stranded", src)
		}
		steps := byKind(sink.Events(), decision.KindPolicyStep)
		if len(steps) != 1 || steps[0].Action != "exit" || steps[0].Status != 1 {
			t.Fatalf("%q: policy steps %+v, want only the failed runner's exit 1", src, steps)
		}
	}
}

// TestStopOvertakingMicrorebootClosesEpisode: an administrative stop
// that lands between a granted RSMicroAsk and its RSMicroDone ends the
// microreboot's episode with a terminal "stopped" decision, so the
// decision log and the recover: span hold no dangling episode.
func TestStopOvertakingMicrorebootClosesEpisode(t *testing.T) {
	r, sink := decBoot(t)
	granted := false
	cfg := svcCfg("drv", func(c *kernel.Ctx) {
		c.Sleep(100 * time.Millisecond)
		reply, err := c.SendRec(r.rs.Endpoint(), kernel.Message{
			Type: proto.RSMicroAsk, Name: c.Label(), Arg1: int64(DefectException)})
		granted = err == nil && reply.Arg1 == proto.OK
		steadyBody(c) // the in-place reset never reports done
	})
	cfg.Mechanism = MechMicroreboot
	r.rs.StartService(cfg)
	r.env.Schedule(500*time.Millisecond, func() { r.rs.StopService("drv") })
	r.env.Run(2 * time.Second)

	if !granted {
		t.Fatal("microreboot was not granted")
	}
	if info := findService(t, r.rs, "drv"); info.Phase != PhaseStopped {
		t.Fatalf("phase %v, want stopped", info.Phase)
	}
	events := sink.Events()
	if problems := decision.Check(events); len(problems) != 0 {
		t.Fatalf("decision log ill-formed: %v", problems)
	}
	outcomes := byKind(events, decision.KindOutcome)
	if len(outcomes) != 1 || outcomes[0].Action != "stopped" || outcomes[0].Status != 1 ||
		outcomes[0].Defect != int(DefectException) {
		t.Fatalf("outcomes %+v, want one stopped outcome of the exception episode", outcomes)
	}
}
