// Package core implements the reincarnation server (RS) — the paper's
// primary contribution. RS is the guardian of all servers and drivers: it
// starts them with least-authority privileges, monitors their health, and
// when a defect is detected runs a policy-driven recovery procedure that
// replaces the malfunctioning component with a fresh instance, publishes
// the new endpoint through the data store, and thereby masks the failure
// from applications and users.
//
// Defect detection covers the six input classes of paper §5.1 (Defect);
// what RS does about each is one pure function, step (ladder.go).
//
// Recovery is policy-driven (§5.2): a service may carry a shell script
// (internal/policy) that decides when and how to restart — the default
// direct-restart path covers components without a script, including disk
// drivers, which MINIX restarts straight from a RAM image because their
// script would live on the very disk that just lost its driver (§6.2).
// The two rungs beyond the paper's respawn, warm-standby promotion and
// in-place microreboot, are steps of the same ladder; standby.go keeps
// the replica.
package core

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"strconv"
	"strings"
	"time"

	"resilientos/internal/drvlib"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/policy"
	"resilientos/internal/proto"
	"resilientos/internal/sim"
)

// Label is RS's stable component label.
const Label = "rs"

// Defect identifies one of the six defect classes of paper §5.1. The
// numeric values are the `reason` argument passed to policy scripts,
// matching the paper's Fig. 2.
type Defect int

// The six defect classes.
const (
	DefectExit      Defect = 1 // process exit or panic
	DefectException Defect = 2 // crashed by CPU or MMU exception
	DefectKilled    Defect = 3 // killed by user
	DefectHeartbeat Defect = 4 // heartbeat message missing
	DefectComplaint Defect = 5 // complaint by other component
	DefectUpdate    Defect = 6 // dynamic update by user
)

var defectNames = [...]string{DefectExit: "exit/panic", DefectException: "exception", DefectKilled: "killed",
	DefectHeartbeat: "heartbeat", DefectComplaint: "complaint", DefectUpdate: "update"}

func (d Defect) String() string {
	if d >= DefectExit && d <= DefectUpdate {
		return defectNames[d]
	}
	return fmt.Sprintf("Defect(%d)", int(d))
}

// Mechanism selects the recovery mechanism for a guarded service. It is
// drvlib.Mechanism re-exported, so configurations need only this package:
// the driver library implements the driver half (standby wait loop,
// microreboot interception), RS the arbitration half.
type Mechanism = drvlib.Mechanism

// The recovery mechanisms, in escalation order.
const (
	MechRespawn     = drvlib.MechRespawn
	MechMicroreboot = drvlib.MechMicroreboot
	MechStandby     = drvlib.MechStandby
)

// DefaultHeartbeatMisses is the N a ServiceConfig with no
// HeartbeatMisses gets.
const DefaultHeartbeatMisses = 3

// Binary is a service's executable image: the body its process runs. A
// restart executes a fresh call of the Binary — the "fresh copy" that
// cures transient failures.
type Binary func(c *kernel.Ctx)

// ServiceConfig describes a service the reincarnation server guards; it
// carries exactly the arguments the paper's service utility passes: the
// binary, a stable name, precise privileges, a heartbeat period, and an
// optional parametrized policy script (§5).
type ServiceConfig struct {
	Label   string
	Binary  Binary
	Version string // informational; dynamic updates may change it
	Priv    kernel.Privileges

	// HeartbeatPeriod enables proactive liveness pings when > 0.
	HeartbeatPeriod sim.Time
	// HeartbeatMisses is N: consecutive unanswered pings before the
	// component is declared stuck (default DefaultHeartbeatMisses).
	HeartbeatMisses int

	// Policy is the recovery script; nil selects RS's direct restart.
	Policy *policy.Script
	// PolicyParams are the script's trailing parameters ($4...), e.g.
	// "-a root@localhost".
	PolicyParams []string

	// MaxRestarts disables the service after this many consecutive
	// failures (0 = never give up). The policy script can express richer
	// give-up behavior; this is the backstop. Every recovery — respawn,
	// in-place microreboot, or standby promotion — counts against it.
	MaxRestarts int

	// Mechanism selects how RS recovers this service: kill-and-respawn
	// (the zero value, the paper's baseline), in-place microreboot, or
	// warm-standby promotion.
	Mechanism Mechanism
}

// Event is one entry of the recovery log; the experiments read these.
type Event struct {
	Time       sim.Time // detection time
	Label      string
	Defect     Defect
	Repetition int      // consecutive-failure count at detection
	Recovered  bool     // a new instance was published
	GaveUp     bool     // MaxRestarts exhausted
	Duration   sim.Time // detection -> new endpoint published
	NewEp      kernel.Endpoint
}

// Alert is a failure notification produced by a policy script's `mail`.
type Alert struct {
	Time    sim.Time
	To      string
	Subject string
	Body    string
}

// service is RS's per-component bookkeeping.
type service struct {
	cfg ServiceConfig
	ep  kernel.Endpoint
	ledger

	// Heartbeat state.
	nextPing sim.Time
	awaiting bool // ping sent, pong not yet seen
	missed   int

	termKillAt sim.Time // when to escalate SIGTERM to SIGKILL

	// standbyEp is the parked warm replica (Mechanism == MechStandby;
	// kernel.None = none).
	standbyEp kernel.Endpoint

	// Heartbeat history window for decision tracing: the last up-to-8
	// ping results of the current instance, bit 0 = most recent,
	// 1 = answered. Maintained only while a decision recorder listens.
	hbBits uint16
	hbN    int

	// episode is the recovery episode's root span, from detection to the
	// episode's close. Everything the recovery touches — the policy script,
	// the new instance's initialization, dependents' reintegration — nests
	// under or links back to it.
	episode obs.SpanContext
}

// serveFrom makes ep the service's instance, with a clean monitoring
// slate (step resets its ladder part once the instance is published).
func (svc *service) serveFrom(c *kernel.Ctx, ep kernel.Endpoint) {
	svc.ep = ep
	svc.hbBits, svc.hbN = 0, 0
	svc.restartHeartbeat(c.Now())
	c.Obs().Emit(obs.KindRestart, svc.cfg.Label, svc.cfg.Version, int64(ep), int64(svc.failures))
}

// restartHeartbeat forgets outstanding pings and schedules the next one a
// full period out.
func (svc *service) restartHeartbeat(now sim.Time) {
	svc.missed, svc.awaiting = 0, false
	if svc.cfg.HeartbeatPeriod > 0 {
		svc.nextPing = now + svc.cfg.HeartbeatPeriod
	}
}

// recordHB appends one heartbeat observation (true = pong seen) to the
// service's sliding window.
func (svc *service) recordHB(ok bool) {
	svc.hbBits <<= 1
	if ok {
		svc.hbBits |= 1
	}
	if svc.hbN < 8 {
		svc.hbN++
	}
}

// hbWindow renders the heartbeat history oldest-first, 'o' = answered,
// 'm' = missed ("" when unmonitored or no pings yet).
func (svc *service) hbWindow() string {
	b := make([]byte, svc.hbN)
	for i := range b {
		b[i] = "mo"[svc.hbBits>>uint(svc.hbN-1-i)&1]
	}
	return string(b)
}

// internal message type: drain the queued Go API requests.
const msgRSDrain int32 = 390

// termGrace is how long a SIGTERM'd component gets before SIGKILL (§6).
const termGrace = 500 * time.Millisecond

// RS is the reincarnation server.
type RS struct {
	ctx  *kernel.Ctx
	k    *kernel.Kernel
	dsEp kernel.Endpoint
	pmEp kernel.Endpoint

	services []*service // in label order, found by lookup
	requests []request  // Go API requests awaiting the RS loop
	shSeq    int        // policy-script runner sequence numbers

	events   []Event
	alerts   []Alert
	onReboot func()
	rebooted bool

	// dec receives structured recovery-decision events (nil = off; every
	// decision point costs one nil check).
	dec *decision.Recorder
}

// request is a Go API call waiting for RS's process: its input, a start's
// or update's configuration (whose Label names the service), a kill's signal.
type request struct {
	in  input
	cfg ServiceConfig
	sig kernel.Signal
}

// Option configures the reincarnation server.
type Option func(*RS)

// WithOnReboot installs the whole-system reboot hook a policy script's
// `reboot` command triggers.
func WithOnReboot(fn func()) Option {
	return func(rs *RS) { rs.onReboot = fn }
}

// WithDecisions streams every recovery decision RS makes — stuck
// declarations, defect detections, action choices, policy-script steps,
// terminal outcomes — to the given recorder (internal/obs/decision).
// A nil recorder keeps the decision path free.
func WithDecisions(d *decision.Recorder) Option {
	return func(rs *RS) { rs.dec = d }
}

// [recovery:begin]
// decide records one recovery decision about svc. The caller says what
// was decided; what every decision carries — the service, the defect
// class, the budget state and the link to the episode's span — is filled
// in here. Triggers precede the episode their kill opens and carry no link.
func (rs *RS) decide(svc *service, class Defect, ev decision.Event) {
	if rs.dec == nil {
		return
	}
	ev.Service, ev.Defect = svc.cfg.Label, int(class)
	ev.Failures, ev.Budget = svc.failures, restartBudget(&svc.ledger)
	if ev.Kind != decision.KindTrigger {
		ev.Trace, ev.Span = svc.episode.Trace, svc.episode.Span
	}
	rs.dec.Emit(ev)
}

// [recovery:end]

// Start spawns the reincarnation server. It subscribes to PM's exit
// events; services are then added with StartService.
func Start(k *kernel.Kernel, pmEp, dsEp kernel.Endpoint, opts ...Option) (*RS, error) {
	rs := &RS{k: k, dsEp: dsEp, pmEp: pmEp}
	for _, o := range opts {
		o(rs)
	}
	ctx, err := k.Spawn(Label, kernel.Privileges{
		AllowAllIPC: true,
		Calls:       []kernel.Call{kernel.CallSpawn, kernel.CallKill, kernel.CallPrivCtl, kernel.CallAlarm},
	}, rs.run)
	if err != nil {
		return nil, err
	}
	rs.ctx = ctx
	return rs, nil
}

// Endpoint returns RS's endpoint.
func (rs *RS) Endpoint() kernel.Endpoint { return rs.ctx.Endpoint() }

// Events returns a copy of the recovery event log.
func (rs *RS) Events() []Event { return append([]Event(nil), rs.events...) }

// EventsSince returns the recovery events logged after the first n, as a
// read-only view of the log itself: entries are appended and never
// rewritten, so a caller that remembers how many it has seen pays for the
// new ones only (the fleet's per-boundary health probe).
func (rs *RS) EventsSince(n int) []Event { return rs.events[n:len(rs.events):len(rs.events)] }

// Alerts returns a copy of the failure alerts sent by policy scripts.
func (rs *RS) Alerts() []Alert { return append([]Alert(nil), rs.alerts...) }

// Rebooted reports whether a policy script requested a system reboot.
func (rs *RS) Rebooted() bool { return rs.rebooted }

// ServiceEndpoint returns the current endpoint of a service (None when
// down).
func (rs *RS) ServiceEndpoint(label string) kernel.Endpoint {
	if svc := rs.lookup(label); svc != nil && svc.phase.running() {
		return svc.ep
	}
	return kernel.None
}

// Guards reports whether label names a service RS guards, or has been
// asked to start once its process first runs — so a caller can tell a
// mistyped label from a real one before the simulation has taken a step.
func (rs *RS) Guards(label string) bool {
	return rs.lookup(label) != nil ||
		slices.ContainsFunc(rs.requests, func(r request) bool { return r.in.kind == inStart && r.cfg.Label == label })
}

// ServiceInfo is a read-only snapshot of one guarded service, for the
// live invariant checker (internal/check).
type ServiceInfo struct {
	Label string
	Ep    kernel.Endpoint // current (or last) instance endpoint
	Phase Phase

	HeartbeatPeriod sim.Time
	HeartbeatMisses int
	NextPing        sim.Time // next heartbeat deadline (0 = unmonitored)
	Awaiting        bool     // ping sent, pong outstanding
	Missed          int      // consecutive misses so far

	Failures int

	// StandbyEp is the parked warm replica's endpoint (None = no
	// replica). The invariant checker asserts no published name ever
	// resolves to it: a standby never serves before promotion.
	StandbyEp kernel.Endpoint
}

// Version moves whenever the service bookkeeping may have changed: every
// service field is written by the RS process itself — never by a scheduler
// callback, a death hook or a policy shell — so the count of hand-offs to
// that process is a sufficient (if generous) counter. The invariant
// checker skips rescanning the services while it stands still.
func (rs *RS) Version() uint64 { return rs.ctx.Resumes() }

// Services returns a snapshot of every guarded service, in label order.
func (rs *RS) Services() []ServiceInfo { return rs.ServicesInto(nil) }

// ServicesInto appends the snapshot to buf and returns it, letting the
// live invariant checker — which snapshots after every scheduler step —
// reuse one buffer.
func (rs *RS) ServicesInto(buf []ServiceInfo) []ServiceInfo {
	out := buf
	for _, svc := range rs.services {
		out = append(out, ServiceInfo{
			Label:           svc.cfg.Label,
			Ep:              svc.ep,
			Phase:           svc.phase,
			HeartbeatPeriod: svc.cfg.HeartbeatPeriod,
			HeartbeatMisses: svc.cfg.HeartbeatMisses,
			NextPing:        svc.nextPing,
			Awaiting:        svc.awaiting,
			Missed:          svc.missed,
			Failures:        svc.failures,
			StandbyEp:       svc.standbyEp,
		})
	}
	return out
}

// FailureCount returns a service's consecutive-failure count.
func (rs *RS) FailureCount(label string) int {
	if svc := rs.lookup(label); svc != nil {
		return svc.failures
	}
	return 0
}

// lookup returns the service guarded under label, or nil.
func (rs *RS) lookup(label string) *service {
	if i, ok := rs.find(label); ok {
		return rs.services[i]
	}
	return nil
}

// find returns the index label has, or would take, in rs.services.
func (rs *RS) find(label string) (int, bool) {
	return slices.BinarySearchFunc(rs.services, label, func(svc *service, l string) int {
		return strings.Compare(svc.cfg.Label, l)
	})
}

// StartService registers and starts a service. Callable from outside the
// simulation loop (before Run) or from within any process.
func (rs *RS) StartService(cfg ServiceConfig) {
	rs.post(request{in: input{kind: inStart}, cfg: cfg})
}

// StopService administratively stops a service (SIGTERM, then SIGKILL);
// no recovery is performed.
func (rs *RS) StopService(label string) {
	rs.post(request{in: input{kind: inStop}, cfg: ServiceConfig{Label: label}})
}

// UpdateService performs a dynamic update (defect class 6): the running
// instance is asked to exit and a fresh instance — possibly a new binary
// registered via cfg — takes its place with no backoff delay.
func (rs *RS) UpdateService(cfg ServiceConfig) {
	rs.post(request{in: input{kind: inUpdate}, cfg: cfg})
}

// KillService sends the service a signal as the "user kill" defect
// class 3 (the crash-simulation scripts of §7.1 use SIGKILL).
func (rs *RS) KillService(label string, sig kernel.Signal) {
	rs.post(request{in: input{kind: inKill}, cfg: ServiceConfig{Label: label}, sig: sig})
}

// post queues r for RS's process and wakes it.
func (rs *RS) post(r request) {
	rs.requests = append(rs.requests, r)
	_ = rs.k.PostAsync(rs.ctx.Endpoint(), kernel.Message{Type: msgRSDrain})
}

// run is the RS message loop. Every message about a service's ladder is
// one input, admitted to feed as the Go API's requests are by drain.
func (rs *RS) run(c *kernel.Ctx) {
	// Subscribe to PM exit events before anything can die.
	if _, err := c.SendRec(rs.pmEp, kernel.Message{Type: proto.PMSubscribe}); err != nil {
		c.Panic("subscribe to pm: " + err.Error())
	}
	rs.drain(c)
	for {
		rs.armTimer(c)
		m, err := c.Receive(kernel.Any)
		if err != nil {
			return
		}
		exit := m.Type == proto.PMExitEvent && m.Source == rs.pmEp
		switch {
		case m.Type == kernel.MsgNotify && m.Source == kernel.Clock:
			rs.onTimer(c)
		case m.Type == msgRSDrain && m.Source == kernel.System:
			rs.drain(c)
		case exit && drvlib.IsStandbyLabel(m.Name):
			rs.onStandbyExit(c, m)
		case exit:
			class := DefectKilled
			switch m.Arg2 {
			case proto.CauseExit:
				class = DefectExit
			case proto.CauseException:
				class = DefectException
			}
			rs.admit(c, m, input{kind: inExit, class: class}, kernel.Endpoint(m.Arg1), 0)
		case m.Type == proto.RSPong:
			rs.onPong(m.Source)
		case m.Type == proto.RSMicroAsk:
			rs.admit(c, m, input{kind: inMicroAsk, class: Defect(m.Arg1)}, m.Source, proto.ErrPerm)
		case m.Type == proto.RSMicroDone:
			rs.admit(c, m, input{kind: inMicroDone}, m.Source, 0)
		case m.Type == proto.RSRestart:
			rs.admit(c, m, input{kind: inRestart}, kernel.None, proto.ErrNotFound)
		case m.Type == proto.RSStop:
			rs.admit(c, m, input{kind: inStop}, kernel.None, 0)
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
		case m.Type == proto.RSComplain && rs.k.MayComplain(m.Source):
			rs.admit(c, m, input{kind: inComplain}, kernel.None, proto.ErrNotFound)
		case m.Type == proto.RSComplain:
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.ErrPerm})
		case m.Type == proto.RSReboot:
			rs.rebooted = true
			if rs.onReboot != nil {
				rs.onReboot()
			}
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
		case m.Type == proto.RSUpdate:
			// A message cannot carry a new binary: updates come through
			// UpdateService. Refused, so a script's `service update` fails.
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.ErrBadCall})
		}
	}
}

// admit feeds in to the service m names if the instance it concerns,
// inst, is the service's (None: any): a report from or about an earlier
// instance is a stale echo. Otherwise a request gets refuse (0: no reply).
func (rs *RS) admit(c *kernel.Ctx, m kernel.Message, in input, inst kernel.Endpoint, refuse int64) {
	if svc := rs.lookup(m.Name); svc != nil && (inst == kernel.None || inst == svc.ep) {
		rs.feed(c, svc, in, m)
	} else if refuse != 0 {
		_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: refuse})
	}
}

// drain feeds the queued Go API requests, in order.
func (rs *RS) drain(c *kernel.Ctx) {
	for len(rs.requests) > 0 {
		r := rs.requests[0]
		rs.requests = rs.requests[1:]
		i, ok := rs.find(r.cfg.Label)
		switch {
		case r.in.kind == inStart && ok: // refused, as `service up` of a guarded label is
			continue
		case r.in.kind == inStart:
			svc := &service{cfg: r.cfg, standbyEp: kernel.None}
			svc.cfg.HeartbeatMisses = cmp.Or(svc.cfg.HeartbeatMisses, DefaultHeartbeatMisses)
			rs.services = slices.Insert(rs.services, i, svc)
		case !ok && r.in.kind == inUpdate: // an update of an unknown service starts it
			r.in.kind = inStart
			rs.requests = append(rs.requests, r)
			continue
		case !ok:
			continue
		case r.in.kind == inUpdate:
			// The next instance runs the new binary, version and policy;
			// fields left zero keep the current ones.
			cfg := &rs.services[i].cfg
			if r.cfg.Binary != nil {
				cfg.Binary = r.cfg.Binary
			}
			cfg.Version = cmp.Or(r.cfg.Version, cfg.Version)
			if r.cfg.Policy != nil {
				cfg.Policy, cfg.PolicyParams = r.cfg.Policy, r.cfg.PolicyParams
			}
		}
		rs.feed(c, rs.services[i], r.in, kernel.Message{Arg1: int64(r.sig)})
	}
}

// spawnInstance starts a fresh process for svc with its privileges,
// restarts heartbeat monitoring and publishes the endpoint. The ladder
// learns that the kernel refused the spawn, or that the instance is up: at
// once outside an episode, once published for an episode's instance.
func (rs *RS) spawnInstance(c *kernel.Ctx, svc *service, act action) {
	if act == actRespawn {
		c.SetTraceCtx(svc.episode)
	}
	ep, err := c.Spawn(svc.cfg.Label, svc.cfg.Priv, svc.cfg.Binary)
	if err != nil {
		rs.feed(c, svc, input{kind: inSpawnFailed}, kernel.Message{})
		return
	}
	svc.serveFrom(c, ep)
	if act == actSpawn {
		rs.feed(c, svc, input{kind: inSpawned}, kernel.Message{})
	}
	// Dependents subscribed through the data store learn about the restart
	// from this (§5.3). An unanswered publish has no fallback: there is no
	// other way to tell them.
	_, _ = c.SendRec(rs.dsEp, kernel.Message{Type: proto.DSPublish, Name: svc.cfg.Label, Arg1: int64(ep)})
	if svc.cfg.Mechanism == MechStandby {
		rs.spawnStandby(c, svc) // keep the warm pool filled
	}
	if act == actRespawn {
		rs.feed(c, svc, input{kind: inSpawned}, kernel.Message{})
	}
}

// feed steps svc's ladder with one input and carries out the actions it
// returns, in order. m is the message the input came in: a reply goes to
// its sender, a complaint names it, and a user kill relays its Arg1 as the
// signal. An effect whose result the ladder needs feeds that result back.
func (rs *RS) feed(c *kernel.Ctx, svc *service, in input, m kernel.Message) {
	svc.maxRestarts, svc.mech, svc.hbPeriod = svc.cfg.MaxRestarts, svc.cfg.Mechanism, svc.cfg.HeartbeatPeriod
	svc.script, svc.parked = svc.cfg.Policy != nil, svc.standbyEp != kernel.None
	if in.kind == inExit {
		svc.termKillAt = 0 // the escalation dies with the instance
	}
	var acts actions
	svc.ledger, acts = step(svc.ledger, in, c.Now())
	for _, act := range acts.list[:acts.n] {
		switch act {
		case actSpawn, actRespawn:
			rs.spawnInstance(c, svc, act)
		case actRetire:
			rs.killStandby(c, svc, kernel.SIGTERM)
		case actTerminate:
			svc.termKillAt = c.Now() + termGrace
			_ = c.Kill(svc.ep, kernel.SIGTERM)
		case actRelay: // attributed to "killed by user": RS merely relays
			_ = c.Kill(svc.ep, kernel.Signal(m.Arg1))
		// [recovery:begin]
		case actPromote:
			rs.promoteStandby(c, svc, acts.class)
		case actRunScript:
			if rs.runPolicyScript(c, svc, acts.class) != nil {
				rs.feed(c, svc, input{kind: inRunnerFailed}, kernel.Message{})
			}
		case actDefect:
			c.Obs().Emit(obs.KindDefect, svc.cfg.Label, acts.class.String(), int64(svc.failures), int64(acts.class))
		case actDetect: // the root span of the episode, opened at its first detection
			if !svc.episode.Valid() {
				svc.episode = c.Obs().StartSpan(Label, "recover:"+svc.cfg.Label, obs.SpanContext{})
			}
			if rs.dec != nil {
				rs.decide(svc, acts.class, decision.Event{Kind: decision.KindDetect, Detail: svc.hbWindow()})
			}
		case actGiveUp: // no pool for an abandoned service; dependents see it gone
			rs.killStandby(c, svc, kernel.SIGKILL)
			rs.events = append(rs.events, Event{Time: c.Now(), Label: svc.cfg.Label, Defect: acts.class,
				Repetition: svc.failures, GaveUp: true})
			c.Obs().Emit(obs.KindGiveUp, svc.cfg.Label, acts.class.String(), int64(svc.failures), 0)
			rs.decide(svc, acts.class, decision.Event{Kind: decision.KindAction,
				Action: "give-up", Detail: "restart budget exhausted"})
			c.SetTraceCtx(svc.episode)
			_, _ = c.SendRec(rs.dsEp, kernel.Message{Type: proto.DSWithdraw, Name: svc.cfg.Label})
			rs.closeEpisode(c, svc, acts.class, "gave-up", "", 1)
		case actResume:
			svc.restartHeartbeat(c.Now())
		case actSettle: // whichever rung carried the recovery out
			rs.events = append(rs.events, Event{Time: svc.detectedAt, Label: svc.cfg.Label, Defect: acts.class,
				Repetition: svc.failures, Recovered: true, Duration: c.Now() - svc.detectedAt, NewEp: svc.ep})
			c.Obs().ObserveRecovery(svc.cfg.Label)
			rs.closeEpisode(c, svc, acts.class, "recovered", rungs[in.kind], 0)
		case actStopped:
			// The trace's recovery span closes without counting as a recovery.
			c.Obs().Emit(obs.KindGiveUp, svc.cfg.Label, "stopped", int64(svc.failures), 0)
			fallthrough
		case actClose:
			rs.closeEpisode(c, svc, acts.class, "stopped", "", 1)
		case actKill:
			_ = c.Kill(svc.ep, kernel.SIGKILL)
		case actReplyOK, actReplyPerm, actReplyNotFound, actReplyAgain:
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: replies[act-actReplyOK]})
		default: // a decision, with the detail that needs the run's facts
			if rs.dec == nil {
				break
			}
			ev := decisions[act]
			switch act {
			case decMicroreboot:
				ev.Detail = fmt.Sprintf("in-place vm reset %d/%d", svc.microCount, microBudget)
			case decDenyMicro:
				ev.Detail = fmt.Sprintf("microreboot budget exhausted (%d/%d)", svc.microCount, microBudget)
			case decComplaint:
				ev.Detail = "complaint from " + rs.k.LabelOf(m.Source)
			case decStuck:
				ev.Detail = fmt.Sprintf("hb=%s missed=%d", svc.hbWindow(), svc.missed)
			}
			rs.decide(svc, acts.class, ev)
		}
	}
}

// replies are the codes of actReplyOK, -Perm, -NotFound and -Again.
var replies = [...]int64{proto.OK, proto.ErrPerm, proto.ErrNotFound, proto.ErrAgain}

// rungs names the rung a settle books by the input that settled it.
var rungs = [numInputs]string{inMicroDone: "microreboot", inPromoted: "promote-standby"}

// decisions is what each decide action records.
var decisions = [numActions]decision.Event{
	decDirect:       {Kind: decision.KindAction, Action: "restart-direct"},
	decRunnerFailed: {Kind: decision.KindAction, Action: "restart-direct", Detail: "policy runner spawn failed"},
	decMicroreboot:  {Kind: decision.KindAction, Action: "microreboot"},
	decDenyMicro:    {Kind: decision.KindTrigger, Action: "microreboot-deny"},
	decDenyBudget:   {Kind: decision.KindTrigger, Action: "microreboot-deny", Detail: "restart budget exhausted"},
	decTerminate:    {Kind: decision.KindTrigger, Action: "terminate", Detail: "dynamic update", Delay: termGrace},
	decEscalate:     {Kind: decision.KindTrigger, Action: "escalate-sigkill", Detail: "termination grace expired"},
	decComplaint:    {Kind: decision.KindTrigger, Action: "complaint-kill"},
	decStuck:        {Kind: decision.KindTrigger, Action: "declare-stuck"},
}

// closeEpisode records the episode's terminal decision and ends its span
// with status (0 recovered, 1 gave up or stopped).
func (rs *RS) closeEpisode(c *kernel.Ctx, svc *service, class Defect, outcome, how string, status int64) {
	rs.decide(svc, class, decision.Event{Kind: decision.KindOutcome,
		Action: outcome, Detail: how, Status: status, Latency: c.Now() - svc.detectedAt})
	c.Obs().EndSpan(Label, svc.episode, status)
	svc.episode = obs.SpanContext{}
	c.SetTraceCtx(obs.SpanContext{})
}

// runPolicyScript launches a transient process that executes the
// service's recovery script. The script's `service restart` command calls
// back into RS — "restarting is always done by requesting the
// reincarnation server to do so, since that is the only process with the
// privileges to create new servers and drivers" (§5.2). It returns the
// runner's spawn error, which feed reports to the ladder.
func (rs *RS) runPolicyScript(c *kernel.Ctx, svc *service, class Defect) error {
	rs.shSeq++
	runnerLabel := fmt.Sprintf("sh.%s.%d", svc.cfg.Label, rs.shSeq)
	rsEp := rs.ctx.Endpoint()
	script := svc.cfg.Policy
	args := append([]string{svc.cfg.Label, fmt.Sprint(int(class)), fmt.Sprint(svc.failures)},
		svc.cfg.PolicyParams...)
	c.Obs().Emit(obs.KindPolicyStart, svc.cfg.Label, runnerLabel, int64(class), int64(svc.failures))
	// Snapshot the episode and budget state for the runner's decision
	// trail: the script may itself complete the recovery (clearing
	// svc.episode) before its remaining steps execute.
	atLaunch := *svc
	// The runner inherits the episode context at spawn: the script's
	// restart calls show up inside the episode's span tree.
	c.SetTraceCtx(svc.episode)
	_, err := c.Spawn(runnerLabel, kernel.Privileges{IPCTo: []string{Label}, UID: 1000}, func(sh *kernel.Ctx) {
		var interp *policy.Interp
		opts := []policy.Option{
			policy.WithArgs(args...),
			policy.WithSleep(func(d time.Duration) { sh.Sleep(d) }),
			policy.WithCommand("service", func(argv []string, stdin string) (string, int) {
				return rs.serviceCommand(sh, rsEp, argv)
			}),
			policy.WithCommand("mail", func(argv []string, stdin string) (string, int) {
				rs.mailCommand(sh, argv, stdin)
				return "", 0
			}),
			// log succeeds and prints nowhere: its argv is already in the
			// decision trail as a policy step.
			policy.WithCommand("log", func([]string, string) (string, int) { return "", 0 }),
			policy.WithCommand("reboot", func(argv []string, stdin string) (string, int) {
				if _, err := sh.SendRec(rsEp, kernel.Message{Type: proto.RSReboot}); err != nil {
					return "", 1
				}
				return "", 0
			}),
		}
		if rs.dec != nil {
			opts = append(opts, policy.WithTrace(func(argv []string, status int) {
				// The expanded argv plus the interpreter's variable state.
				ev := decision.Event{Kind: decision.KindPolicyStep, Action: argv[0],
					Detail: strings.Join(argv, " "), Status: int64(status)}
				if vars := interp.VarState(); vars != "" {
					ev.Detail += " [" + vars + "]"
				}
				// The sleep builtin is the script's backoff: surface the
				// computed delay as a first-class field.
				if argv[0] == "sleep" && len(argv) >= 2 {
					if secs, err := strconv.ParseFloat(argv[1], 64); err == nil && secs >= 0 {
						ev.Delay = sim.Time(secs * float64(time.Second))
					}
				}
				rs.decide(&atLaunch, class, ev)
			}))
		}
		interp = policy.NewInterp(opts...)
		rc := int64(0)
		if _, err := interp.Run(script); err != nil {
			rc = 1
			// A broken policy script must not strand the component: fall
			// back to a direct restart request.
			_, _ = sh.SendRec(rsEp, kernel.Message{Type: proto.RSRestart, Name: args[0]})
		}
		rs.decide(&atLaunch, class, decision.Event{Kind: decision.KindPolicyStep, Action: "exit", Status: rc})
		sh.Obs().Emit(obs.KindPolicyExit, args[0], runnerLabel, rc, 0)
		sh.Exit(0)
	})
	if err == nil && rs.dec != nil {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "policy-run", Detail: strings.Join(args, " ")})
	}
	return err
}

// serviceCommand implements the policy scripts' `service` builtin.
func (rs *RS) serviceCommand(sh *kernel.Ctx, rsEp kernel.Endpoint, argv []string) (string, int) {
	if len(argv) < 3 {
		return "service: usage: service restart|stop|update <label>\n", 2
	}
	var typ int32
	switch argv[1] {
	case "restart":
		typ = proto.RSRestart
	case "stop":
		typ = proto.RSStop
	case "update":
		typ = proto.RSUpdate
	default:
		return "service: unknown action " + argv[1] + "\n", 2
	}
	reply, err := sh.SendRec(rsEp, kernel.Message{Type: typ, Name: argv[2]})
	if err != nil || reply.Arg1 != proto.OK {
		return "", 1
	}
	return "", 0
}

// mailCommand implements the policy scripts' `mail` (alert sink).
func (rs *RS) mailCommand(sh *kernel.Ctx, argv []string, stdin string) {
	alert := Alert{Time: sh.Now(), Body: stdin}
	for i := 1; i < len(argv); i++ {
		if argv[i] == "-s" && i+1 < len(argv) {
			alert.Subject = argv[i+1]
			i++
			continue
		}
		alert.To = argv[i]
	}
	rs.alerts = append(rs.alerts, alert)
}

// [recovery:end]

// armTimer sets RS's alarm to the earliest pending deadline (heartbeat
// pings and SIGTERM escalations share the single kernel alarm).
func (rs *RS) armTimer(c *kernel.Ctx) {
	next := sim.Time(math.MaxInt64)
	for _, svc := range rs.services {
		if svc.phase.running() && svc.cfg.HeartbeatPeriod > 0 {
			next = min(next, svc.nextPing)
		}
		if svc.phase.running() && svc.termKillAt != 0 {
			next = min(next, svc.termKillAt)
		}
	}
	if next == math.MaxInt64 {
		c.SetAlarm(0)
	} else {
		c.SetAlarm(max(next-c.Now(), 1)) // fire on the next tick, never in the past
	}
}

// [recovery:begin]
// onTimer processes due heartbeats and SIGTERM escalations. Services are
// visited in label order: the visit order is observable through the trace
// bus (ping sends, heartbeat misses), and map order would make traces
// differ between identically-seeded runs.
func (rs *RS) onTimer(c *kernel.Ctx) {
	// Clock notifications carry no trace context, so whatever context the
	// last recovery left ambient would leak into heartbeat pings: clear it.
	c.SetTraceCtx(obs.SpanContext{})
	now := c.Now()
	for _, svc := range rs.services {
		if !svc.phase.running() {
			continue
		}
		if svc.termKillAt != 0 && now >= svc.termKillAt {
			svc.termKillAt = 0
			rs.feed(c, svc, input{kind: inGrace}, kernel.Message{})
			continue
		}
		if svc.cfg.HeartbeatPeriod > 0 && now >= svc.nextPing {
			if svc.awaiting {
				svc.missed++
				c.Obs().Emit(obs.KindHeartbeat, svc.cfg.Label, "miss", int64(svc.missed), 0)
				if rs.dec != nil {
					svc.recordHB(false)
				}
				if svc.missed >= svc.cfg.HeartbeatMisses {
					// Defect class 4: the component is stuck. It is killed;
					// the exit event completes the recovery.
					rs.feed(c, svc, input{kind: inStuck}, kernel.Message{})
					svc.awaiting, svc.missed = false, 0
					continue
				}
			}
			// Nonblocking status request (§5.1).
			svc.awaiting = true
			_ = c.AsyncSend(svc.ep, kernel.Message{Type: proto.RSPing})
			svc.nextPing = now + svc.cfg.HeartbeatPeriod
		}
	}
}

// [recovery:end]

func (rs *RS) onPong(from kernel.Endpoint) {
	for _, svc := range rs.services {
		if svc.ep == from {
			if svc.awaiting && rs.dec != nil {
				svc.recordHB(true)
			}
			svc.awaiting, svc.missed = false, 0
			return
		}
	}
}
