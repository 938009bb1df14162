// Package core implements the reincarnation server (RS) — the paper's
// primary contribution. RS is the guardian of all servers and drivers: it
// starts them with least-authority privileges, monitors their health, and
// when a defect is detected runs a policy-driven recovery procedure that
// replaces the malfunctioning component with a fresh instance, publishes
// the new endpoint through the data store, and thereby masks the failure
// from applications and users.
//
// Defect detection covers the six input classes of paper §5.1:
//
//  1. process exit or panic            (PM exit event, CauseExit)
//  2. crashed by CPU or MMU exception  (PM exit event, CauseException)
//  3. killed by user                   (PM exit event, CauseSignal)
//  4. heartbeat message missing        (N consecutive missed pongs)
//  5. complaint by another component   (RSComplain from an authorized server)
//  6. dynamic update by user           (RSUpdate)
//
// Recovery is policy-driven (§5.2): a service may carry a shell script
// (internal/policy) that decides when and how to restart — the default
// direct-restart path covers components without a script, including disk
// drivers, which MINIX restarts straight from a RAM image because their
// script would live on the very disk that just lost its driver (§6.2).
package core

import (
	"fmt"
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

func (d Defect) String() string {
	switch d {
	case DefectExit:
		return "exit/panic"
	case DefectException:
		return "exception"
	case DefectKilled:
		return "killed"
	case DefectHeartbeat:
		return "heartbeat"
	case DefectComplaint:
		return "complaint"
	case DefectUpdate:
		return "update"
	default:
		return fmt.Sprintf("Defect(%d)", int(d))
	}
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
	// component is declared stuck (default 3).
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
	cfg     ServiceConfig
	ep      kernel.Endpoint
	running bool
	stopped bool // administratively stopped; don't recover
	gaveUp  bool

	failures    int // consecutive failure count (the script's $3)
	lastFailure sim.Time

	// Heartbeat state.
	nextPing sim.Time
	awaiting bool // ping sent, pong not yet seen
	missed   int

	// killClass records why RS itself is killing the instance, so the
	// resulting exit event is attributed to the right defect class.
	killClass Defect

	updating   bool     // SIGTERM sent for dynamic update
	termKillAt sim.Time // when to escalate SIGTERM to SIGKILL

	detectedAt   sim.Time // set when a defect is detected, for Duration
	pendingClass Defect   // class of the recovery a policy script is driving

	// Warm-standby pool state (Mechanism == MechStandby).
	standbyEp kernel.Endpoint // parked replica (meaningful iff standbyUp)
	standbyUp bool

	// Microreboot accounting (Mechanism == MechMicroreboot).
	microCount   int  // in-place reboots since the last full respawn
	microPending bool // granted microreboot in flight; a death before
	// RSMicroDone is its failed tail and must not be double-counted

	// Heartbeat history window for decision tracing: the last up-to-8
	// ping results of the current instance, bit 0 = most recent,
	// 1 = answered. Maintained only while a decision recorder listens.
	hbBits uint16
	hbN    int

	// episode is the recovery episode's root span, opened at defect
	// detection and closed when the fresh instance is published (or RS
	// gives up). Everything the recovery touches — the policy script, the
	// new instance's initialization, dependents' reintegration — nests
	// under or links back to it.
	episode obs.SpanContext
}

// restartBudget is how many restarts remain before MaxRestarts forces a
// give-up (-1 = unlimited, 0 = the next failure gives up).
func restartBudget(svc *service) int {
	if svc.cfg.MaxRestarts <= 0 {
		return -1
	}
	b := svc.cfg.MaxRestarts - svc.failures
	if b < 0 {
		b = 0
	}
	return b
}

// [recovery:begin]
// creditStableRun resets the consecutive-failure accounting — and with it
// the microreboot budget — after a long stable run, so the budgets
// reflect crash *loops* rather than lifetime totals.
func (svc *service) creditStableRun(now sim.Time) {
	if svc.lastFailure != 0 && now-svc.lastFailure > stableResetAfter+svc.cfg.HeartbeatPeriod {
		svc.failures = 0
		svc.microCount = 0
	}
}

// [recovery:end]

// serveFrom makes ep the service's serving instance, with a clean
// monitoring slate and a fresh microreboot budget.
func (svc *service) serveFrom(c *kernel.Ctx, ep kernel.Endpoint) {
	svc.ep = ep
	svc.running = true
	svc.stopped = false
	svc.updating = false
	svc.killClass = 0
	svc.microCount = 0
	svc.microPending = false
	svc.hbBits = 0
	svc.hbN = 0
	svc.restartHeartbeat(c.Now())
	c.Obs().Emit(obs.KindRestart, svc.cfg.Label, svc.cfg.Version, int64(ep), int64(svc.failures))
}

// restartHeartbeat forgets outstanding pings and schedules the next one a
// full period out.
func (svc *service) restartHeartbeat(now sim.Time) {
	svc.missed = 0
	svc.awaiting = false
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
	if svc.hbN == 0 {
		return ""
	}
	b := make([]byte, svc.hbN)
	for i := 0; i < svc.hbN; i++ {
		if svc.hbBits>>uint(svc.hbN-1-i)&1 == 1 {
			b[i] = 'o'
		} else {
			b[i] = 'm'
		}
	}
	return string(b)
}

// policyStepDetail renders one traced script step: the expanded argv
// plus the interpreter's variable state at that point.
func policyStepDetail(argv []string, vars string) string {
	d := strings.Join(argv, " ")
	if vars != "" {
		d += " [" + vars + "]"
	}
	return d
}

// internal message type: drain the pending Go-level requests.
const msgRSDrain int32 = 390

// stableResetAfter: a service that stays up this long gets its
// consecutive-failure count reset, so the exponential backoff reflects
// crash *loops* rather than lifetime totals.
const stableResetAfter = 60 * time.Second

// termGrace is how long a SIGTERM'd component gets before SIGKILL (§6).
const termGrace = 500 * time.Millisecond

// microBudget is how many in-place microreboots one instance may perform
// before RS denies further requests and forces a full respawn — the
// escalation rung for a VM whose state is corrupt beyond an in-place
// reset. A full respawn (or a long stable run) resets the budget.
const microBudget = 3

// RS is the reincarnation server.
type RS struct {
	ctx  *kernel.Ctx
	k    *kernel.Kernel
	dsEp kernel.Endpoint
	pmEp kernel.Endpoint

	services map[string]*service
	ordered  []*service   // the services in label order, rebuilt when one is added
	pending  []pendingReq // Go-level API requests awaiting the RS loop
	shSeq    int          // policy-script runner sequence numbers

	events   []Event
	alerts   []Alert
	onReboot func()
	rebooted bool

	// dec receives structured recovery-decision events (nil = off; every
	// decision point costs one nil check).
	dec *decision.Recorder
}

type pendingReq struct {
	kind  string // "start", "stop", "restart", "update", "kill"
	cfg   ServiceConfig
	label string
	sig   kernel.Signal
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
// was decided (Kind, Action, Detail, Delay, Status, Latency); what every
// decision carries — the service, the defect class, the budget state it
// was computed from and the link to the recovery episode's span — is
// filled in here. Triggers precede the episode their kill opens and carry
// no link. Callers guard with rs.dec.On only where building Detail costs
// something.
func (rs *RS) decide(svc *service, class Defect, ev decision.Event) {
	if !rs.dec.On(ev.Kind) {
		return
	}
	ev.Service, ev.Defect = svc.cfg.Label, int(class)
	ev.Failures, ev.Budget = svc.failures, restartBudget(svc)
	if ev.Kind != decision.KindTrigger {
		ev.Trace, ev.Span = svc.episode.Trace, svc.episode.Span
	}
	rs.dec.Emit(ev)
}

// [recovery:end]

// Start spawns the reincarnation server. It subscribes to PM's exit
// events; services are then added with StartService.
func Start(k *kernel.Kernel, pmEp, dsEp kernel.Endpoint, opts ...Option) (*RS, error) {
	rs := &RS{
		k:        k,
		dsEp:     dsEp,
		pmEp:     pmEp,
		services: make(map[string]*service),
	}
	for _, o := range opts {
		o(rs)
	}
	ctx, err := k.Spawn(Label, kernel.Privileges{
		AllowAllIPC: true,
		Calls: []kernel.Call{
			kernel.CallSpawn, kernel.CallKill, kernel.CallPrivCtl, kernel.CallAlarm,
		},
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
	if svc, ok := rs.services[label]; ok && svc.running {
		return svc.ep
	}
	return kernel.None
}

// Guards reports whether label names a service RS guards, or has been
// asked to start once its process first runs — so a caller can tell a
// mistyped label from a real one before the simulation has taken a step.
func (rs *RS) Guards(label string) bool {
	if _, ok := rs.services[label]; ok {
		return true
	}
	for _, req := range rs.pending {
		if req.kind == "start" && req.cfg.Label == label {
			return true
		}
	}
	return false
}

// ServiceInfo is a read-only snapshot of one guarded service, for the
// live invariant checker (internal/check).
type ServiceInfo struct {
	Label   string
	Ep      kernel.Endpoint // current (or last) instance endpoint
	Running bool
	Stopped bool // administratively stopped; no recovery expected
	GaveUp  bool

	HeartbeatPeriod sim.Time
	HeartbeatMisses int
	NextPing        sim.Time // next heartbeat deadline (0 = unmonitored)
	Awaiting        bool     // ping sent, pong outstanding
	Missed          int      // consecutive misses so far

	Failures   int
	Recovering bool // defect detected, fresh instance not yet published

	// StandbyEp is the parked warm replica's endpoint (None = no
	// replica). The invariant checker asserts no published name ever
	// resolves to it: a standby never serves before promotion.
	StandbyEp kernel.Endpoint
}

// Version moves whenever the service bookkeeping may have changed. Every
// service field is written by the RS process itself — never by a
// scheduler callback, a death hook or a policy shell — so the count of
// hand-offs to that process is a sufficient (if generous) counter, and no
// write site needs to remember to bump anything. The invariant checker
// skips rescanning the services while it stands still.
func (rs *RS) Version() uint64 { return rs.ctx.Resumes() }

// Services returns a snapshot of every guarded service, in label order.
func (rs *RS) Services() []ServiceInfo { return rs.ServicesInto(nil) }

// ServicesInto appends the snapshot to buf and returns it, letting the
// live invariant checker — which snapshots after every scheduler step —
// reuse one buffer.
func (rs *RS) ServicesInto(buf []ServiceInfo) []ServiceInfo {
	out := buf
	for _, svc := range rs.ordered {
		standby := kernel.None
		if svc.standbyUp {
			standby = svc.standbyEp
		}
		out = append(out, ServiceInfo{
			Label:           svc.cfg.Label,
			Ep:              svc.ep,
			Running:         svc.running,
			Stopped:         svc.stopped,
			GaveUp:          svc.gaveUp,
			HeartbeatPeriod: svc.cfg.HeartbeatPeriod,
			HeartbeatMisses: svc.cfg.HeartbeatMisses,
			NextPing:        svc.nextPing,
			Awaiting:        svc.awaiting,
			Missed:          svc.missed,
			Failures:        svc.failures,
			Recovering:      svc.detectedAt != 0,
			StandbyEp:       standby,
		})
	}
	return out
}

// FailureCount returns a service's consecutive-failure count.
func (rs *RS) FailureCount(label string) int {
	if svc, ok := rs.services[label]; ok {
		return svc.failures
	}
	return 0
}

// StartService registers and starts a service. Callable from outside the
// simulation loop (before Run) or from within any process.
func (rs *RS) StartService(cfg ServiceConfig) {
	rs.pending = append(rs.pending, pendingReq{kind: "start", cfg: cfg})
	rs.kick()
}

// StopService administratively stops a service (SIGTERM, then SIGKILL);
// no recovery is performed.
func (rs *RS) StopService(label string) {
	rs.pending = append(rs.pending, pendingReq{kind: "stop", label: label})
	rs.kick()
}

// UpdateService performs a dynamic update (defect class 6): the running
// instance is asked to exit and a fresh instance — possibly a new binary
// registered via cfg — takes its place with no backoff delay.
func (rs *RS) UpdateService(cfg ServiceConfig) {
	rs.pending = append(rs.pending, pendingReq{kind: "update", cfg: cfg, label: cfg.Label})
	rs.kick()
}

// KillService sends the service a signal as the "user kill" defect
// class 3 (the crash-simulation scripts of §7.1 use SIGKILL).
func (rs *RS) KillService(label string, sig kernel.Signal) {
	rs.pending = append(rs.pending, pendingReq{kind: "kill", label: label, sig: sig})
	rs.kick()
}

func (rs *RS) kick() {
	_ = rs.k.PostAsync(rs.ctx.Endpoint(), kernel.Message{Type: msgRSDrain})
}

// run is the RS message loop.
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
		switch {
		case m.Type == kernel.MsgNotify && m.Source == kernel.Clock:
			rs.onTimer(c)
		case m.Type == msgRSDrain && m.Source == kernel.System:
			rs.drain(c)
		case m.Type == proto.PMExitEvent:
			if m.Source == rs.pmEp {
				rs.onExitEvent(c, m)
			}
		case m.Type == proto.RSPong:
			rs.onPong(m.Source)
		case m.Type == proto.RSMicroAsk:
			rs.onMicroAsk(c, m)
		case m.Type == proto.RSMicroDone:
			rs.onMicroDone(c, m)
		case m.Type == proto.RSRestart:
			rs.onRestartRequest(c, m)
		case m.Type == proto.RSStop:
			rs.doStop(c, m.Name)
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
		case m.Type == proto.RSComplain:
			rs.onComplaint(c, m)
		case m.Type == proto.RSReboot:
			rs.doReboot(c)
			_ = c.Send(m.Source, kernel.Message{Type: proto.RSAck, Arg1: proto.OK})
		}
	}
}

func (rs *RS) drain(c *kernel.Ctx) {
	for len(rs.pending) > 0 {
		req := rs.pending[0]
		rs.pending = rs.pending[1:]
		switch req.kind {
		case "start":
			svc := &service{cfg: req.cfg}
			if svc.cfg.HeartbeatMisses == 0 {
				svc.cfg.HeartbeatMisses = 3
			}
			rs.services[req.cfg.Label] = svc
			rs.ordered = rs.ordered[:0]
			for _, s := range rs.services {
				rs.ordered = append(rs.ordered, s)
			}
			slices.SortFunc(rs.ordered, func(a, b *service) int { return strings.Compare(a.cfg.Label, b.cfg.Label) })
			rs.spawnInstance(c, svc)
		case "stop":
			rs.doStop(c, req.label)
		case "update":
			rs.doUpdate(c, req.cfg)
		case "kill":
			if svc, ok := rs.services[req.label]; ok && svc.running {
				// Attributed to "killed by user": RS merely relays.
				_ = c.Kill(svc.ep, req.sig)
			}
		}
	}
}

// spawnInstance starts a fresh process for svc and reintegrates it:
// privileges are applied at spawn, the new endpoint is published in the
// data store, and heartbeat monitoring restarts.
func (rs *RS) spawnInstance(c *kernel.Ctx, svc *service) {
	ep, err := c.Spawn(svc.cfg.Label, svc.cfg.Priv, svc.cfg.Binary)
	if err != nil {
		c.Logf("spawn %s: %v", svc.cfg.Label, err)
		return
	}
	svc.serveFrom(c, ep)
	// Publish the new endpoint; dependent components subscribed through
	// the data store learn about the restart from this (paper §5.3).
	_, err = c.SendRec(rs.dsEp, kernel.Message{
		Type: proto.DSPublish,
		Name: svc.cfg.Label,
		Arg1: int64(ep),
	})
	if err != nil {
		c.Logf("publish %s: %v", svc.cfg.Label, err)
	}
	c.Logf("service %s up at %v (failures=%d)", svc.cfg.Label, ep, svc.failures)
	if svc.cfg.Mechanism == MechStandby {
		rs.spawnStandby(c, svc) // keep the warm pool filled
	}
}

// spawnStandby parks a fresh warm replica for svc under the "/sb" label.
// The replica runs the same binary with the same privileges but does not
// touch the device until promoted (internal/drvlib's standby loop parks
// it before Init).
// [recovery:begin]
func (rs *RS) spawnStandby(c *kernel.Ctx, svc *service) {
	if svc.standbyUp || svc.stopped || svc.gaveUp {
		return
	}
	ep, err := c.Spawn(drvlib.StandbyLabel(svc.cfg.Label), svc.cfg.Priv, svc.cfg.Binary)
	if err != nil {
		c.Logf("spawn standby for %s: %v", svc.cfg.Label, err)
		return
	}
	svc.standbyEp = ep
	svc.standbyUp = true
	c.Logf("standby for %s parked at %v", svc.cfg.Label, ep)
}

// killStandby retires the parked replica (give-up, administrative stop).
// The endpoint is cleared before the kill so the resulting death event is
// not mistaken for a replica crash and back-filled.
func (rs *RS) killStandby(c *kernel.Ctx, svc *service, sig kernel.Signal) {
	if !svc.standbyUp {
		return
	}
	ep := svc.standbyEp
	svc.standbyEp = kernel.None
	svc.standbyUp = false
	_ = c.Kill(ep, sig)
}

// [recovery:end]

// [recovery:begin]
// onExitEvent handles a PM exit report — defect classes 1–3, plus the
// tail ends of classes 4–6 whose kills RS itself initiated.
func (rs *RS) onExitEvent(c *kernel.Ctx, m kernel.Message) {
	if drvlib.IsStandbyLabel(m.Name) {
		rs.onStandbyExit(c, m)
		return
	}
	svc, ok := rs.services[m.Name]
	if !ok || kernel.Endpoint(m.Arg1) != svc.ep {
		return // not ours, or a stale instance's echo
	}
	svc.running = false
	svc.termKillAt = 0
	if svc.stopped {
		return // administrative stop: expected, no recovery
	}
	var class Defect
	switch {
	case svc.updating:
		class = DefectUpdate
	case svc.killClass != 0:
		class = svc.killClass
		svc.killClass = 0
	default:
		switch m.Arg2 {
		case proto.CauseExit:
			class = DefectExit
		case proto.CauseException:
			class = DefectException
		default:
			class = DefectKilled
		}
	}
	svc.detectedAt = c.Now()
	rs.recover(c, svc, class)
}

// onStandbyExit handles a parked replica dying: clear it and back-fill,
// so the pool self-heals. Deliberate retirements (give-up, stop,
// promotion) clear standbyEp before acting and are ignored here.
func (rs *RS) onStandbyExit(c *kernel.Ctx, m kernel.Message) {
	svc, ok := rs.services[drvlib.PrimaryLabel(m.Name)]
	if !ok || !svc.standbyUp || kernel.Endpoint(m.Arg1) != svc.standbyEp {
		return
	}
	svc.standbyEp = kernel.None
	svc.standbyUp = false
	if svc.cfg.Mechanism == MechStandby {
		rs.spawnStandby(c, svc)
	}
}

// [recovery:end]

// [recovery:begin]
// recover runs the policy-driven recovery procedure (§5.2).
func (rs *RS) recover(c *kernel.Ctx, svc *service, class Defect) {
	svc.creditStableRun(c.Now())
	switch {
	case svc.microPending:
		// This death is the failed tail of a granted microreboot, which
		// was already charged at RSMicroAsk: don't double-count it.
		svc.microPending = false
	case class != DefectUpdate:
		svc.failures++
	}
	svc.lastFailure = c.Now()
	c.Logf("defect %v in %s (repetition %d)", class, svc.cfg.Label, svc.failures)
	c.Obs().Emit(obs.KindDefect, svc.cfg.Label, class.String(), int64(svc.failures), int64(class))
	rs.openEpisode(c, svc, class)

	if svc.cfg.MaxRestarts > 0 && svc.failures > svc.cfg.MaxRestarts {
		svc.gaveUp = true
		rs.killStandby(c, svc, kernel.SIGKILL) // no pool for an abandoned service
		rs.events = append(rs.events, Event{
			Time: c.Now(), Label: svc.cfg.Label, Defect: class,
			Repetition: svc.failures, GaveUp: true,
		})
		c.Obs().Emit(obs.KindGiveUp, svc.cfg.Label, class.String(), int64(svc.failures), 0)
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "give-up", Detail: "restart budget exhausted"})
		// Withdraw the name so dependents see the component as gone. The
		// episode ends unsuccessfully (status 1): the component stays down.
		c.SetTraceCtx(svc.episode)
		_, _ = c.SendRec(rs.dsEp, kernel.Message{Type: proto.DSWithdraw, Name: svc.cfg.Label})
		rs.closeEpisode(c, svc, class, "gave-up", "", 1)
		return
	}

	// Warm-standby fast path: fail over to the parked replica instead of
	// spawning. Dynamic updates still respawn (the update's new binary
	// must run), and a missing or unpromotable replica falls through to
	// the ordinary spawn path below.
	if svc.cfg.Mechanism == MechStandby && class != DefectUpdate && svc.standbyUp {
		if rs.promoteStandby(c, svc, class) {
			return
		}
	}

	if svc.cfg.Policy == nil {
		// Direct restart (the disk-driver path of §6.2).
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction, Action: "restart-direct"})
		rs.completeRecovery(c, svc, class)
		return
	}
	svc.pendingClass = class
	rs.runPolicyScript(c, svc, class)
}

// [recovery:end]

// [recovery:begin]
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
	svc.standbyUp = false
	if err := c.Relabel(ep, svc.cfg.Label); err != nil {
		c.Logf("promote %s: relabel %v: %v", svc.cfg.Label, ep, err)
		return false
	}
	if rs.dec.On(decision.KindAction) {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "promote-standby", Detail: fmt.Sprintf("replica=%v", ep)})
	}
	c.SetTraceCtx(svc.episode)
	svc.serveFrom(c, ep)
	// The promote must be queued at the replica before the data-store
	// fanout lets dependents talk to it; per-receiver delivery is arrival
	// order, so the replica attaches before serving its first request.
	_ = c.AsyncSend(ep, kernel.Message{Type: proto.RSPromote, Name: svc.cfg.Label})
	if _, err := c.SendRec(rs.dsEp, kernel.Message{
		Type: proto.DSFailover, Name: svc.cfg.Label, Arg1: int64(ep),
	}); err != nil {
		c.Logf("failover publish %s: %v", svc.cfg.Label, err)
	}
	c.Logf("service %s failed over to standby %v (failures=%d)", svc.cfg.Label, ep, svc.failures)
	rs.settle(c, svc, class, "promote-standby")
	rs.spawnStandby(c, svc) // back-fill the pool in the background
	return true
}

// [recovery:end]

// [recovery:begin]
// onMicroAsk arbitrates a driver's request to microreboot its faulted
// ucode VM in place. Every granted microreboot is charged against the
// same consecutive-failure budget as a respawn — MaxRestarts bounds
// recoveries, not process spawns — and against the per-instance
// microreboot budget; when either is exhausted the request is denied,
// the driver carries out its original fatal, and the ladder escalates to
// a full respawn (which resets the microreboot budget).
func (rs *RS) onMicroAsk(c *kernel.Ctx, m kernel.Message) {
	svc, ok := rs.services[m.Name]
	reply := kernel.Message{Type: proto.RSAck, Arg1: proto.OK}
	if !ok || m.Source != svc.ep || svc.cfg.Mechanism != MechMicroreboot ||
		svc.stopped || svc.updating || svc.gaveUp {
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
		c.Logf("microreboot of %s denied: %s", svc.cfg.Label, deny)
		reply.Arg1 = proto.ErrAgain
		_ = c.Send(m.Source, reply)
		return
	}
	svc.failures++
	svc.lastFailure = c.Now()
	svc.microCount++
	svc.microPending = true
	svc.pendingClass = class
	svc.detectedAt = c.Now()
	c.Logf("defect %v in %s: microreboot %d/%d (repetition %d)",
		class, svc.cfg.Label, svc.microCount, microBudget, svc.failures)
	rs.openEpisode(c, svc, class)
	if rs.dec.On(decision.KindAction) {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction, Action: "microreboot",
			Detail: fmt.Sprintf("in-place vm reset %d/%d", svc.microCount, microBudget)})
	}
	_ = c.Send(m.Source, reply)
}

// [recovery:end]

// [recovery:begin]
// onMicroDone closes an in-place microreboot episode: the driver is
// serving again on the same endpoint, so there is no republish and no
// reintegration — only the books are settled.
func (rs *RS) onMicroDone(c *kernel.Ctx, m kernel.Message) {
	svc, ok := rs.services[m.Name]
	if !ok || m.Source != svc.ep || !svc.microPending {
		return
	}
	svc.microPending = false
	svc.restartHeartbeat(c.Now())
	c.Logf("service %s microrebooted in place (failures=%d)", svc.cfg.Label, svc.failures)
	rs.settle(c, svc, rs.lastDefectClass(svc), "microreboot")
}

// [recovery:end]

// [recovery:begin]
// completeRecovery restarts the component and records the event. The
// spawn and publish run under the episode's context, so the fresh
// instance's initialization and the data-store fanout that triggers
// dependents' reintegration are causal children of the episode span.
func (rs *RS) completeRecovery(c *kernel.Ctx, svc *service, class Defect) {
	c.SetTraceCtx(svc.episode)
	rs.spawnInstance(c, svc)
	rs.settle(c, svc, class, "")
}

// openEpisode opens the recovery episode's root span at defect detection
// (a granted microreboot whose reset then fails is detected twice; the
// second detection continues the first's episode) and records the
// detection.
func (rs *RS) openEpisode(c *kernel.Ctx, svc *service, class Defect) {
	if !svc.episode.Valid() {
		svc.episode = c.Obs().StartSpan(Label, "recover:"+svc.cfg.Label, obs.SpanContext{})
	}
	if rs.dec.On(decision.KindDetect) {
		rs.decide(svc, class, decision.Event{Kind: decision.KindDetect, Detail: svc.hbWindow()})
	}
}

// settle books a completed recovery, whichever rung of the ladder carried
// it out (how; "" for a respawn): svc.ep is serving again, so the event
// log, the latency histogram and the decision trail get their entry and
// the episode closes.
func (rs *RS) settle(c *kernel.Ctx, svc *service, class Defect, how string) {
	took := c.Now() - svc.detectedAt
	rs.events = append(rs.events, Event{
		Time: svc.detectedAt, Label: svc.cfg.Label, Defect: class,
		Repetition: svc.failures, Recovered: true, Duration: took, NewEp: svc.ep,
	})
	c.Obs().ObserveRecovery(svc.cfg.Label, took)
	rs.closeEpisode(c, svc, class, "recovered", how, 0)
	svc.detectedAt = 0
	svc.pendingClass = 0
}

// closeEpisode records the episode's terminal decision and ends its span
// with status (0 recovered, 1 gave up).
func (rs *RS) closeEpisode(c *kernel.Ctx, svc *service, class Defect, outcome, how string, status int64) {
	rs.decide(svc, class, decision.Event{Kind: decision.KindOutcome,
		Action: outcome, Detail: how, Status: status, Latency: c.Now() - svc.detectedAt})
	c.Obs().EndSpan(Label, svc.episode, status)
	svc.episode = obs.SpanContext{}
	c.SetTraceCtx(obs.SpanContext{})
}

// [recovery:end]

// [recovery:begin]
// runPolicyScript launches a transient process that executes the
// service's recovery script. The script's `service restart` command calls
// back into RS — "restarting is always done by requesting the
// reincarnation server to do so, since that is the only process with the
// privileges to create new servers and drivers" (§5.2).
func (rs *RS) runPolicyScript(c *kernel.Ctx, svc *service, class Defect) {
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
	_, err := c.Spawn(runnerLabel, kernel.Privileges{
		IPCTo: []string{Label},
		UID:   1000,
	}, func(sh *kernel.Ctx) {
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
			policy.WithCommand("log", func(argv []string, stdin string) (string, int) {
				sh.Logf("policy log: %v", argv[1:])
				return "", 0
			}),
			policy.WithCommand("reboot", func(argv []string, stdin string) (string, int) {
				if _, err := sh.SendRec(rsEp, kernel.Message{Type: proto.RSReboot}); err != nil {
					return "", 1
				}
				return "", 0
			}),
		}
		if rs.dec.On(decision.KindPolicyStep) {
			opts = append(opts, policy.WithTrace(func(argv []string, status int) {
				ev := decision.Event{
					Kind:   decision.KindPolicyStep,
					Action: argv[0], Detail: policyStepDetail(argv, interp.VarState()),
					Status: int64(status),
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
			sh.Logf("policy script failed: %v", err)
			rc = 1
			// A broken policy script must not strand the component: fall
			// back to a direct restart request.
			_, _ = sh.SendRec(rsEp, kernel.Message{Type: proto.RSRestart, Name: args[0]})
		}
		rs.decide(&atLaunch, class, decision.Event{Kind: decision.KindPolicyStep, Action: "exit", Status: rc})
		sh.Obs().Emit(obs.KindPolicyExit, args[0], runnerLabel, rc, 0)
		sh.Exit(0)
	})
	if err != nil {
		c.Logf("policy runner for %s: %v", svc.cfg.Label, err)
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "restart-direct", Detail: "policy runner spawn failed"})
		rs.completeRecovery(c, svc, class)
		return
	}
	if rs.dec.On(decision.KindAction) {
		rs.decide(svc, class, decision.Event{Kind: decision.KindAction,
			Action: "policy-run", Detail: strings.Join(args, " ")})
	}
}

// [recovery:end]

// [recovery:begin]
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

// [recovery:end]

// [recovery:begin]
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

// [recovery:begin]
// onRestartRequest restarts a service on behalf of a policy script or the
// service utility.
func (rs *RS) onRestartRequest(c *kernel.Ctx, m kernel.Message) {
	svc, ok := rs.services[m.Name]
	reply := kernel.Message{Type: proto.RSAck, Arg1: proto.OK}
	switch {
	case !ok:
		reply.Arg1 = proto.ErrNotFound
	case svc.running:
		// Restart of a live service = administrative replace.
		rs.beginTermination(c, svc, DefectUpdate)
	case svc.detectedAt != 0:
		// The script is finishing a recovery already in progress.
		rs.completeRecovery(c, svc, rs.lastDefectClass(svc))
	default:
		rs.spawnInstance(c, svc)
	}
	_ = c.Send(m.Source, reply)
}

// [recovery:end]

// [recovery:begin]
// lastDefectClass reconstructs the class recorded at detection for the
// script-driven path. The class is threaded through the script's $2; for
// the event log we re-derive it from the pending detection.
func (rs *RS) lastDefectClass(svc *service) Defect {
	if svc.updating {
		return DefectUpdate
	}
	if svc.pendingClass != 0 {
		return svc.pendingClass
	}
	return DefectExit
}

// [recovery:end]

// doStop administratively stops a service.
func (rs *RS) doStop(c *kernel.Ctx, label string) {
	svc, ok := rs.services[label]
	if !ok || !svc.running {
		return
	}
	svc.stopped = true
	rs.killStandby(c, svc, kernel.SIGTERM)
	rs.beginTermination(c, svc, 0)
}

// [recovery:begin]
// doUpdate performs the dynamic-update flow: ask the component to exit
// (SIGTERM), escalate to SIGKILL after a grace period, then start the new
// binary. The exit event carries the class-6 attribution via svc.updating.
func (rs *RS) doUpdate(c *kernel.Ctx, cfg ServiceConfig) {
	svc, ok := rs.services[cfg.Label]
	if !ok {
		rs.pending = append(rs.pending, pendingReq{kind: "start", cfg: cfg})
		rs.drain(c)
		return
	}
	// Swap in the new binary/version/policy for the next instance; fields
	// left zero keep the current ones (update-in-place restart).
	if cfg.Binary != nil {
		svc.cfg.Binary = cfg.Binary
	}
	if cfg.Version != "" {
		svc.cfg.Version = cfg.Version
	}
	if cfg.Policy != nil {
		svc.cfg.Policy = cfg.Policy
		svc.cfg.PolicyParams = cfg.PolicyParams
	}
	if !svc.running {
		svc.detectedAt = c.Now()
		rs.recover(c, svc, DefectUpdate)
		return
	}
	rs.beginTermination(c, svc, DefectUpdate)
}

// [recovery:end]

// beginTermination sends SIGTERM and arms the SIGKILL escalation.
func (rs *RS) beginTermination(c *kernel.Ctx, svc *service, class Defect) {
	if class == DefectUpdate {
		svc.updating = true
		rs.decide(svc, DefectUpdate, decision.Event{Kind: decision.KindTrigger,
			Action: "terminate", Detail: "dynamic update", Delay: termGrace})
	}
	svc.termKillAt = c.Now() + termGrace
	_ = c.Kill(svc.ep, kernel.SIGTERM)
}

// [recovery:begin]
// onComplaint handles defect class 5: an authorized server reports a
// malfunctioning component; RS kills and replaces it.
func (rs *RS) onComplaint(c *kernel.Ctx, m kernel.Message) {
	reply := kernel.Message{Type: proto.RSAck, Arg1: proto.OK}
	if !rs.k.MayComplain(m.Source) {
		reply.Arg1 = proto.ErrPerm
		_ = c.Send(m.Source, reply)
		return
	}
	svc, ok := rs.services[m.Name]
	if !ok || !svc.running {
		reply.Arg1 = proto.ErrNotFound
		_ = c.Send(m.Source, reply)
		return
	}
	c.Logf("complaint about %s from %s", m.Name, rs.k.LabelOf(m.Source))
	if rs.dec.On(decision.KindTrigger) {
		rs.decide(svc, DefectComplaint, decision.Event{Kind: decision.KindTrigger,
			Action: "complaint-kill", Detail: "complaint from " + rs.k.LabelOf(m.Source)})
	}
	svc.killClass = DefectComplaint
	_ = c.Kill(svc.ep, kernel.SIGKILL)
	_ = c.Send(m.Source, reply)
}

// [recovery:end]

func (rs *RS) doReboot(c *kernel.Ctx) {
	rs.rebooted = true
	c.Logf("policy script requested system reboot")
	if rs.onReboot != nil {
		rs.onReboot()
	}
}

// armTimer sets RS's alarm to the earliest pending deadline (heartbeat
// pings and SIGTERM escalations share the single kernel alarm).
func (rs *RS) armTimer(c *kernel.Ctx) {
	var next sim.Time
	for _, svc := range rs.ordered {
		if svc.running && svc.cfg.HeartbeatPeriod > 0 {
			if next == 0 || svc.nextPing < next {
				next = svc.nextPing
			}
		}
		if svc.running && svc.termKillAt != 0 {
			if next == 0 || svc.termKillAt < next {
				next = svc.termKillAt
			}
		}
	}
	if next == 0 {
		c.SetAlarm(0)
		return
	}
	d := next - c.Now()
	if d <= 0 {
		d = 1 // fire on the next tick, never in the past
	}
	c.SetAlarm(d)
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
	for _, svc := range rs.ordered {
		if !svc.running {
			continue
		}
		if svc.termKillAt != 0 && now >= svc.termKillAt {
			svc.termKillAt = 0
			if !svc.stopped {
				var class Defect
				if svc.updating {
					class = DefectUpdate
				}
				rs.decide(svc, class, decision.Event{Kind: decision.KindTrigger,
					Action: "escalate-sigkill", Detail: "termination grace expired"})
			}
			_ = c.Kill(svc.ep, kernel.SIGKILL)
			continue
		}
		if svc.cfg.HeartbeatPeriod > 0 && now >= svc.nextPing {
			if svc.awaiting {
				svc.missed++
				c.Obs().Emit(obs.KindHeartbeat, svc.cfg.Label, "miss", int64(svc.missed), 0)
				if rs.dec.On(decision.KindDetect) {
					svc.recordHB(false)
				}
				if svc.missed >= svc.cfg.HeartbeatMisses {
					// Defect class 4: the component is stuck. Kill it;
					// the exit event completes the recovery.
					c.Logf("%s missed %d heartbeats; declaring stuck", svc.cfg.Label, svc.missed)
					if rs.dec.On(decision.KindTrigger) {
						rs.decide(svc, DefectHeartbeat, decision.Event{Kind: decision.KindTrigger,
							Action: "declare-stuck",
							Detail: fmt.Sprintf("hb=%s missed=%d", svc.hbWindow(), svc.missed)})
					}
					svc.killClass = DefectHeartbeat
					svc.awaiting = false
					svc.missed = 0
					_ = c.Kill(svc.ep, kernel.SIGKILL)
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
	for _, svc := range rs.ordered {
		if svc.ep == from {
			if svc.awaiting && rs.dec.On(decision.KindDetect) {
				svc.recordHB(true)
			}
			svc.awaiting = false
			svc.missed = 0
			return
		}
	}
}
