// Package check is a live kernel/recovery invariant checker. It watches a
// running simulation from two angles at once — as a trace-bus sink
// (internal/obs events, in emission order) and as a scheduler step hook
// (internal/sim, after every executed event) — and asserts the safety and
// liveness properties the recovery architecture promises:
//
//   - rs-guard: the reincarnation server's view of every guarded service
//     matches the kernel's process table — a running service's recorded
//     endpoint IS the kernel's live instance of that label, and a dead
//     instance is detected (and recovery begun) within a bounded delay.
//   - endpoint-unique: no two live processes share an IPC endpoint or a
//     stable label, and every endpoint encodes its own table slot.
//   - stale-endpoint: after a restart is published, the data store never
//     maps a label to anything but the kernel's live instance of that
//     label (no stale endpoint can reach a successor instance).
//   - grant-safety: grants die with their owner (a dead instance's grant
//     table is empty), and no live grant keeps referencing a dead grantee
//     incarnation beyond a small revocation window.
//   - heartbeat: every monitored service either answers its pings or is
//     declared defective within its policy deadline — the miss counter
//     never lingers at/over the kill threshold, and pings never stall.
//   - trace-span: recovery traces are well-formed — every defect span
//     closes (restart or give-up) within a deadline, and every policy
//     script that starts also exits.
//   - span-leak: causal request spans are well-formed — no span begins
//     twice or terminates without being open, and at the end of the run
//     every opened span was ended or orphaned (a span whose owner died
//     must have been orphaned by the kernel's reaper; an open span with
//     a live owner is a request legitimately still in flight).
//   - decision: the recovery-decision log (internal/obs/decision) is
//     consistent with the episode lifecycle — no action, policy step, or
//     terminal outcome outside an open recovery episode
//     (decision-without-episode), and every crash's episode ends with
//     exactly one terminal decision (episode-without-terminal-decision).
//   - failover: warm-standby failover is safe — the data store never maps
//     a published name to a live standby replica that was not promoted
//     (a standby never serves before promotion; together with
//     endpoint-unique this also means a name never has two live owners),
//     and state-capsule versions are monotone per driver: every save
//     strictly exceeds the last version seen, and a successor never
//     adopts a capsule older than one already written (a rejected adopt
//     legitimately restarts the chain — the successor cold-starts).
//
// Violations carry the virtual time and a one-line detail; the checker
// also keeps a bounded tail of recent trace events so a campaign can turn
// any violation into a one-command repro (seed + mutated instruction +
// last K events).
//
// Checking is deterministic: state scans visit kernel and server tables
// in sorted order, so identically-seeded runs report identical
// violations.
//
// The step hook runs after every scheduler event, but almost every event
// leaves everything the scans read untouched. The real kernel, data
// store and reincarnation server therefore expose a mutation counter
// (Version), and a step rescans only when a counter moved, when an event
// rewrote the span or publish state, while a stale grant is being
// counted, or when the clock passes the earliest pending deadline (see
// quiet). A skipped scan would have reported nothing and changed
// nothing, so violations — text, order and step — are those of scanning
// every step; a view without a counter (the test fakes) is still
// scanned every step and serves as the reference.
package check

import (
	"fmt"
	"math"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/drvlib"
	"resilientos/internal/kernel"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/sim"
)

// KernelView is the slice of the kernel the checker inspects.
type KernelView interface {
	VisitProcs(func(kernel.ProcInfo))
	VisitGrants(func(kernel.GrantInfo))
	LookupLabel(string) kernel.Endpoint
	Alive(kernel.Endpoint) bool
}

// RSView is the slice of the reincarnation server the checker inspects.
type RSView interface {
	Services() []core.ServiceInfo
}

// NameView is the slice of the data store the checker inspects.
type NameView interface {
	VisitNames(func(name string, ep kernel.Endpoint))
}

// versioned is the mutation counter a view may expose besides its
// interface. The owner bumps it on every write to a field the scans
// read, so while it stands still the view would scan exactly as before.
type versioned interface{ Version() uint64 }

// Config wires a Checker to a running system. Kernel, RS, and DS may each
// be nil; the invariants needing them are skipped (the trace-span checks
// only need events).
type Config struct {
	Kernel KernelView
	RS     RSView
	DS     NameView
	Now    func() sim.Time // virtual clock; nil stamps violations with 0

	// TraceTail bounds the kept-events ring for repro dumps (default 64).
	TraceTail int
	// MaxViolations stops recording after this many (default 128).
	MaxViolations int

	// DeadGrace is how long a guarded service may be dead before RS must
	// have begun recovery (default 200ms of virtual time).
	DeadGrace sim.Time
	// GrantGraceSteps is how many scheduler steps a grant may keep
	// referencing a dead grantee before it counts as leaked (default 64;
	// the owner is woken by the rendezvous abort in the same virtual
	// instant, so a healthy owner revokes within a couple of steps).
	GrantGraceSteps int
	// SpanDeadline bounds defect→restart and policy start→exit spans
	// (default 60s of virtual time; policy backoff sleeps count).
	SpanDeadline sim.Time
	// HeartbeatSlack is extra allowance past a missed ping deadline
	// before the monitoring itself is declared stalled (default: one
	// heartbeat period).
	HeartbeatSlack sim.Time

	// Windows, if set, is polled on every step (scan or not) for the
	// windowed telemetry sampler's structural self-check
	// (timeseries.Sampler.Err): a non-nil result — windows out of order,
	// overlapping, or with non-dense indices — is a window-monotonic
	// violation. The poll is a single function call, so attaching a
	// sampler to a checked run costs nothing measurable.
	Windows func() error
}

// Violation is one invariant failure.
type Violation struct {
	T         sim.Time
	Invariant string // "rs-guard", "endpoint-unique", "stale-endpoint", "grant-safety", "heartbeat", "trace-span", "span-leak", "window-monotonic", "decision", "failover"
	Comp      string // component label the violation is about
	Detail    string
}

func (v Violation) String() string {
	return fmt.Sprintf("[%v] %s(%s): %s", time.Duration(v.T), v.Invariant, v.Comp, v.Detail)
}

// Checker enforces the invariants. Attach it with obs.Recorder.AddSink
// (events) and sim.Env.SetStepHook (state scans).
type Checker struct {
	cfg  Config
	tail *obs.RingSink

	step       int // scheduler steps seen
	violations []Violation
	active     map[string]bool // violation episodes currently firing

	// Event-driven state.
	pendingPublish map[string]bool      // label restarted, DS publish not yet seen
	openSpans      map[string]sim.Time  // label -> defect detection time
	openPolicies   map[string]sim.Time  // label -> policy script start time
	deadSince      map[string]sim.Time  // label -> first seen dead-while-running
	staleGrants    map[grantKey]int     // grant -> step first seen with dead grantee
	openCausal     map[int64]causalSpan // causal span ID -> begin info (span-leak)
	openDecisions  map[string]sim.Time  // label -> decision-level detect time
	openDecPolicy  map[string]sim.Time  // label -> decision-level policy-run time
	capsuleVer     map[string]int64     // label -> last capsule version saved or adopted

	// Per-scan scratch state, reused to keep the scans allocation-free.
	seenEp     map[kernel.Endpoint]string
	seenLabel  map[string]kernel.Endpoint
	liveStale  map[grantKey]bool
	svcBuf     []core.ServiceInfo
	liveLabels map[string]bool
	standbyEps map[kernel.Endpoint]string // live standby replicas, by endpoint

	// Scan gating (see quiet).
	views    []versioned // counters of the configured views
	seen     []uint64    // their values at the last scan
	ungated  bool        // a view has no counter: scan every step
	dirty    bool        // an event rewrote state the scans read
	deadline sim.Time    // earliest deadline the last scan left pending
}

// noDeadline is Checker.deadline when nothing is pending.
const noDeadline = sim.Time(math.MaxInt64)

type grantKey struct {
	owner kernel.Endpoint
	id    kernel.GrantID
	to    kernel.Endpoint
}

// causalSpan is the begin-side record of one open causal request span.
type causalSpan struct {
	comp string
	t    sim.Time
}

// Attach wires a checker into a live simulation: cfg.Now defaults to
// env.Now, the checker joins rec's sinks (nil-safe), and the scheduler's
// step hook runs the state scans after every executed event.
func Attach(env *sim.Env, rec *obs.Recorder, cfg Config) *Checker {
	if cfg.Now == nil && env != nil {
		cfg.Now = env.Now
	}
	c := New(cfg)
	rec.AddSink(c)
	if env != nil {
		env.SetStepHook(c.Step)
	}
	return c
}

// New creates a checker.
func New(cfg Config) *Checker {
	if cfg.TraceTail <= 0 {
		cfg.TraceTail = 64
	}
	if cfg.MaxViolations <= 0 {
		cfg.MaxViolations = 128
	}
	if cfg.DeadGrace <= 0 {
		cfg.DeadGrace = 200 * time.Millisecond
	}
	if cfg.GrantGraceSteps <= 0 {
		cfg.GrantGraceSteps = 64
	}
	if cfg.SpanDeadline <= 0 {
		cfg.SpanDeadline = 60 * time.Second
	}
	c := &Checker{
		cfg:            cfg,
		tail:           obs.NewRingSink(cfg.TraceTail),
		active:         make(map[string]bool),
		pendingPublish: make(map[string]bool),
		openSpans:      make(map[string]sim.Time),
		openPolicies:   make(map[string]sim.Time),
		deadSince:      make(map[string]sim.Time),
		staleGrants:    make(map[grantKey]int),
		openCausal:     make(map[int64]causalSpan),
		openDecisions:  make(map[string]sim.Time),
		openDecPolicy:  make(map[string]sim.Time),
		capsuleVer:     make(map[string]int64),
		seenEp:         make(map[kernel.Endpoint]string),
		seenLabel:      make(map[string]kernel.Endpoint),
		liveStale:      make(map[grantKey]bool),
		liveLabels:     make(map[string]bool),
		standbyEps:     make(map[kernel.Endpoint]string),
		dirty:          true, // the first step always scans
	}
	for _, view := range []any{cfg.Kernel, cfg.RS, cfg.DS} {
		switch v := view.(type) {
		case nil: // not configured: its scans never run
		case versioned:
			c.views = append(c.views, v)
		default:
			c.ungated = true
		}
	}
	c.seen = make([]uint64, len(c.views))
	return c
}

func (c *Checker) now() sim.Time {
	if c.cfg.Now == nil {
		return 0
	}
	return c.cfg.Now()
}

// report records one violation episode; key dedupes a condition that
// holds across many consecutive steps (clearKey re-arms it).
func (c *Checker) report(key, invariant, comp, detail string) {
	if c.active[key] {
		return
	}
	c.active[key] = true
	if len(c.violations) >= c.cfg.MaxViolations {
		return
	}
	c.violations = append(c.violations, Violation{
		T: c.now(), Invariant: invariant, Comp: comp, Detail: detail,
	})
}

func (c *Checker) clearKey(key string) { delete(c.active, key) }

// Violations returns everything recorded so far.
func (c *Checker) Violations() []Violation {
	return append([]Violation(nil), c.violations...)
}

// Ok reports whether no invariant has failed.
func (c *Checker) Ok() bool { return len(c.violations) == 0 }

// TraceTail returns the most recent trace events (oldest first), for
// repro dumps.
func (c *Checker) TraceTail() []obs.Event { return c.tail.Events() }

// ---------------------------------------------------------------------
// Event-driven checks (obs.Sink).

// Emit implements obs.Sink: it feeds the repro tail and maintains the
// span and publish state machines. A case that writes state the scans
// read (pendingPublish, openSpans, openPolicies) sets dirty; the causal
// span, decision and capsule state is read only here and in Finish.
func (c *Checker) Emit(e obs.Event) {
	c.tail.Emit(e)
	switch e.Kind {
	case obs.KindMark:
		// Run boundary: forget open state, as the timeline builder does.
		c.dirty = true
		c.pendingPublish = make(map[string]bool)
		c.openSpans = make(map[string]sim.Time)
		c.openPolicies = make(map[string]sim.Time)
		c.openCausal = make(map[int64]causalSpan)
		c.openDecisions = make(map[string]sim.Time)
		c.openDecPolicy = make(map[string]sim.Time)
		c.capsuleVer = make(map[string]int64)
	case obs.KindSpanBegin:
		if prev, dup := c.openCausal[e.Span]; dup {
			c.report(fmt.Sprintf("spanbegin:%d", e.Span), "span-leak", e.Comp,
				fmt.Sprintf("span %d begun twice (first by %s at %v)",
					e.Span, prev.comp, time.Duration(prev.t)))
		}
		c.openCausal[e.Span] = causalSpan{comp: e.Comp, t: e.T}
	case obs.KindSpanEnd, obs.KindSpanOrphan:
		if _, open := c.openCausal[e.Span]; !open {
			c.report(fmt.Sprintf("spanterm:%d", e.Span), "span-leak", e.Comp,
				fmt.Sprintf("span %d terminated without being open (never begun, or terminated twice)", e.Span))
		}
		delete(c.openCausal, e.Span)
	case obs.KindDefect:
		// A re-defect before recovery finished re-arms the deadline.
		c.dirty = true
		c.openSpans[e.Comp] = e.T
	case obs.KindPolicyStart:
		c.dirty = true
		c.openPolicies[e.Comp] = e.T
	case obs.KindPolicyExit:
		c.dirty = true
		delete(c.openPolicies, e.Comp)
	case obs.KindRestart:
		c.dirty = true
		c.pendingPublish[e.Comp] = true
		delete(c.openSpans, e.Comp)
		c.clearKey("span:" + e.Comp)
	case obs.KindGiveUp:
		c.dirty = true
		delete(c.openSpans, e.Comp)
		c.clearKey("span:" + e.Comp)
	case obs.KindPublish:
		// Aux is the published name (V2=1 marks a withdraw).
		c.dirty = true
		delete(c.pendingPublish, e.Aux)
	case obs.KindCapsuleSave:
		// Capsule versions must be strictly monotone per driver label.
		if prev, ok := c.capsuleVer[e.Comp]; ok && e.V1 <= prev {
			c.report(fmt.Sprintf("capver:%s:%d", e.Comp, e.V1), "failover", e.Comp,
				fmt.Sprintf("capsule version not monotone: saved v%d after v%d", e.V1, prev))
		}
		c.capsuleVer[e.Comp] = e.V1
	case obs.KindCapsuleAdopt:
		if e.V2 != 0 {
			// Rejected capsule: the successor cold-starts and legitimately
			// restarts the version chain from zero.
			delete(c.capsuleVer, e.Comp)
			break
		}
		if prev, ok := c.capsuleVer[e.Comp]; ok && e.V1 < prev {
			c.report(fmt.Sprintf("capadopt:%s:%d", e.Comp, e.V1), "failover", e.Comp,
				fmt.Sprintf("adopted capsule v%d older than last written v%d", e.V1, prev))
		}
		c.capsuleVer[e.Comp] = e.V1
	}
}

// DecisionSink returns the sink to attach to a decision.Recorder
// (decision.Recorder.AddSink); every recovery-decision event then flows
// through the decision invariant.
func (c *Checker) DecisionSink() decision.Sink { return decisionSink{c} }

// decisionSink adapts the checker to decision.Sink (the checker itself
// already implements obs.Sink with an incompatible Emit).
type decisionSink struct{ c *Checker }

func (s decisionSink) Emit(e decision.Event) { s.c.onDecision(e) }

// onDecision maintains the decision-level episode state machine: detect
// opens, exactly one outcome closes, actions and policy steps must fall
// inside. Triggers are pre-episode by design and always allowed. Marks
// reset the state via the obs-side KindMark case — but decision logs can
// carry their own marks too (whatif cell boundaries), handled here.
func (c *Checker) onDecision(e decision.Event) {
	switch e.Kind {
	case decision.KindMark:
		c.openDecisions = make(map[string]sim.Time)
		c.openDecPolicy = make(map[string]sim.Time)
	case decision.KindTrigger:
		// Pre-episode by design.
	case decision.KindDetect:
		c.openDecisions[e.Service] = e.T
		c.clearKey("decact:" + e.Service)
		c.clearKey("decterm:" + e.Service)
	case decision.KindAction:
		if _, open := c.openDecisions[e.Service]; !open {
			c.report("decact:"+e.Service, "decision", e.Service,
				fmt.Sprintf("decision-without-episode: action %q at %v outside an open recovery episode",
					e.Action, time.Duration(e.T)))
		}
		if e.Action == "policy-run" {
			c.openDecPolicy[e.Service] = e.T
		}
	case decision.KindPolicyStep:
		if _, open := c.openDecPolicy[e.Service]; !open {
			c.report("decstep:"+e.Service, "decision", e.Service,
				fmt.Sprintf("decision-without-episode: policy step %q at %v outside a policy run",
					e.Action, time.Duration(e.T)))
		}
		if e.Action == "exit" {
			delete(c.openDecPolicy, e.Service)
			c.clearKey("decstep:" + e.Service)
		}
	case decision.KindOutcome:
		if _, open := c.openDecisions[e.Service]; !open {
			c.report("decterm:"+e.Service, "decision", e.Service,
				fmt.Sprintf("decision-without-episode: terminal decision %q at %v without an open episode (missing detect, or a second terminal)",
					e.Action, time.Duration(e.T)))
		}
		delete(c.openDecisions, e.Service)
	}
}

// ---------------------------------------------------------------------
// State-scan checks (scheduler step hook).

// Step runs the state scans; attach it via sim.Env.SetStepHook. The
// event-driven state it consults is already up to date for the step, as
// sinks run synchronously inside the step's event.
func (c *Checker) Step() {
	c.step++
	now := c.now()
	if !c.quiet(now) {
		c.dirty = false
		for i, v := range c.views {
			c.seen[i] = v.Version()
		}
		c.deadline = noDeadline // the scans below re-derive it (due)
		if c.cfg.Kernel != nil {
			c.scanProcs()
			c.scanGrants()
			if c.cfg.DS != nil {
				c.scanNames()
			}
		}
		if c.cfg.RS != nil {
			c.scanServices(now)
		}
		c.scanSpans(now)
	}
	if c.cfg.Windows != nil {
		if err := c.cfg.Windows(); err != nil {
			c.report("windows", "window-monotonic", "timeseries", err.Error())
		}
	}
}

// quiet reports whether a scan at this step could neither report nor
// clear anything, because nothing it reads has changed since the last
// one: every view's counter stands still, no event rewrote the span or
// publish state, no stale grant is being aged (that invariant counts
// steps, not time), and the clock has not passed a pending deadline.
func (c *Checker) quiet(now sim.Time) bool {
	if c.ungated || c.dirty || len(c.staleGrants) > 0 || now > c.deadline {
		return false
	}
	for i, v := range c.views {
		if v.Version() != c.seen[i] {
			return false
		}
	}
	return true
}

// due records a deadline the running scan found still pending: the
// condition it guards is `now > at`, so the first step past it must scan
// even if nothing else changed. One already passed needs no wake-up —
// this scan has just reported it.
func (c *Checker) due(now, at sim.Time) {
	if at >= now && at < c.deadline {
		c.deadline = at
	}
}

// Finish flushes end-of-run checks: spans and policy scripts still open
// are violations regardless of deadline (the run is over; they can never
// close). Call it once after the final Run.
func (c *Checker) Finish() {
	// Final poll of the window series: the sampler's own Finish flushes a
	// partial window after the scheduler's last step hook has run.
	if c.cfg.Windows != nil {
		if err := c.cfg.Windows(); err != nil {
			c.report("windows", "window-monotonic", "timeseries", err.Error())
		}
	}
	for _, comp := range sortedTimeKeys(c.openSpans) {
		c.report("finish-span:"+comp, "trace-span", comp,
			fmt.Sprintf("recovery span open at end of run (defect at %v, no restart/give-up)",
				time.Duration(c.openSpans[comp])))
	}
	for _, comp := range sortedTimeKeys(c.openPolicies) {
		c.report("finish-policy:"+comp, "trace-span", comp,
			fmt.Sprintf("policy script started at %v never exited",
				time.Duration(c.openPolicies[comp])))
	}
	for _, comp := range sortedTimeKeys(c.openDecisions) {
		c.report("finish-decision:"+comp, "decision", comp,
			fmt.Sprintf("episode-without-terminal-decision: crash detected at %v has no terminal decision",
				time.Duration(c.openDecisions[comp])))
	}
	for _, id := range sortedSpanIDs(c.openCausal) {
		sp := c.openCausal[id]
		// An open span whose owner is still alive is a request
		// legitimately in flight (a blocked socket read, say). Only a
		// dead owner's open span is a leak — the reaper should have
		// orphaned it.
		if c.cfg.Kernel == nil || c.cfg.Kernel.LookupLabel(sp.comp) != kernel.None {
			continue
		}
		c.report(fmt.Sprintf("finish-causal:%d", id), "span-leak", sp.comp,
			fmt.Sprintf("span %d opened at %v never ended or orphaned",
				id, time.Duration(sp.t)))
	}
}

// scanProcs asserts endpoint and label uniqueness and slot consistency,
// and that dead instances hold no grants. The scratch maps are reused
// across scans: on an ungated view this runs after every scheduler event.
func (c *Checker) scanProcs() {
	seenEp := c.seenEp
	seenLabel := c.seenLabel
	for k := range seenEp {
		delete(seenEp, k)
	}
	for k := range seenLabel {
		delete(seenLabel, k)
	}
	for k := range c.standbyEps {
		delete(c.standbyEps, k)
	}
	c.cfg.Kernel.VisitProcs(func(p kernel.ProcInfo) {
		if !p.Alive {
			if p.Grants > 0 {
				c.report(fmt.Sprintf("leak:%v", p.Ep), "grant-safety", p.Label,
					fmt.Sprintf("dead instance %v still holds %d grant(s); grants must die with their owner",
						p.Ep, p.Grants))
			}
			return
		}
		if int(p.Ep)%4096 != p.Slot { // endpoint must encode its own slot
			c.report(fmt.Sprintf("slot:%v", p.Ep), "endpoint-unique", p.Label,
				fmt.Sprintf("endpoint %v does not encode its table slot %d", p.Ep, p.Slot))
		}
		if prev, dup := seenEp[p.Ep]; dup {
			c.report(fmt.Sprintf("dupep:%v", p.Ep), "endpoint-unique", p.Label,
				fmt.Sprintf("endpoint %v shared by %q and %q", p.Ep, prev, p.Label))
		}
		seenEp[p.Ep] = p.Label
		if prev, dup := seenLabel[p.Label]; dup {
			c.report("duplabel:"+p.Label, "endpoint-unique", p.Label,
				fmt.Sprintf("label %q borne by two live instances (%v and %v)", p.Label, prev, p.Ep))
		}
		seenLabel[p.Label] = p.Ep
		if drvlib.IsStandbyLabel(p.Label) {
			c.standbyEps[p.Ep] = p.Label
		}
	})
}

// scanGrants asserts that no grant keeps referencing a dead grantee
// incarnation beyond the revocation window.
func (c *Checker) scanGrants() {
	live := c.liveStale
	for k := range live {
		delete(live, k)
	}
	c.cfg.Kernel.VisitGrants(func(g kernel.GrantInfo) {
		if g.To == kernel.Any || c.cfg.Kernel.Alive(g.To) {
			return
		}
		k := grantKey{owner: g.Owner, id: g.ID, to: g.To}
		live[k] = true
		first, seen := c.staleGrants[k]
		if !seen {
			c.staleGrants[k] = c.step
			return
		}
		if c.step-first > c.cfg.GrantGraceSteps {
			c.report(fmt.Sprintf("stalegrant:%v:%d", g.Owner, g.ID), "grant-safety", g.OwnerLabel,
				fmt.Sprintf("grant %d of %s (%v) still targets dead incarnation %v after %d steps",
					g.ID, g.OwnerLabel, g.Owner, g.To, c.step-first))
		}
	})
	for k := range c.staleGrants {
		if !live[k] {
			delete(c.staleGrants, k)
			c.clearKey(fmt.Sprintf("stalegrant:%v:%d", k.owner, k.id))
		}
	}
}

// scanNames asserts the no-stale-endpoint-after-restart invariant: a
// published name with a live instance of the same label must map to that
// instance, unless the publish for a just-restarted instance is still in
// flight.
func (c *Checker) scanNames() {
	c.cfg.DS.VisitNames(func(name string, ep kernel.Endpoint) {
		// failover: a published name must never route to a live standby
		// replica — a standby serves only after promotion relabels it.
		if lbl, isStandby := c.standbyEps[ep]; isStandby {
			c.report("sbserve:"+name, "failover", name,
				fmt.Sprintf("data store maps %q to %v, a live unpromoted standby (%s)",
					name, ep, lbl))
		} else {
			c.clearKey("sbserve:" + name)
		}
		if c.pendingPublish[name] {
			return // restart published in the data store momentarily
		}
		liveEp := c.cfg.Kernel.LookupLabel(name)
		if liveEp == kernel.None || liveEp == ep {
			c.clearKey("stale:" + name)
			return
		}
		c.report("stale:"+name, "stale-endpoint", name,
			fmt.Sprintf("data store maps %q to %v but the live instance is %v", name, ep, liveEp))
	})
}

// scanServices asserts the rs-guard and heartbeat invariants against the
// reincarnation server's own bookkeeping.
func (c *Checker) scanServices(now sim.Time) {
	// Snapshot into a reused buffer when the view supports it (the real
	// RS does); ungated, this scan runs after every scheduler event.
	var svcs []core.ServiceInfo
	if s, ok := c.cfg.RS.(interface {
		ServicesInto([]core.ServiceInfo) []core.ServiceInfo
	}); ok {
		c.svcBuf = s.ServicesInto(c.svcBuf[:0])
		svcs = c.svcBuf
	} else {
		svcs = c.cfg.RS.Services()
	}
	liveLabels := c.liveLabels
	for k := range liveLabels {
		delete(liveLabels, k)
	}
	for _, svc := range svcs {
		liveLabels[svc.Label] = true
		if !svc.Running || svc.Stopped || svc.GaveUp {
			delete(c.deadSince, svc.Label)
			c.clearKey("guard:" + svc.Label)
			c.clearKey("dead:" + svc.Label)
			continue
		}
		kernelEp := kernel.None
		if c.cfg.Kernel != nil {
			kernelEp = c.cfg.Kernel.LookupLabel(svc.Label)
		}
		// rs-guard part 1: a live instance of a guarded label must be the
		// incarnation RS spawned (RS is the parent of all system procs).
		if kernelEp != kernel.None && kernelEp != svc.Ep {
			c.report("guard:"+svc.Label, "rs-guard", svc.Label,
				fmt.Sprintf("RS records instance %v but the kernel's live %q is %v",
					svc.Ep, svc.Label, kernelEp))
		} else {
			c.clearKey("guard:" + svc.Label)
		}
		// rs-guard part 2: a dead instance must be detected within the
		// grace window (defect classes 1-3 flow through PM immediately).
		if c.cfg.Kernel != nil && kernelEp == kernel.None {
			first, seen := c.deadSince[svc.Label]
			if !seen {
				first = now
				c.deadSince[svc.Label] = now
			} else if now-first > c.cfg.DeadGrace {
				c.report("dead:"+svc.Label, "rs-guard", svc.Label,
					fmt.Sprintf("instance %v dead for %v with no recovery begun",
						svc.Ep, time.Duration(now-first)))
			}
			c.due(now, first+c.cfg.DeadGrace)
		} else {
			delete(c.deadSince, svc.Label)
			c.clearKey("dead:" + svc.Label)
		}
		// Heartbeat liveness.
		if svc.HeartbeatPeriod > 0 {
			misses := svc.HeartbeatMisses
			if misses <= 0 {
				misses = 3
			}
			if svc.Missed >= misses {
				c.report("hbmiss:"+svc.Label, "heartbeat", svc.Label,
					fmt.Sprintf("%d consecutive heartbeat misses (threshold %d) without a defect",
						svc.Missed, misses))
			} else {
				c.clearKey("hbmiss:" + svc.Label)
			}
			slack := c.cfg.HeartbeatSlack
			if slack <= 0 {
				slack = svc.HeartbeatPeriod
			}
			stallAt := svc.NextPing + svc.HeartbeatPeriod + slack
			if svc.NextPing > 0 {
				c.due(now, stallAt)
			}
			if svc.NextPing > 0 && now > stallAt {
				c.report("hbstall:"+svc.Label, "heartbeat", svc.Label,
					fmt.Sprintf("heartbeat monitoring stalled: ping due at %v never sent (now %v)",
						time.Duration(svc.NextPing), time.Duration(now)))
			} else {
				c.clearKey("hbstall:" + svc.Label)
			}
		}
	}
	for label := range c.deadSince {
		if !liveLabels[label] {
			delete(c.deadSince, label)
		}
	}
}

// scanSpans asserts recovery spans and policy scripts close in time.
func (c *Checker) scanSpans(now sim.Time) {
	for _, comp := range sortedTimeKeys(c.openSpans) {
		c.due(now, c.openSpans[comp]+c.cfg.SpanDeadline)
		if now-c.openSpans[comp] > c.cfg.SpanDeadline {
			c.report("span:"+comp, "trace-span", comp,
				fmt.Sprintf("defect at %v still unresolved after %v (no restart or give-up)",
					time.Duration(c.openSpans[comp]), time.Duration(now-c.openSpans[comp])))
		}
	}
	for _, comp := range sortedTimeKeys(c.openPolicies) {
		c.due(now, c.openPolicies[comp]+c.cfg.SpanDeadline)
		if now-c.openPolicies[comp] > c.cfg.SpanDeadline {
			c.report("policy:"+comp, "trace-span", comp,
				fmt.Sprintf("policy script running since %v (deadline %v)",
					time.Duration(c.openPolicies[comp]), time.Duration(c.cfg.SpanDeadline)))
		}
	}
}

func sortedSpanIDs(m map[int64]causalSpan) []int64 {
	ids := make([]int64, 0, len(m))
	for id := range m {
		ids = append(ids, id)
	}
	for i := 1; i < len(ids); i++ {
		for j := i; j > 0 && ids[j] < ids[j-1]; j-- {
			ids[j], ids[j-1] = ids[j-1], ids[j]
		}
	}
	return ids
}

func sortedTimeKeys(m map[string]sim.Time) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	// Insertion sort: the maps are tiny (open spans are rare).
	for i := 1; i < len(keys); i++ {
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
