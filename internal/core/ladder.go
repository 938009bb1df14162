package core

import (
	"cmp"
	"fmt"
	"slices"
	"time"
)

// Phase is where a guarded service stands on the recovery ladder between
// two turns of the reincarnation server. One turn may pass through
// several (a direct restart goes serving → recovering → serving); the
// spawn, promote and publish steps inside a turn are not phases. Every
// change is made by step, through ledger.setPhase, which refuses a move
// the ladder does not allow (DESIGN §10 lists them).
type Phase uint8

const (
	PhaseDown           Phase = iota // no instance: none spawned yet, or the last spawn failed
	PhaseServing                     // the instance serves
	PhaseTerminating                 // SIGTERM sent for a dynamic update or replace; the instance still serves
	PhaseStopping                    // SIGTERM sent for an administrative stop
	PhaseStopped                     // administratively stopped: no recovery
	PhaseRecovering                  // defect detected; the fresh instance is not published yet
	PhaseMicrorebooting              // in-place VM reset granted; RSMicroDone not seen yet
	PhaseGaveUp                      // MaxRestarts exhausted: the service stays down
	numPhases
)

var phaseNames = [numPhases]string{"down", "serving", "terminating", "stopping",
	"stopped", "recovering", "microrebooting", "gave-up"}

func (p Phase) String() string {
	if p < numPhases {
		return phaseNames[p]
	}
	return fmt.Sprintf("Phase(%d)", int(p))
}

// Serving reports whether the instance serves requests; node health
// counts the service as up.
func (p Phase) Serving() bool { return p == PhaseServing || p == PhaseTerminating }

// Recovering reports whether a recovery episode is open: a defect was
// detected and no fresh instance is published yet.
func (p Phase) Recovering() bool { return p == PhaseRecovering || p == PhaseMicrorebooting }

// Guarded reports whether RS vouches for a live instance and recovers it
// if it dies, which is what the invariant checker's rs-guard holds RS to.
func (p Phase) Guarded() bool { return p.Serving() || p == PhaseMicrorebooting }

// running reports whether the instance RS last spawned is alive as far as
// RS knows: its death is still to be reported.
func (p Phase) running() bool { return p.Guarded() || p == PhaseStopping }

// microBudget is how many in-place microreboots one instance may perform
// before RS denies further requests and forces a full respawn — the
// escalation rung for a VM whose state is corrupt beyond an in-place
// reset. A full respawn (or a long stable run) resets the budget.
const microBudget = 3

// stableResetAfter: a service that stays up this long gets its
// consecutive-failure count reset, so the exponential backoff reflects
// crash *loops* rather than lifetime totals.
const stableResetAfter = 60 * time.Second

// ledger is the ladder's part of a service: what step reads and writes,
// then the configuration facts it reads.
type ledger struct {
	phase       Phase
	cause       Defect // why RS is killing the instance (heartbeat, complaint, update; 0 = it is not)
	class       Defect // defect class of the open recovery episode (0 = none open)
	failures    int    // consecutive failure count (the script's $3)
	lastFailure time.Duration
	microCount  int           // in-place reboots since the last full respawn
	detectedAt  time.Duration // when the open episode was first detected

	maxRestarts int
	mech        Mechanism
	script      bool // a policy script is set
	hbPeriod    time.Duration
	parked      bool // a warm replica is parked
}

// inputKind is what happened to a service: a request, a report from its
// instance or PM, a timer, or the result of an effect step asked for.
type inputKind uint8

const (
	inStart          inputKind = iota // StartService: a new record
	inStop                            // StopService, a script's `service stop`
	inUpdate                          // UpdateService (defect class 6)
	inKill                            // KillService: relay the user's signal
	inExit                            // PM reports the instance gone (class: how it died)
	inRestart                         // a script's `service restart`
	inComplain                        // an authorized server's complaint (class 5)
	inMicroAsk                        // RSMicroAsk (class: the driver's fault)
	inMicroDone                       // RSMicroDone: reset in place, serving
	inGrace                           // the SIGTERM grace expired
	inStuck                           // N heartbeats missed (class 4)
	inSpawned                         // the spawned instance is up
	inSpawnFailed                     // the kernel refused the spawn
	inPromoted                        // the replica is promoted and republished
	inRelabelRefused                  // the kernel refused the replica's relabel
	inRunnerFailed                    // the kernel refused the policy runner's spawn
	numInputs
)

type input struct {
	kind  inputKind
	class Defect
}

// action is one thing step asks RS to carry out; a dec action records a
// decision and does nothing else.
type action uint8

const (
	actSpawn     action = iota + 1 // spawn an instance; inSpawned (then publish) or inSpawnFailed
	actRespawn                     // spawn and publish the episode's instance; inSpawned or inSpawnFailed
	actPromote                     // promote the parked replica; inPromoted or inRelabelRefused
	actRunScript                   // run the policy script; inRunnerFailed if it cannot
	actDefect                      // emit the defect
	actDetect                      // open or continue the episode's span, record the detection
	actGiveUp                      // retire the replica, log, withdraw the name, close as gave-up
	actResume                      // the instance reset in place: a fresh heartbeat slate
	actSettle                      // book the recovery, close as recovered
	actStopped                     // emit the stop of a recovery, then actClose
	actClose                       // close the episode as stopped
	actRetire                      // SIGTERM the parked replica
	actTerminate                   // SIGTERM the instance, arm the escalation
	actKill                        // SIGKILL the instance
	actRelay                       // relay the user's signal to the instance
	actReplyOK
	actReplyPerm
	actReplyNotFound
	actReplyAgain
	decDirect
	decRunnerFailed
	decMicroreboot
	decDenyMicro
	decDenyBudget
	decTerminate
	decEscalate
	decComplaint
	decStuck
	numActions
)

// actions is what one step asks for, in order, in a fixed array: a step
// never allocates.
type actions struct {
	n     int
	list  [4]action
	class Defect // the class the decisions and the episode's books carry
}

func (a *actions) add(acts ...action) {
	for _, act := range acts {
		a.list[a.n] = act
		a.n++
	}
}

// restartBudget is how many restarts remain before MaxRestarts forces a
// give-up (-1 = unlimited, 0 = the next failure gives up).
func restartBudget(l *ledger) int {
	if l.maxRestarts <= 0 {
		return -1
	}
	return max(l.maxRestarts-l.failures, 0)
}

// [recovery:begin]
// ladder lists each phase's legal next phases.
var ladder = [numPhases][]Phase{
	PhaseDown:           {PhaseDown, PhaseServing, PhaseRecovering},
	PhaseServing:        {PhaseTerminating, PhaseStopping, PhaseRecovering, PhaseMicrorebooting},
	PhaseTerminating:    {PhaseTerminating, PhaseStopping, PhaseRecovering},
	PhaseStopping:       {PhaseStopping, PhaseStopped},
	PhaseStopped:        {PhaseRecovering},
	PhaseRecovering:     {PhaseDown, PhaseServing, PhaseStopped, PhaseRecovering, PhaseGaveUp},
	PhaseMicrorebooting: {PhaseServing, PhaseTerminating, PhaseStopping, PhaseRecovering, PhaseMicrorebooting},
	PhaseGaveUp:         {PhaseDown, PhaseServing, PhaseRecovering},
}

// creditStableRun resets the consecutive-failure accounting — and with it
// the microreboot budget — after a long stable run, so the budgets
// reflect crash *loops* rather than lifetime totals.
func (l *ledger) creditStableRun(now time.Duration) {
	if l.lastFailure != 0 && now-l.lastFailure > stableResetAfter+l.hbPeriod {
		l.failures = 0
		l.microCount = 0
	}
}

// setPhase moves l to phase p. Only step calls it, and a move the ladder
// does not list is a bug in RS.
func (l *ledger) setPhase(p Phase) {
	if !slices.Contains(ladder[l.phase], p) {
		panic(fmt.Sprintf("rs: illegal phase move %v -> %v", l.phase, p))
	}
	l.phase = p
}

// killFor records why RS is killing the instance, so its exit is
// attributed to that defect class. An update wins over a heartbeat or
// complaint kill that races it: the exit is class 6.
func (l *ledger) killFor(class Defect) {
	if l.cause != DefectUpdate {
		l.cause = class
	}
}

// [recovery:end]

// step is the recovery ladder: given a service's ledger and one input at
// now, it returns the next ledger and the actions that carry the move out.
// It is the only writer of a phase, and it moves no phase past an effect
// whose result it needs: that result is the next input.
func step(l ledger, in input, now time.Duration) (ledger, actions) {
	var a actions
	switch k := in.kind; {
	case k == inStart:
		l = ledger{maxRestarts: l.maxRestarts, mech: l.mech, script: l.script, hbPeriod: l.hbPeriod, parked: l.parked}
		a.add(actSpawn)
	case k == inSpawned && (l.phase == PhaseDown || l.phase == PhaseGaveUp): // outside an episode
		l.cause, l.microCount = 0, 0
		l.setPhase(PhaseServing)
	case k == inSpawnFailed && (l.phase == PhaseDown || l.phase == PhaseGaveUp):
		l.setPhase(PhaseDown)
	case k == inKill && l.phase.running():
		a.add(actRelay)
	case k == inStop && l.phase.running():
		l.setPhase(PhaseStopping)
		a.add(actRetire, actTerminate)
	// [recovery:begin]
	case k == inStop && l.phase == PhaseRecovering: // no instance to terminate
		a.class, l.class = l.class, 0
		l.setPhase(PhaseStopped)
		a.add(actRetire, actStopped)
	case k == inRestart && l.phase == PhaseStopped: // a stop holds against the script of the episode it ended
		a.add(actReplyPerm)
		return l, a
	case (k == inUpdate || k == inRestart) && l.phase.running(): // replace the instance
		a.class = DefectUpdate
		l.killFor(DefectUpdate)
		p := PhaseTerminating
		if l.phase == PhaseStopping { // a stop under way wins
			p = PhaseStopping
		}
		l.setPhase(p)
		a.add(decTerminate, actTerminate)
	case k == inUpdate:
		l = recovery(l, &a, DefectUpdate, now)
	case k == inRestart && l.phase == PhaseRecovering: // the script finishes the recovery in progress
		a.class = l.class
		a.add(actRespawn)
	case k == inRestart:
		a.add(actSpawn)
	case k == inExit && l.phase == PhaseStopping: // an administrative stop: no recovery
		l.cause = 0
		l.setPhase(PhaseStopped)
		if l.class != 0 { // it overtook a granted microreboot, whose episode ends here
			a.class, l.class = l.class, 0
			a.add(actClose)
		}
	case k == inExit && l.phase.running():
		class := cmp.Or(l.cause, in.class)
		l.cause = 0
		l = recovery(l, &a, class, now)
	case k == inComplain && l.phase.running():
		a.class = DefectComplaint
		l.killFor(DefectComplaint)
		a.add(decComplaint, actKill, actReplyOK)
	case k == inComplain:
		a.add(actReplyNotFound)
	case k == inStuck && l.phase.running():
		a.class = DefectHeartbeat
		l.killFor(DefectHeartbeat)
		a.add(decStuck, actKill)
	case k == inGrace && l.phase == PhaseTerminating:
		a.class = DefectUpdate
		a.add(decEscalate, actKill)
	case k == inGrace && l.phase == PhaseStopping:
		a.add(actKill)
	case k == inMicroAsk && (l.mech != MechMicroreboot || l.phase != PhaseServing && l.phase != PhaseMicrorebooting):
		a.add(actReplyPerm)
	case k == inMicroAsk:
		a.class = in.class
		if a.class < DefectExit || a.class > DefectUpdate {
			a.class = DefectExit
		}
		l.creditStableRun(now)
		switch {
		case l.microCount >= microBudget:
			a.add(decDenyMicro, actReplyAgain)
		case l.maxRestarts > 0 && l.failures+1 > l.maxRestarts:
			a.add(decDenyBudget, actReplyAgain)
		default: // charged like any recovery: MaxRestarts bounds recoveries, not spawns
			l.failures++
			l.lastFailure = now
			l.microCount++
			l.setPhase(PhaseMicrorebooting)
			l = openEpisode(l, a.class, now)
			a.add(actDetect, decMicroreboot, actReplyOK)
		}
	case k == inMicroDone && l.phase == PhaseMicrorebooting:
		a.add(actResume)
		l = settle(l, &a)
	case (k == inSpawned || k == inPromoted) && l.phase == PhaseRecovering:
		l.cause, l.microCount = 0, 0
		l = settle(l, &a)
	case k == inSpawnFailed && l.phase == PhaseRecovering:
		l.setPhase(PhaseDown)
		l = settle(l, &a) // still booked as recovered: the respawn was tried
	case k == inRunnerFailed && l.phase == PhaseRecovering:
		a.class = l.class
		a.add(decRunnerFailed, actRespawn)
	case k == inRelabelRefused && l.phase == PhaseRecovering:
		a.class = l.class
		respawn(l, &a)
	}
	if in.kind == inRestart {
		a.add(actReplyOK)
	}
	return l, a
}

// recovery opens or continues a recovery episode for class and picks its
// rung: give up, promote the replica, or respawn (§5.2).
func recovery(l ledger, a *actions, class Defect, now time.Duration) ledger {
	l.creditStableRun(now)
	// A death while microrebooting is the failed tail of a granted
	// microreboot, which was already charged at RSMicroAsk.
	if l.phase != PhaseMicrorebooting && class != DefectUpdate {
		l.failures++
	}
	l.setPhase(PhaseRecovering)
	l = openEpisode(l, class, now)
	l.lastFailure = now
	a.class = class
	a.add(actDefect, actDetect)
	switch {
	case l.maxRestarts > 0 && l.failures > l.maxRestarts:
		l.setPhase(PhaseGaveUp)
		l.class = 0
		a.add(actGiveUp)
	case l.mech == MechStandby && class != DefectUpdate && l.parked: // an update's new binary must run
		a.add(actPromote)
	default:
		respawn(l, a)
	}
	return l
}

// respawn has the episode's instance spawned by the policy script, or
// directly (the disk-driver path of §6.2).
func respawn(l ledger, a *actions) {
	if l.script {
		a.add(actRunScript)
	} else {
		a.add(decDirect, actRespawn)
	}
}

// openEpisode opens a recovery episode of class at now, or continues the
// open one (a granted microreboot whose reset fails, an update during a
// recovery), which stays detected at its first detection.
func openEpisode(l ledger, class Defect, now time.Duration) ledger {
	if l.class == 0 {
		l.detectedAt = now
	}
	l.class = class
	return l
}

// settle books the open episode as recovered and serves (a respawn whose
// spawn failed stays down).
func settle(l ledger, a *actions) ledger {
	a.class, l.class = l.class, 0
	a.add(actSettle)
	if l.phase != PhaseDown {
		l.setPhase(PhaseServing)
	}
	return l
}

// [recovery:end]
