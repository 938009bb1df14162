package core

import (
	"os"
	"slices"
	"strings"
	"testing"
	"time"

	"resilientos/internal/obs/decision"
)

// designLadder reads DESIGN §10's phase table: one row per phase, whose
// last column lists the phase's legal next phases.
func designLadder(t *testing.T) [numPhases][]Phase {
	t.Helper()
	design, err := os.ReadFile("../../DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(design), "**The ladder as phases.**")
	if !ok {
		t.Fatal("DESIGN.md has no phase table")
	}
	_, table, _ = strings.Cut(table, "\n|")
	table, _, _ = strings.Cut(table, "\n\n")
	byName := map[string]Phase{}
	for p := Phase(0); p < numPhases; p++ {
		byName[p.String()] = p
	}
	var rows [numPhases][]Phase
	seen := map[Phase]bool{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(cells[0], "`") {
			continue // header and rule
		}
		p, ok := byName[strings.Trim(cells[0], "`")]
		if !ok {
			t.Fatalf("DESIGN §10 lists phase %s, which RS does not have", cells[0])
		}
		seen[p] = true
		for _, name := range strings.Split(cells[len(cells)-1], ", ") {
			next, ok := byName[name]
			if !ok {
				t.Fatalf("DESIGN §10 lists %v -> %q, which is no phase", p, name)
			}
			rows[p] = append(rows[p], next)
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		if !seen[p] {
			t.Errorf("DESIGN §10 has no row for phase %v", p)
		}
	}
	return rows
}

// ledgers is every phase in combination with the other facts step reads:
// an episode open or not, a kill cause, a restart budget unlimited, left or
// spent, each mechanism, a script or none, a replica parked or not, and a
// microreboot budget left or spent.
func ledgers() []ledger {
	var out []ledger
	for p := Phase(0); p < numPhases; p++ {
		for _, class := range []Defect{0, DefectExit} {
			for _, cause := range []Defect{0, DefectUpdate} {
				for _, budget := range [][2]int{{0, 0}, {1, 1}, {1, 2}} {
					for _, mech := range []Mechanism{MechRespawn, MechMicroreboot, MechStandby} {
						for _, micro := range []int{0, microBudget} {
							for flags := 0; flags < 4; flags++ {
								out = append(out, ledger{phase: p, class: class, cause: cause,
									maxRestarts: budget[0], failures: budget[1], mech: mech, microCount: micro,
									script: flags&1 != 0, parked: flags&2 != 0})
							}
						}
					}
				}
			}
		}
	}
	return out
}

// inputs is every input kind, with no class, a valid class and one out of
// range.
func inputs() []input {
	var out []input
	for k := inputKind(0); k < numInputs; k++ {
		for _, class := range []Defect{0, DefectExit, DefectUpdate + 1} {
			out = append(out, input{kind: k, class: class})
		}
	}
	return out
}

// legal reports whether step keeps to the ladder on in from l: setPhase
// panics on a move the ladder does not list.
func legal(l ledger, in input) (ok bool) {
	defer func() { ok = recover() == nil }()
	step(l, in, time.Minute)
	return true
}

// TestLadderMatchesDesign holds RS's ladder to the one DESIGN §10
// documents: the ladder table is DESIGN's; every move step makes, from
// every phase on every input, is a legal next phase of DESIGN's row; and
// every edge DESIGN lists is a move step makes (taking the edge out of the
// table makes some step panic).
func TestLadderMatchesDesign(t *testing.T) {
	rows := designLadder(t)
	for p := Phase(0); p < numPhases; p++ {
		if !slices.Equal(rows[p], ladder[p]) {
			t.Errorf("DESIGN §10 lists %v -> %v, the code %v", p, rows[p], ladder[p])
		}
	}
	saved := ladder
	defer func() { ladder = saved }()
	ladder = rows
	states, ins := ledgers(), inputs()
	for _, l := range states {
		for _, in := range ins {
			if !legal(l, in) {
				t.Fatalf("step moves outside DESIGN §10 from %+v on %+v", l, in)
			}
		}
	}
	for p := Phase(0); p < numPhases; p++ {
		for i, next := range rows[p] {
			ladder[p] = slices.Delete(slices.Clone(rows[p]), i, i+1)
			made := false
			for _, l := range states {
				if l.phase != p {
					continue
				}
				for _, in := range ins {
					if made = !legal(l, in); made {
						break
					}
				}
				if made {
					break
				}
			}
			if !made {
				t.Errorf("DESIGN §10 lists %v -> %v, a move step never makes", p, next)
			}
			ladder[p] = rows[p]
		}
	}
}

// TestStepAllocatesNothing: actions is a fixed array, so no step — one
// per input on every recovery — allocates.
func TestStepAllocatesNothing(t *testing.T) {
	states, ins := ledgers(), inputs()
	var last ledger
	allocs := testing.AllocsPerRun(3, func() {
		for _, l := range states {
			for _, in := range ins {
				last, _ = step(l, in, time.Minute)
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("stepping every ledger on every input allocates %v times (last %+v)", allocs, last)
	}
}

// TestSetPhaseRefusesIllegalMove: a move the ladder does not list is a
// bug in RS and stops the run loudly.
func TestSetPhaseRefusesIllegalMove(t *testing.T) {
	l := ledger{phase: PhaseStopping}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "stopping -> serving") {
			t.Fatalf("recovered %v, want the illegal move named", r)
		}
	}()
	l.setPhase(PhaseServing)
}

// model carries out step's actions as RS's feed does, with no system: an
// effect the ladder waits on fails when the input's next failure bit is
// set, and its result is fed back; the parked replica comes and goes as
// the standby effects make it; and every action that records a decision is
// rendered as the decision.Event RS records, through decision.Episodes.
type model struct {
	t      *testing.T
	l      ledger
	now    time.Duration
	fails  byte // failure bits for the current input's effects, lowest first
	eps    decision.Episodes
	opened time.Duration // when the open episode's first detection was
}

func (m *model) failed() bool {
	f := m.fails&1 != 0
	m.fails >>= 1
	return f
}

func (m *model) record(kind decision.Kind, what string) {
	e := decision.Event{T: m.now, Kind: kind, Service: "drv", Action: what}
	if open, _ := m.eps.Unclosed(); kind == decision.KindDetect {
		if _, ok := open["drv"]; !ok {
			m.opened = m.now
		}
	}
	if r := m.eps.Step(e); r != decision.RuleOK {
		m.t.Fatalf("at %v: %s %q breaks the decision log's rule %d (ledger %+v)", m.now, kind, what, r, m.l)
	}
}

// backfill parks a fresh replica, as spawnStandby does.
func (m *model) backfill() {
	if m.l.mech == MechStandby && m.l.phase != PhaseStopping && m.l.phase != PhaseStopped && m.l.phase != PhaseGaveUp {
		m.l.parked = true
	}
}

func (m *model) feed(in input) {
	var acts actions
	m.l, acts = step(m.l, in, m.now)
	for _, act := range acts.list[:acts.n] {
		switch act {
		case actSpawn, actRespawn:
			if m.failed() {
				m.feed(input{kind: inSpawnFailed})
				continue
			}
			if act == actSpawn {
				m.feed(input{kind: inSpawned})
			}
			m.backfill()
			if act == actRespawn {
				m.feed(input{kind: inSpawned})
			}
		case actPromote:
			m.l.parked = false
			if m.failed() {
				m.feed(input{kind: inRelabelRefused})
				continue
			}
			m.record(decision.KindAction, "promote-standby")
			m.feed(input{kind: inPromoted})
			m.backfill()
		case actRunScript:
			if m.failed() {
				m.feed(input{kind: inRunnerFailed})
			} else {
				m.record(decision.KindAction, "policy-run")
			}
		case actDetect:
			m.record(decision.KindDetect, "")
		case actGiveUp:
			m.l.parked = false
			m.record(decision.KindAction, "give-up")
			m.record(decision.KindOutcome, "gave-up")
		case actSettle:
			m.record(decision.KindOutcome, "recovered")
		case actStopped, actClose:
			m.record(decision.KindOutcome, "stopped")
		case actRetire:
			m.l.parked = false
		default:
			if d := decisions[act]; d.Kind != 0 {
				m.record(d.Kind, d.Action)
			}
		}
	}
}

// ladderSeed is a fuzz input: a configuration byte (mechanism, script,
// MaxRestarts), then per input a kind-and-class byte and a byte of
// failure bits and time gap.
func ladderSeed(cfg byte, steps ...byte) []byte { return append([]byte{cfg}, steps...) }

// FuzzLadder drives step alone — no simulation, no system — with random
// input sequences from every phase, and holds it to DESIGN §10's rules:
// every move is in the ladder (setPhase panics otherwise), the decisions
// its actions record keep decision.Episodes' rules (one outcome per
// episode, actions inside one), at most one episode is open and it is the
// ledger's, an episode is detected at its first detection, failures only
// grow but at the stable-run credit and by at most one charge per input, a
// microreboot's failed tail is not charged again, and gave-up is left
// only by a start, an update or a restart request.
func FuzzLadder(f *testing.F) {
	const micro, script, budget1 = byte(MechMicroreboot), 1 << 2, 1 << 3
	b := func(k inputKind, class Defect) byte { return byte(k) + 11*byte(class) }
	start, exit := []byte{b(inStart, 0), 0}, []byte{b(inExit, DefectKilled), 0}
	prefixes := []struct {
		cfg   byte
		steps []byte
	}{
		{0, nil},                         // down: a record not started yet
		{0, []byte{b(inStart, 0), 0x01}}, // down: the spawn failed
		{0, start},                       // serving
		{0, append(start, b(inUpdate, 0), 0)},
		{0, append(start, b(inStop, 0), 0)},
		{0, append(append(start, b(inStop, 0), 0), exit...)},
		{script, append(start, exit...)},                     // recovering, the script running
		{byte(MechStandby), append(start, exit...)},          // serving again, promoted
		{micro, append(start, b(inMicroAsk, DefectExit), 0)}, // microrebooting
		{budget1, append(append(start, exit...), exit...)},   // gave-up
		{budget1 | script, append(start, exit...)},           // recovering, one restart left
	}
	for _, p := range prefixes {
		for k := inputKind(0); k <= inStuck; k++ {
			for _, fails := range []byte{0, 0x1f} {
				f.Add(ladderSeed(p.cfg, append(slices.Clone(p.steps), b(k, DefectExit), fails)...))
			}
		}
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 {
			return
		}
		m := &model{t: t, l: ledger{mech: Mechanism(data[0] % 3), script: data[0]&script != 0,
			maxRestarts: int(data[0] >> 3 & 3), hbPeriod: time.Second}}
		for i := 1; i+1 < len(data); i += 2 {
			in := input{kind: inputKind(data[i] % 11), class: Defect(data[i] / 11 % 8)}
			if in.kind == inExit { // RS reads an exit's class off PM's cause: exit, killed or exception
				in.class = DefectExit + in.class%3
			}
			m.now += time.Millisecond + time.Duration(data[i+1]>>5)*20*time.Second
			m.fails = data[i+1] & 0x1f
			before := m.l
			if in.kind == inStart { // a new record: RS forgets the old one, episode and all
				m.eps.Step(decision.Event{Kind: decision.KindMark})
			}
			m.feed(in)
			after := m.l
			open, _ := m.eps.Unclosed()
			if _, ok := open["drv"]; ok != (after.class != 0) || len(open) > 1 {
				t.Fatalf("on %+v: episodes open %v, ledger class %v", in, open, after.class)
			}
			if after.phase.Recovering() && after.class == 0 {
				t.Fatalf("on %+v: %v with no episode open", in, after.phase)
			}
			if after.class != 0 && after.detectedAt != m.opened {
				t.Fatalf("on %+v: episode detected at %v, first detected at %v", in, after.detectedAt, m.opened)
			}
			credited := before.lastFailure != 0 && m.now-before.lastFailure > stableResetAfter+before.hbPeriod
			if after.failures < before.failures && !credited && in.kind != inStart || after.failures > before.failures+1 {
				t.Fatalf("on %+v: failures %d -> %d", in, before.failures, after.failures)
			}
			if before.phase == PhaseMicrorebooting && in.kind == inExit && after.failures > before.failures {
				t.Fatalf("the failed tail of a microreboot was charged again: %d -> %d", before.failures, after.failures)
			}
			if before.phase == PhaseGaveUp && after.phase != PhaseGaveUp &&
				in.kind != inStart && in.kind != inUpdate && in.kind != inRestart {
				t.Fatalf("on %+v: gave-up left for %v", in, after.phase)
			}
		}
	})
}
