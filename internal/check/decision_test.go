package check_test

import (
	"strings"
	"testing"

	"resilientos/internal/check"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
)

func decSink(c *check.Checker) decision.Sink { return c.DecisionSink() }

func TestDecisionWellFormedFlow(t *testing.T) {
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindTrigger, Service: "eth", Action: "declare-stuck"})
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindAction, Service: "eth", Action: "policy-run"})
	s.Emit(decision.Event{Kind: decision.KindPolicyStep, Service: "eth", Action: "sleep"})
	s.Emit(decision.Event{Kind: decision.KindPolicyStep, Service: "eth", Action: "service"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	s.Emit(decision.Event{Kind: decision.KindPolicyStep, Service: "eth", Action: "exit"})
	c.Finish()
	if !c.Ok() {
		t.Fatalf("well-formed flow flagged: %v", c.Violations())
	}
}

func TestDecisionActionWithoutEpisode(t *testing.T) {
	c := check.New(check.Config{})
	decSink(c).Emit(decision.Event{Kind: decision.KindAction, Service: "eth", Action: "restart-direct"})
	c.Finish()
	v := wantInvariant(t, c, "decision")
	if !strings.Contains(v.Detail, "decision-without-episode") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestDecisionDoubleTerminal(t *testing.T) {
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	c.Finish()
	v := wantInvariant(t, c, "decision")
	if !strings.Contains(v.Detail, "second terminal") && !strings.Contains(v.Detail, "without an open episode") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestDecisionEpisodeNeverClosed(t *testing.T) {
	c := check.New(check.Config{})
	decSink(c).Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	c.Finish()
	v := wantInvariant(t, c, "decision")
	if !strings.Contains(v.Detail, "episode-without-terminal-decision") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestDecisionPolicyStepOutsideRun(t *testing.T) {
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindPolicyStep, Service: "eth", Action: "sleep"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	c.Finish()
	v := wantInvariant(t, c, "decision")
	if !strings.Contains(v.Detail, "outside a policy run") {
		t.Fatalf("detail = %q", v.Detail)
	}
}

func TestDecisionMarkResets(t *testing.T) {
	// Both a decision-level mark and an obs-level mark clear open state.
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindMark, Service: "campaign", Action: "cell"})
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "disk"})
	c.Emit(&obs.Event{Kind: obs.KindMark, Comp: "experiment"})
	c.Finish()
	if !c.Ok() {
		t.Fatalf("marks did not reset decision state: %v", c.Violations())
	}
}

func TestDecisionReDetectWhileOpenAllowed(t *testing.T) {
	// A second defect before recovery finished re-arms the same episode
	// (RS reuses the open episode span); one terminal still closes it.
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindAction, Service: "eth", Action: "restart-direct"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	c.Finish()
	if !c.Ok() {
		t.Fatalf("re-detect flagged: %v", c.Violations())
	}
}

func TestDecisionPolicyRunNeverExited(t *testing.T) {
	c := check.New(check.Config{})
	s := decSink(c)
	s.Emit(decision.Event{Kind: decision.KindDetect, Service: "eth"})
	s.Emit(decision.Event{Kind: decision.KindAction, Service: "eth", Action: "policy-run"})
	s.Emit(decision.Event{Kind: decision.KindOutcome, Service: "eth", Action: "recovered"})
	c.Finish()
	v := wantInvariant(t, c, "decision")
	if !strings.Contains(v.Detail, "policy-run-without-exit") {
		t.Fatalf("detail = %q", v.Detail)
	}
}
