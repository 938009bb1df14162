package core

import (
	"os"
	"slices"
	"strings"
	"testing"
)

// TestLadderMatchesDesign holds the phase table RS enforces to the one
// DESIGN §10 documents: one row per phase, whose last column lists the
// phase's legal next phases.
func TestLadderMatchesDesign(t *testing.T) {
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
	rows := map[string][]string{}
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if !strings.HasPrefix(cells[0], "`") {
			continue // header and rule
		}
		rows[strings.Trim(cells[0], "`")] = strings.Split(cells[len(cells)-1], ", ")
	}
	for p := Phase(0); p < numPhases; p++ {
		var want []string
		for _, n := range ladder[p] {
			want = append(want, n.String())
		}
		if got, ok := rows[p.String()]; !ok {
			t.Errorf("DESIGN §10 has no row for phase %v", p)
		} else if !slices.Equal(got, want) {
			t.Errorf("DESIGN §10 lists %v -> %v, the code %v", p, got, want)
		}
		delete(rows, p.String())
	}
	for name := range rows {
		t.Errorf("DESIGN §10 lists phase %q, which RS does not have", name)
	}
}

// TestSetPhaseRefusesIllegalMove: a move the ladder does not list is a
// bug in RS and stops the run loudly.
func TestSetPhaseRefusesIllegalMove(t *testing.T) {
	svc := &service{cfg: ServiceConfig{Label: "drv"}, phase: PhaseStopping}
	defer func() {
		if r := recover(); r == nil || !strings.Contains(r.(string), "stopping -> serving") {
			t.Fatalf("recovered %v, want the illegal move named", r)
		}
	}()
	svc.setPhase(PhaseServing)
}
