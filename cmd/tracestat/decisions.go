package main

import (
	"fmt"
	"io"
	"os"
	"sort"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/sim"
)

// summarizeDecisions renders a recovery decision log (obs/decision
// JSONL): event counts, the defect-class × chosen-action matrix, the
// per-class recovery-latency distribution from the terminal outcomes,
// every give-up with its context, and any well-formedness problems the
// offline verifier finds.
func summarizeDecisions(w io.Writer, events []decision.Event) {
	if len(events) == 0 {
		fmt.Fprintln(w, "empty decision log")
		return
	}
	fmt.Fprintf(w, "%d decision events, %v .. %v virtual time\n\n",
		len(events), time.Duration(events[0].T), time.Duration(events[len(events)-1].T))

	byKind := map[decision.Kind]int{}
	for _, e := range events {
		byKind[e.Kind]++
	}
	fmt.Fprintln(w, "events by kind")
	for _, k := range decision.Kinds() {
		if n := byKind[k]; n > 0 {
			fmt.Fprintf(w, "  %-10s %8d\n", k, n)
		}
	}

	// Defect class × chosen action: which recovery path each class took.
	type clsAct struct {
		class  int
		action string
	}
	matrix := map[clsAct]int{}
	classes := map[int]bool{}
	actions := map[string]bool{}
	for _, e := range events {
		if e.Kind != decision.KindAction {
			continue
		}
		matrix[clsAct{e.Defect, e.Action}]++
		classes[e.Defect] = true
		actions[e.Action] = true
	}
	if len(matrix) > 0 {
		clsList := make([]int, 0, len(classes))
		for c := range classes {
			clsList = append(clsList, c)
		}
		sort.Ints(clsList)
		actList := make([]string, 0, len(actions))
		for a := range actions {
			actList = append(actList, a)
		}
		sort.Strings(actList)
		fmt.Fprintln(w)
		fmt.Fprintln(w, "chosen action by defect class")
		fmt.Fprintf(w, "  %-12s", "class")
		for _, a := range actList {
			fmt.Fprintf(w, " %14s", a)
		}
		fmt.Fprintln(w)
		for _, c := range clsList {
			fmt.Fprintf(w, "  %-12s", decision.DefectName(c))
			for _, a := range actList {
				fmt.Fprintf(w, " %14d", matrix[clsAct{c, a}])
			}
			fmt.Fprintln(w)
		}
	}

	// Per-class recovery latency over recovered outcomes.
	byClass := map[int][]sim.Time{}
	var gaveUps []decision.Event
	for _, e := range events {
		if e.Kind != decision.KindOutcome {
			continue
		}
		switch e.Action {
		case "gave-up":
			gaveUps = append(gaveUps, e)
			continue
		case "stopped": // an administrative stop overtook the recovery
			continue
		}
		byClass[e.Defect] = append(byClass[e.Defect], e.Latency)
	}
	if len(byClass) > 0 {
		clsList := make([]int, 0, len(byClass))
		for c := range byClass {
			clsList = append(clsList, c)
		}
		sort.Ints(clsList)
		ms := func(t sim.Time) float64 { return float64(t) / float64(time.Millisecond) }
		fmt.Fprintln(w)
		fmt.Fprintln(w, "recovery latency by defect class (detect -> terminal, virtual time)")
		fmt.Fprintln(w, "  class         count  mean_ms   p50_ms   p95_ms   p99_ms   max_ms")
		for _, c := range clsList {
			s := obs.Summarize(byClass[c])
			fmt.Fprintf(w, "  %-12s  %5d  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n",
				decision.DefectName(c), s.Count,
				ms(s.Mean), ms(s.P50), ms(s.P95), ms(s.P99), ms(s.Max))
		}
	}

	if len(gaveUps) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "GIVE-UPS: %d service(s) abandoned\n", len(gaveUps))
		for _, e := range gaveUps {
			fmt.Fprintf(w, "  %12v %-16s %-10s failures=%d latency=%v\n",
				time.Duration(e.T), e.Service, decision.DefectName(e.Defect),
				e.Failures, time.Duration(e.Latency))
		}
	}

	if problems := decision.Check(events); len(problems) > 0 {
		fmt.Fprintln(w)
		fmt.Fprintf(w, "WELL-FORMEDNESS PROBLEMS: %d\n", len(problems))
		for _, p := range problems {
			fmt.Fprintf(w, "  %s\n", p)
		}
	}
}

// runDecisions is the -decisions mode: parse the file as a decision log
// and summarize it.
func runDecisions(path string, stdout io.Writer) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := decision.ParseJSONL(f)
	if err != nil {
		return err
	}
	summarizeDecisions(stdout, events)
	return nil
}
