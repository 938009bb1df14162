// Command whatif replays a recovery campaign under counterfactual knob
// settings: what would availability and recovery latency have been with
// a faster heartbeat, a longer backoff, a capped restart budget, or no
// policy script at all?
//
// The baseline scenario is a deterministic SWIFI campaign
// (internal/campaign) with the recovery decision trace enabled; every
// override re-runs the identical campaign with one knob set changed and
// the paper-style table reports the deltas. Because every cell is an
// independent seeded simulation, the whole sweep — table and decision
// logs — is byte-identical across runs and on any number of CPUs.
//
//	whatif                                  # default sweep, seed 11
//	whatif -matrix seed=3;7,victims=eth.dp8390 -override hb=250ms -override budget=1
//	whatif -record base.jsonl               # record the baseline decision log
//	whatif -replay base.jsonl               # re-run and byte-compare, then sweep
//	whatif -bench-json BENCH_decisions.json
//
// -matrix and -override speak the campaign grammar of faultbench -matrix
// (campaign.SpecUsage): -matrix is applied on top of the standard
// baseline, each -override (comma-separated keys = one variant) on top
// of that.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/sim"
)

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// baselineSpec is the standard scenario: the Fig. 7 victim under
// bit-flip injection with the paper's recovery defaults.
const baselineSpec = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,backoff=1s"

// variant is one campaign's run outcome.
type variant struct {
	name string
	rep  *campaign.Report
	sum  obs.LatencySummary
}

// runCampaign executes one campaign with the decision trace and the live
// checker on.
func runCampaign(cfg campaign.Config, progress func(done, total int)) (*campaign.Report, error) {
	cfg.Invariants = true
	cfg.Decisions = true
	cfg.Progress = progress
	rep := campaign.Run(cfg)
	if !rep.Ok() {
		var b strings.Builder
		rep.Render(&b)
		return rep, fmt.Errorf("invariant violations under %q:\n%s", cfg.Spec(), b.String())
	}
	if problems := decision.Check(rep.DecisionLog); len(problems) != 0 {
		return rep, fmt.Errorf("decision log ill-formed under %q: %s", cfg.Spec(), strings.Join(problems, "; "))
	}
	return rep, nil
}

// encodeRecording prefixes the log with the replay-file header: a mark
// carrying the baseline's spec, so -replay re-runs exactly that campaign.
func encodeRecording(base campaign.Config, log []decision.Event) []byte {
	return decision.Encode(append([]decision.Event{{
		Kind: decision.KindMark, Service: "whatif", Action: "campaign", Detail: base.Spec(),
	}}, log...))
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	matrix := fs.String("matrix", "", "baseline campaign, applied on top of "+baselineSpec+"\n"+campaign.SpecUsage)
	var overrides multiFlag
	fs.Var(&overrides, "override", "counterfactual spec applied on top of the baseline, e.g. hb=250ms,budget=1 (repeatable; default sweep: hb=250ms / backoff=4s / budget=1 / policy=off / mech=microreboot / mech=standby)")
	record := fs.String("record", "", "write the baseline decision log (spec header + JSONL) to this file")
	replay := fs.String("replay", "", "re-run the campaign recorded in this file and byte-compare its decision log before sweeping")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *record != "" && *replay != "" {
		return fmt.Errorf("-record and -replay are mutually exclusive")
	}

	base, err := campaign.ParseSpec(baselineSpec)
	if err != nil {
		return err
	}
	var recorded []decision.Event
	if *replay != "" {
		f, err := os.Open(*replay)
		if err != nil {
			return err
		}
		events, err := decision.ParseJSONL(f)
		f.Close()
		if err != nil {
			return err
		}
		if len(events) == 0 || events[0].Kind != decision.KindMark ||
			events[0].Service != "whatif" || events[0].Action != "campaign" {
			return fmt.Errorf("%s: not a whatif recording (missing campaign header mark)", *replay)
		}
		base, err = campaign.ParseSpec(events[0].Detail)
		if err != nil {
			return fmt.Errorf("%s: %v", *replay, err)
		}
		recorded = events[1:]
	}
	if *matrix != "" {
		if base, err = base.Override(*matrix); err != nil {
			return fmt.Errorf("-matrix: %v", err)
		}
	}
	if len(overrides) == 0 {
		overrides = multiFlag{"hb=250ms", "backoff=4s", "budget=1", "policy=off",
			"mech=microreboot", "mech=standby"}
	}

	// Every spec is parsed before anything runs: a typo costs no campaign.
	counterfactuals := make([]campaign.Config, len(overrides))
	for i, ov := range overrides {
		if counterfactuals[i], err = base.Override(ov); err != nil {
			return fmt.Errorf("-override: %v", err)
		}
	}

	progress := func(name string) func(done, total int) {
		if *quiet {
			return nil
		}
		return func(done, total int) {
			fmt.Fprintf(os.Stderr, "  ... %s: cell %d/%d\n", name, done, total)
		}
	}

	baseRep, err := runCampaign(base, progress("baseline"))
	if err != nil {
		return err
	}
	if recorded != nil {
		got, want := decision.Encode(baseRep.DecisionLog), decision.Encode(recorded)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replay mismatch: re-run produced %d bytes, recording has %d (determinism broken or knobs drifted)",
				len(got), len(want))
		}
		fmt.Fprintf(stdout, "replay: %s reproduced byte-for-byte (%d events)\n\n", *replay, len(recorded))
	}
	if *record != "" {
		if err := os.WriteFile(*record, encodeRecording(base, baseRep.DecisionLog), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "baseline decision log recorded to %s\n", *record)
	}

	variants := []variant{{name: "baseline", rep: baseRep, sum: latencySummary(baseRep)}}
	for i, cfg := range counterfactuals {
		name := strings.ReplaceAll(overrides[i], " ", "")
		rep, err := runCampaign(cfg, progress(name))
		if err != nil {
			return err
		}
		variants = append(variants, variant{name: name, rep: rep, sum: latencySummary(rep)})
	}

	renderTable(stdout, base, variants)

	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, benchDoc(base, variants)); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "sweep summary written to %s\n", *benchJSON)
	}
	return nil
}

func latencySummary(rep *campaign.Report) obs.LatencySummary {
	var all []sim.Time
	for _, a := range rep.ByFault {
		all = append(all, a.Latencies...)
	}
	return obs.Summarize(all)
}

// renderTable writes the paper-style counterfactual table. Everything is
// virtual-time deterministic: no wall clock, no worker count.
func renderTable(w io.Writer, base campaign.Config, variants []variant) {
	fmt.Fprintf(w, "counterfactual sweep: %s\n\n", base.Spec())
	fmt.Fprintf(w, "%-24s %7s %9s %6s %9s %9s %9s %9s %9s\n",
		"variant", "crashes", "recovered", "gaveup",
		"avail%", "Δavail", "p50_ms", "p95_ms", "Δp95_ms")
	b := variants[0]
	ms := func(t sim.Time) float64 { return float64(t) / 1e6 }
	for i, v := range variants {
		dAvail, dP95 := "-", "-"
		if i > 0 {
			dAvail = fmt.Sprintf("%+.3f", v.rep.Availability()-b.rep.Availability())
			if v.sum.Count > 0 && b.sum.Count > 0 {
				dP95 = fmt.Sprintf("%+.1f", ms(v.sum.P95)-ms(b.sum.P95))
			}
		}
		p50, p95 := "-", "-"
		if v.sum.Count > 0 {
			p50 = fmt.Sprintf("%.1f", ms(v.sum.P50))
			p95 = fmt.Sprintf("%.1f", ms(v.sum.P95))
		}
		fmt.Fprintf(w, "%-24s %7d %9d %6d %9.3f %9s %9s %9s %9s\n",
			v.name, v.rep.Crashes, v.rep.Recovered, v.rep.GaveUp,
			v.rep.Availability(), dAvail, p50, p95, dP95)
	}
}

// benchDoc is the sweep's bench document: the baseline under
// "baseline/", every counterfactual under "override/<knobs>/" (knobs
// joined by '/').
func benchDoc(base campaign.Config, variants []variant) bench.Doc {
	doc := bench.New("whatif", map[string]string{"spec": base.Spec()})
	for i, v := range variants {
		key := "baseline/"
		if i > 0 {
			key = "override/" + strings.ReplaceAll(v.name, ",", "/") + "/"
		}
		doc.Count(key+"crashes", v.rep.Crashes)
		doc.Count(key+"recovered", v.rep.Recovered)
		doc.Count(key+"gave_up", v.rep.GaveUp)
		doc.Add(key+"availability_pct", v.rep.Availability(), "%", bench.Higher)
		doc.Count(key+"decision_events", len(v.rep.DecisionLog))
		doc.Latency(key+"recovery", v.sum)
	}
	return doc
}

// multiFlag collects a repeatable string flag.
type multiFlag []string

func (m *multiFlag) String() string { return strings.Join(*m, " ") }
func (m *multiFlag) Set(s string) error {
	*m = append(*m, s)
	return nil
}
