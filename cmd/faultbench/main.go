// Command faultbench runs software fault-injection campaigns against the
// simulated OS, and replays a campaign under counterfactual recovery knobs.
//
// It shards a seed × victim-driver × fault-class matrix across the CPUs
// (GOMAXPROCS workers), each cell an independent deterministic simulation
// (internal/campaign). The merged report — the paper-style
// §7.2 table plus per-fault-type recovery-latency histograms — is
// byte-identical on any number of them. With -invariants every cell
// runs the live invariant checker (internal/check) after every scheduler
// step; a violation dumps the cell's seed, the last mutated instruction,
// and the last K trace events, and faultbench exits nonzero.
//
//	faultbench -matrix seeds=8,per-cell=25 -invariants
//	faultbench -matrix seeds=2,victims=eth.dp8390,faults=bit-flip
//
// The paper's own §7.2 run is a one-cell matrix; hw=on adds the real-card gate:
//
//	faultbench -matrix seed=1,victims=eth.dp8390,faults=random,per-cell=12500
//	faultbench -matrix seed=5,victims=eth.dp8390,faults=random,per-cell=12500,hw=on
//
// Every run records RS's recovery decisions (internal/obs/decision). Each
// -override re-runs the identical campaign with one knob set changed —
// what would availability and recovery latency have been with a faster
// heartbeat, a longer backoff, a capped restart budget, no policy script?
// — and a table after the report compares them. -record writes the
// campaign's decision log behind a header naming its spec; -replay re-runs
// that spec and byte-compares the log before any override runs.
//
//	faultbench -matrix seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,backoff=1s \
//	    -override hb=250ms -override budget=1 -record base.jsonl
//	faultbench -replay base.jsonl -override policy=off
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
	"time"

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

// recordingTag is the service name of a recording's header mark,
// unchanged so that every recording made so far still replays.
const recordingTag = "whatif"

// variant is one campaign of a comparison and its outcome.
type variant struct {
	name string
	cfg  campaign.Config
	rep  *campaign.Report
}

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	matrix := fs.String("matrix", "", campaign.SpecUsage)
	var overrides []string
	fs.Func("override", "counterfactual spec applied on top of the campaign, e.g. hb=250ms,budget=1 (repeatable): run it again under each and compare",
		func(spec string) error { overrides = append(overrides, spec); return nil })
	record := fs.String("record", "", "write the campaign's decision log (spec header + JSONL) to this file")
	replay := fs.String("replay", "", "re-run the campaign recorded in this file and byte-compare its decision log before any -override runs")
	invariants := fs.Bool("invariants", false, "run the live invariant checker in every cell")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("unexpected arguments: %v", fs.Args())
	}
	if *record != "" && *replay != "" {
		return fmt.Errorf("-record and -replay are mutually exclusive")
	}
	if *matrix != "" && *replay != "" {
		return fmt.Errorf("-matrix and -replay are mutually exclusive: the recording names its campaign")
	}

	// Every spec is parsed before anything runs: a typo costs no campaign.
	base, err := campaign.ParseSpec(*matrix)
	if err != nil {
		return fmt.Errorf("-matrix: %v", err)
	}
	var recorded []decision.Event
	if *replay != "" {
		if base, recorded, err = readRecording(*replay); err != nil {
			return err
		}
	}
	base.Invariants = *invariants
	base.Decisions = true
	variants := []variant{{name: "baseline", cfg: base}}
	for _, ov := range overrides {
		cfg, err := base.Override(ov)
		if err != nil {
			return fmt.Errorf("-override: %v", err)
		}
		variants = append(variants, variant{name: strings.ReplaceAll(ov, " ", ""), cfg: cfg})
	}

	start := time.Now()
	for i := range variants {
		v := &variants[i]
		if !*quiet {
			v.cfg.Progress = func(done, total int) {
				fmt.Fprintf(os.Stderr, "  ... %s: cell %d/%d\n", v.name, done, total)
			}
		}
		v.rep = campaign.Run(v.cfg)
		if i == 0 || !v.rep.Ok() {
			v.rep.Render(stdout)
		}
		if !v.rep.Ok() {
			return fmt.Errorf("%s surfaced %d invariant violation(s)", v.name, len(v.rep.Violations))
		}
		if problems := decision.Check(v.rep.DecisionLog); len(problems) != 0 {
			return fmt.Errorf("%s: decision log ill-formed: %s", v.name, strings.Join(problems, "; "))
		}
		if i > 0 {
			continue
		}
		if recorded != nil {
			got, want := decision.Encode(v.rep.DecisionLog), decision.Encode(recorded)
			if !bytes.Equal(got, want) {
				return fmt.Errorf("replay mismatch: re-run produced %d bytes, recording has %d (determinism broken or knobs drifted)",
					len(got), len(want))
			}
			fmt.Fprintf(stdout, "\nreplay: %s reproduced byte-for-byte (%d events)\n", *replay, len(recorded))
		}
		if *record != "" {
			if err := os.WriteFile(*record, encodeRecording(base, v.rep.DecisionLog), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(os.Stderr, "decision log recorded to %s\n", *record)
		}
	}
	if len(variants) > 1 {
		renderTable(stdout, base, variants)
	}
	fmt.Fprintf(stdout, "\nwall clock: %v\n", time.Since(start).Round(time.Millisecond))

	if *benchJSON != "" {
		doc := benchDoc(variants[0].rep)
		if len(variants) > 1 {
			doc = compareDoc(base, variants)
		}
		if err := bench.WriteFile(*benchJSON, doc); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perf baseline written to %s\n", *benchJSON)
	}
	return nil
}

// readRecording reads a -record file: the campaign its header names and
// the decision log behind it.
func readRecording(path string) (campaign.Config, []decision.Event, error) {
	f, err := os.Open(path)
	if err != nil {
		return campaign.Config{}, nil, err
	}
	events, err := decision.ParseJSONL(f)
	f.Close()
	if err != nil {
		return campaign.Config{}, nil, err
	}
	if len(events) == 0 || events[0].Kind != decision.KindMark ||
		events[0].Service != recordingTag || events[0].Action != "campaign" {
		return campaign.Config{}, nil, fmt.Errorf("%s: not a campaign recording (missing campaign header mark)", path)
	}
	cfg, err := campaign.ParseSpec(events[0].Detail)
	if err != nil {
		return campaign.Config{}, nil, fmt.Errorf("%s: %v", path, err)
	}
	return cfg, events[1:], nil
}

// encodeRecording prefixes the log with the recording's header: a mark
// carrying the campaign's spec, so -replay re-runs exactly that campaign.
func encodeRecording(base campaign.Config, log []decision.Event) []byte {
	return decision.Encode(append([]decision.Event{{
		Kind: decision.KindMark, Service: recordingTag, Action: "campaign", Detail: base.Spec(),
	}}, log...))
}

// benchDoc is the campaign's bench document: the matrix shape as
// parameters, then totals and per-fault-type counts and recovery
// latencies, identical for any worker count.
func benchDoc(rep *campaign.Report) bench.Doc {
	doc := bench.New("faultbench", map[string]string{
		"seeds":           strconv.Itoa(len(rep.Config.Seeds)),
		"cells":           strconv.Itoa(len(rep.Cells)),
		"faults_per_cell": strconv.Itoa(rep.Config.FaultsPerCell),
	})
	doc.Count("injected", rep.Injected)
	doc.Count("crashes", rep.Crashes)
	doc.Count("recovered", rep.Recovered)
	doc.Count("gave_up", rep.GaveUp)
	if rep.Config.System.Machine.ConfusableNICs {
		doc.Count("bios_resets", rep.BIOSResets)
	}
	rate := 0.0
	if rep.Crashes > 0 {
		rate = 100 * float64(rep.Recovered) / float64(rep.Crashes)
	}
	doc.Add("recovery_rate_pct", rate, "%", bench.Higher)
	doc.Count("invariant_violations", len(rep.Violations))
	for _, a := range rep.ByFault {
		key := "fault/" + a.Fault.String() + "/"
		doc.Count(key+"injected", a.Injected)
		doc.Count(key+"crashes", a.Crashes)
		doc.Count(key+"recovered", a.Recovered)
		doc.Count(key+"gave_up", a.GaveUp)
		doc.Latency(key+"recovery", obs.Summarize(a.Latencies))
	}
	return doc
}

// latencySummary summarizes every recovery of the campaign.
func latencySummary(rep *campaign.Report) obs.LatencySummary {
	var all []sim.Time
	for _, a := range rep.ByFault {
		all = append(all, a.Latencies...)
	}
	return obs.Summarize(all)
}

// renderTable writes the counterfactual table: each variant's outcome
// and its delta against the baseline. Everything is virtual-time
// deterministic: no wall clock, no worker count.
func renderTable(w io.Writer, base campaign.Config, variants []variant) {
	fmt.Fprintf(w, "\ncounterfactual sweep: %s\n\n", base.Spec())
	fmt.Fprintf(w, "%-24s %7s %9s %6s %9s %9s %9s %9s %9s\n",
		"variant", "crashes", "recovered", "gaveup",
		"avail%", "Δavail", "p50_ms", "p95_ms", "Δp95_ms")
	b, bsum := variants[0].rep, latencySummary(variants[0].rep)
	ms := func(t sim.Time) float64 { return float64(t) / 1e6 }
	for i, v := range variants {
		sum := latencySummary(v.rep)
		dAvail, dP95 := "-", "-"
		if i > 0 {
			dAvail = fmt.Sprintf("%+.3f", v.rep.Availability()-b.Availability())
			if sum.Count > 0 && bsum.Count > 0 {
				dP95 = fmt.Sprintf("%+.1f", ms(sum.P95)-ms(bsum.P95))
			}
		}
		p50, p95 := "-", "-"
		if sum.Count > 0 {
			p50 = fmt.Sprintf("%.1f", ms(sum.P50))
			p95 = fmt.Sprintf("%.1f", ms(sum.P95))
		}
		fmt.Fprintf(w, "%-24s %7d %9d %6d %9.3f %9s %9s %9s %9s\n",
			v.name, v.rep.Crashes, v.rep.Recovered, v.rep.GaveUp,
			v.rep.Availability(), dAvail, p50, p95, dP95)
	}
}

// compareDoc is the bench document of a comparison: the baseline under
// "baseline/", every counterfactual under "override/<knobs>/" (knobs
// joined by '/').
func compareDoc(base campaign.Config, variants []variant) bench.Doc {
	doc := bench.New("faultbench -override", map[string]string{"spec": base.Spec()})
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
		doc.Latency(key+"recovery", latencySummary(v.rep))
	}
	return doc
}
