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
// logs — is byte-identical across runs and for any -workers value.
//
//	whatif                                  # default 3-knob sweep, seed 11
//	whatif -override hb=250ms -override budget=1
//	whatif -record base.jsonl               # record the baseline decision log
//	whatif -replay base.jsonl               # re-run and byte-compare, then sweep
//	whatif -bench-json BENCH_decisions.json
//
// Override knobs (comma-separated inside one -override = one variant):
//
//	hb=<dur>|off   heartbeat period (off disables liveness pings)
//	misses=<n>     consecutive misses before a driver is declared stuck
//	budget=<n>     restart budget per driver (0 = unlimited)
//	backoff=<dur>  policy backoff base (doubles per repetition)
//	policy=on|off  run the recovery policy script vs. direct restart
//	mech=<name>    recovery mechanism: respawn, microreboot, or standby
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/drvlib"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
	"resilientos/internal/obs/decision"
	"resilientos/internal/policy"
	"resilientos/internal/sim"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

// scenario is one fully specified campaign configuration: the matrix
// plus every recovery knob the sweep can override.
type scenario struct {
	seeds   []int64
	victim  string
	fault   fi.FaultType
	perCell int

	hb      time.Duration    // heartbeat period; negative = disabled
	misses  int              // heartbeat misses before declared stuck
	budget  int              // restart budget (0 = unlimited)
	backoff time.Duration    // policy backoff base
	policy  bool             // run the policy script vs. direct restart
	mech    drvlib.Mechanism // recovery mechanism (respawn/microreboot/standby)
}

// baseline is the standard scenario: the Fig. 7 victim under bit-flip
// injection with the paper's recovery defaults.
func baseline() scenario {
	return scenario{
		seeds:   []int64{11},
		victim:  "eth.rtl8139",
		fault:   fi.FaultBitFlip,
		perCell: 10,
		hb:      500 * time.Millisecond,
		misses:  3,
		budget:  0,
		backoff: time.Second,
		policy:  true,
	}
}

// spec renders the scenario canonically; parseSpec inverts it. The spec
// is the replay-file header, so record/replay round-trips exactly.
func (sc scenario) spec() string {
	seeds := make([]string, len(sc.seeds))
	for i, s := range sc.seeds {
		seeds[i] = strconv.FormatInt(s, 10)
	}
	hb := "off"
	if sc.hb >= 0 {
		hb = sc.hb.String()
	}
	pol := "off"
	if sc.policy {
		pol = "on"
	}
	return fmt.Sprintf("seeds=%s victim=%s fault=%s per-cell=%d hb=%s misses=%d budget=%d backoff=%s policy=%s mech=%s",
		strings.Join(seeds, ";"), sc.victim, sc.fault, sc.perCell,
		hb, sc.misses, sc.budget, sc.backoff, pol, sc.mech)
}

func parseSpec(spec string) (scenario, error) {
	sc := scenario{}
	for _, tok := range strings.Fields(spec) {
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return sc, fmt.Errorf("spec: %q is not key=value", tok)
		}
		switch key {
		case "seeds":
			for _, it := range strings.Split(val, ";") {
				s, err := strconv.ParseInt(it, 10, 64)
				if err != nil {
					return sc, fmt.Errorf("spec: bad seed %q", it)
				}
				sc.seeds = append(sc.seeds, s)
			}
		case "victim":
			sc.victim = val
		case "fault":
			ft, err := parseFaultType(val)
			if err != nil {
				return sc, err
			}
			sc.fault = ft
		case "per-cell":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return sc, fmt.Errorf("spec: bad per-cell %q", val)
			}
			sc.perCell = n
		default:
			var err error
			sc, err = applyKnob(sc, key, val)
			if err != nil {
				return sc, err
			}
		}
	}
	if len(sc.seeds) == 0 || sc.victim == "" {
		return sc, fmt.Errorf("spec: missing seeds or victim in %q", spec)
	}
	return sc, nil
}

func parseFaultType(name string) (fi.FaultType, error) {
	for _, ft := range campaign.AllFaultTypes {
		if ft.String() == name {
			return ft, nil
		}
	}
	var known []string
	for _, ft := range campaign.AllFaultTypes {
		known = append(known, ft.String())
	}
	return 0, fmt.Errorf("unknown fault type %q (known: %s)", name, strings.Join(known, ", "))
}

// applyKnob sets one override knob on a scenario copy.
func applyKnob(sc scenario, key, val string) (scenario, error) {
	switch key {
	case "hb":
		if val == "off" {
			sc.hb = -1
			return sc, nil
		}
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return sc, fmt.Errorf("bad hb %q (duration or off)", val)
		}
		sc.hb = d
	case "misses":
		n, err := strconv.Atoi(val)
		if err != nil || n < 1 {
			return sc, fmt.Errorf("bad misses %q", val)
		}
		sc.misses = n
	case "budget":
		n, err := strconv.Atoi(val)
		if err != nil || n < 0 {
			return sc, fmt.Errorf("bad budget %q", val)
		}
		sc.budget = n
	case "backoff":
		d, err := time.ParseDuration(val)
		if err != nil || d <= 0 {
			return sc, fmt.Errorf("bad backoff %q", val)
		}
		sc.backoff = d
	case "policy":
		switch val {
		case "on":
			sc.policy = true
		case "off":
			sc.policy = false
		default:
			return sc, fmt.Errorf("bad policy %q (on|off)", val)
		}
	case "mech":
		m, ok := drvlib.ParseMechanism(val)
		if !ok {
			return sc, fmt.Errorf("bad mech %q (respawn|microreboot|standby)", val)
		}
		sc.mech = m
	default:
		return sc, fmt.Errorf("unknown knob %q (hb, misses, budget, backoff, policy, mech)", key)
	}
	return sc, nil
}

// applyOverride applies a comma-separated knob list ("hb=250ms,budget=1")
// and returns the overridden scenario plus its canonical variant name.
func applyOverride(sc scenario, override string) (scenario, string, error) {
	var names []string
	for _, tok := range strings.Split(override, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return sc, "", fmt.Errorf("override: %q is not key=value", tok)
		}
		var err error
		sc, err = applyKnob(sc, key, val)
		if err != nil {
			return sc, "", fmt.Errorf("override: %v", err)
		}
		names = append(names, tok)
	}
	if len(names) == 0 {
		return sc, "", fmt.Errorf("override: empty spec")
	}
	return sc, strings.Join(names, ","), nil
}

// backoffScript generates the paper-shaped recovery policy (Fig. 2):
// exponential backoff from the given base, doubling per repetition and
// capping at the fourth arm, skipped for dynamic updates ($2 = 6), then
// a restart of the failed component.
func backoffScript(base time.Duration) *policy.Script {
	secs := func(mult int) string {
		d := time.Duration(mult) * base
		return strconv.FormatFloat(d.Seconds(), 'g', -1, 64)
	}
	src := fmt.Sprintf(`component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	case $repetition in
	1) sleep %s ;;
	2) sleep %s ;;
	3) sleep %s ;;
	*) sleep %s ;;
	esac
fi
service restart $component
`, secs(1), secs(2), secs(4), secs(8))
	return policy.MustParse(src)
}

// variant is one scenario's run outcome.
type variant struct {
	name string
	rep  *campaign.Report
	sum  obs.LatencySummary
}

// runScenario executes one scenario as a decision-traced campaign.
func runScenario(sc scenario, workers int, progress func(done, total int)) (*campaign.Report, error) {
	cfg := campaign.Config{
		Seeds:         sc.seeds,
		Victims:       []string{sc.victim},
		FaultTypes:    []fi.FaultType{sc.fault},
		FaultsPerCell: sc.perCell,
		Workers:       workers,
		Invariants:    true,
		Decisions:     true,
		Progress:      progress,

		HeartbeatPeriod: sc.hb,
		HeartbeatMisses: sc.misses,
		MaxRestarts:     sc.budget,
		Mechanism:       sc.mech,
	}
	if sc.policy {
		cfg.Policy = backoffScript(sc.backoff)
	}
	rep := campaign.Run(cfg)
	if !rep.Ok() {
		var b strings.Builder
		rep.Render(&b)
		return rep, fmt.Errorf("invariant violations under %q:\n%s", sc.spec(), b.String())
	}
	if problems := decision.Check(rep.DecisionLog); len(problems) != 0 {
		return rep, fmt.Errorf("decision log ill-formed under %q: %s", sc.spec(), strings.Join(problems, "; "))
	}
	return rep, nil
}

// recordHeader is the replay-file header mark carrying the baseline spec.
func recordHeader(sc scenario) decision.Event {
	return decision.Event{
		Kind: decision.KindMark, Service: "whatif",
		Action: "campaign", Detail: sc.spec(),
	}
}

func encodeRecording(sc scenario, log []decision.Event) []byte {
	return decision.Encode(append([]decision.Event{recordHeader(sc)}, log...))
}

func run(args []string) error {
	fs := flag.NewFlagSet("whatif", flag.ContinueOnError)
	seeds := fs.String("seeds", "", "';'-separated campaign seeds (default 11)")
	victim := fs.String("victim", "", "victim driver label (default eth.rtl8139)")
	fault := fs.String("fault", "", "fault type to inject (default bit-flip)")
	perCell := fs.Int("per-cell", 0, "faults per cell (default 10)")
	var overrides multiFlag
	fs.Var(&overrides, "override", "counterfactual knob set, e.g. hb=250ms,budget=1 (repeatable; default sweep: hb=250ms / backoff=4s / budget=1 / policy=off / mech=microreboot / mech=standby)")
	workers := fs.Int("workers", 1, "worker pool size (output is identical for any value)")
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

	base := baseline()
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
		base, err = parseSpec(events[0].Detail)
		if err != nil {
			return fmt.Errorf("%s: %v", *replay, err)
		}
		recorded = events[1:]
	}
	if *seeds != "" {
		base.seeds = nil
		for _, it := range strings.Split(*seeds, ";") {
			s, err := strconv.ParseInt(strings.TrimSpace(it), 10, 64)
			if err != nil {
				return fmt.Errorf("bad seed %q", it)
			}
			base.seeds = append(base.seeds, s)
		}
	}
	if *victim != "" {
		base.victim = *victim
	}
	if *fault != "" {
		ft, err := parseFaultType(*fault)
		if err != nil {
			return err
		}
		base.fault = ft
	}
	if *perCell > 0 {
		base.perCell = *perCell
	}
	if len(overrides) == 0 {
		overrides = multiFlag{"hb=250ms", "backoff=4s", "budget=1", "policy=off",
			"mech=microreboot", "mech=standby"}
	}

	progress := func(string) func(done, total int) { return nil }
	if !*quiet {
		progress = func(name string) func(done, total int) {
			return func(done, total int) {
				fmt.Fprintf(os.Stderr, "  ... %s: cell %d/%d\n", name, done, total)
			}
		}
	}

	baseRep, err := runScenario(base, *workers, progress("baseline"))
	if err != nil {
		return err
	}
	if recorded != nil {
		got, want := decision.Encode(baseRep.DecisionLog), decision.Encode(recorded)
		if !bytes.Equal(got, want) {
			return fmt.Errorf("replay mismatch: re-run produced %d bytes, recording has %d (determinism broken or knobs drifted)",
				len(got), len(want))
		}
		fmt.Printf("replay: %s reproduced byte-for-byte (%d events)\n\n", *replay, len(recorded))
	}
	if *record != "" {
		if err := os.WriteFile(*record, encodeRecording(base, baseRep.DecisionLog), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "baseline decision log recorded to %s\n", *record)
	}

	variants := []variant{{name: "baseline", rep: baseRep, sum: latencySummary(baseRep)}}
	for _, ov := range overrides {
		sc, name, err := applyOverride(base, ov)
		if err != nil {
			return err
		}
		rep, err := runScenario(sc, *workers, progress(name))
		if err != nil {
			return err
		}
		variants = append(variants, variant{name: name, rep: rep, sum: latencySummary(rep)})
	}

	renderTable(os.Stdout, base, variants)

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
func renderTable(w *os.File, base scenario, variants []variant) {
	fmt.Fprintf(w, "counterfactual sweep: %s\n\n", base.spec())
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
func benchDoc(base scenario, variants []variant) bench.Doc {
	doc := bench.New("whatif", map[string]string{"spec": base.spec()})
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
