// Command faultbench runs software fault-injection campaigns against the
// simulated OS.
//
// The default mode shards a seed × victim-driver × fault-type matrix
// across a pool of workers, each running an independent deterministic
// simulation (internal/campaign). The merged report — the paper-style
// §7.2 table plus per-fault-type recovery-latency histograms — is
// byte-identical for any -workers value. With -invariants every cell
// runs the live invariant checker (internal/check) after every scheduler
// step; a violation dumps the cell's seed, the last mutated instruction,
// and the last K trace events, and faultbench exits nonzero.
//
//	faultbench -matrix seeds=8,per-cell=25 -workers 4 -invariants
//	faultbench -matrix seeds=2,victims=eth.dp8390,faults=bit-flip
//	faultbench -classic -faults 12500     # the original single-system §7.2 run
//	faultbench -classic -hw               # with the real-card gate
package main

import (
	"errors"
	"flag"
	"fmt"
	"os"
	"sort"
	"strconv"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/fi"
	"resilientos/internal/obs"
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

func run(args []string) error {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	matrix := fs.String("matrix", "", "campaign matrix spec: comma-separated key=value\n"+
		"keys: seeds=N|s1;s2;..., victims=a;b|all, faults=f1;f2|all, per-cell=N\n"+
		"example: seeds=8,victims=eth.dp8390;disk.sata,faults=bit-flip,per-cell=25")
	workers := fs.Int("workers", 1, "worker pool size (output is identical for any value)")
	invariants := fs.Bool("invariants", false, "run the live invariant checker in every cell")
	traceTail := fs.Int("trace-tail", 32, "trace events kept per cell for violation repro dumps")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")

	classic := fs.Bool("classic", false, "original §7.2 single-system campaign")
	faults := fs.Int("faults", 12500, "classic: total faults to inject")
	seed := fs.Int64("seed", 1, "classic: simulation seed")
	hwGate := fs.Bool("hw", false, "classic: model real hardware (confusable NIC, no master reset)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	if *classic {
		return runClassic(*faults, *seed, *hwGate)
	}

	cfg, err := parseMatrix(*matrix)
	if err != nil {
		return err
	}
	cfg.Workers = *workers
	cfg.Invariants = *invariants
	cfg.TraceTail = *traceTail
	if !*quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "  ... cell %d/%d\n", done, total)
		}
	}

	start := time.Now()
	rep := campaign.Run(cfg)
	rep.Render(os.Stdout)
	wall := time.Since(start)
	fmt.Printf("\nwall clock: %v (workers=%d)\n", wall.Round(time.Millisecond), cfg.Workers)
	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, benchDoc(rep)); err != nil {
			return err
		}
		fmt.Printf("perf baseline written to %s\n", *benchJSON)
	}
	if !rep.Ok() {
		return fmt.Errorf("campaign surfaced %d invariant violation(s)", len(rep.Violations))
	}
	return nil
}

// benchDoc is the campaign's bench document: the matrix shape as
// parameters, then totals and per-fault-type counts and recovery
// latencies, identical for any -workers value.
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

// parseMatrix builds a campaign config from the -matrix spec. Keys are
// comma-separated; list values use ';' between items. An empty spec is
// the default matrix (1 seed, standard victims, all fault types).
func parseMatrix(spec string) (campaign.Config, error) {
	var cfg campaign.Config
	if spec == "" {
		return cfg, nil
	}
	for _, tok := range strings.Split(spec, ",") {
		tok = strings.TrimSpace(tok)
		if tok == "" {
			continue
		}
		key, val, ok := strings.Cut(tok, "=")
		if !ok {
			return cfg, fmt.Errorf("matrix: %q is not key=value", tok)
		}
		switch key {
		case "seeds", "seed":
			items := splitList(val)
			if len(items) == 1 && key == "seeds" {
				// seeds=N is a count: seeds 1..N.
				n, err := strconv.Atoi(items[0])
				if err != nil || n < 1 {
					return cfg, fmt.Errorf("matrix: bad seed count %q", val)
				}
				cfg.Seeds = campaign.Seq(n)
				continue
			}
			for _, it := range items {
				s, err := strconv.ParseInt(it, 10, 64)
				if err != nil {
					return cfg, fmt.Errorf("matrix: bad seed %q", it)
				}
				cfg.Seeds = append(cfg.Seeds, s)
			}
		case "victims", "victim":
			if val == "all" {
				cfg.Victims = campaign.DefaultVictims
				continue
			}
			cfg.Victims = splitList(val)
		case "faults", "fault":
			if val == "all" {
				cfg.FaultTypes = campaign.AllFaultTypes
				continue
			}
			for _, it := range splitList(val) {
				ft, err := parseFaultType(it)
				if err != nil {
					return cfg, err
				}
				cfg.FaultTypes = append(cfg.FaultTypes, ft)
			}
		case "per-cell":
			n, err := strconv.Atoi(val)
			if err != nil || n < 1 {
				return cfg, fmt.Errorf("matrix: bad per-cell %q", val)
			}
			cfg.FaultsPerCell = n
		default:
			return cfg, fmt.Errorf("matrix: unknown key %q", key)
		}
	}
	return cfg, nil
}

func splitList(s string) []string {
	var out []string
	for _, it := range strings.Split(s, ";") {
		if it = strings.TrimSpace(it); it != "" {
			out = append(out, it)
		}
	}
	return out
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
	return 0, fmt.Errorf("matrix: unknown fault type %q (known: %s)", name, strings.Join(known, ", "))
}

// runClassic is the original §7.2 reproduction: one long-running system,
// randomly selected fault types, the DP8390 driver as the only victim.
func runClassic(faults int, seed int64, hwGate bool) error {
	fmt.Printf("§7.2 fault-injection campaign: %d faults into the running DP8390 driver\n", faults)
	fmt.Printf("(paper: 12,500 faults, 347 crashes: 65%% panic, 31%% exception, 4%% heartbeat; 100%% recovery)\n")
	if hwGate {
		fmt.Println("hardware gate enabled: garbage commands can wedge the card (no master reset)")
	}
	fmt.Println()

	res := resilientos.FaultInjectionCampaign(resilientos.CampaignConfig{
		Faults:   faults,
		Seed:     seed,
		Hardware: hwGate,
		Progress: func(injected, crashes int, now time.Duration) {
			fmt.Printf("  ... %6d injected, %4d crashes (t=%v)\n", injected, crashes, now.Round(time.Second))
		},
	})

	fmt.Println()
	for _, row := range res.Rows() {
		fmt.Println(row)
	}

	fmt.Println("\ncrash-triggering fault types:")
	types := make([]fi.FaultType, 0, len(res.ByFault))
	for ft := range res.ByFault {
		types = append(types, ft)
	}
	sort.Slice(types, func(i, j int) bool { return types[i] < types[j] })
	for _, ft := range types {
		fmt.Printf("  %-20s %d\n", ft, res.ByFault[ft])
	}
	// Full recovery is the headline claim; an unrecovered crash must trip
	// the exit status, not just print. The -hw gate is the one modeled
	// exception: a deeply confused card is allowed to need host help.
	if res.GaveUp > 0 && !hwGate {
		return fmt.Errorf("campaign left %d crash(es) unrecovered", res.GaveUp)
	}
	return nil
}
