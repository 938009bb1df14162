// Command fleetbench simulates a fleet of resilient operating systems
// behind a load balancer and measures what driver-level recovery buys a
// replicated service under fault storms (internal/cluster).
//
// Every node is a full simulated OS — microkernel, reincarnation server,
// drivers — and the nodes run their whole campaign in parallel, one per
// CPU (GOMAXPROCS); a fleet-level event loop then routes synthetic
// requests with a pluggable policy over what they went through: a storm
// that kills (or SWIFI-mutates) the same driver on several nodes at once,
// or Poisson-faults nodes independently.
// Output is byte-reproducible from -seed on any number of CPUs.
//
// The load is always a workload spec (internal/workload): by default the
// built-in "classic" one (-rps Poisson requests a second, 3 net : 1
// disk), with -workload a JSON file declaring per-class client
// populations, arrival processes (Poisson, Gamma, Weibull, fixed-rate),
// diurnal rate modulation, sizes, and SLO budgets. -record pins the
// generated arrival sequence as a tracev2 JSONL file and -replay
// re-drives exactly that sequence, byte for byte.
//
//	fleetbench -nodes 4 -policy failure-aware -storm correlated:eth.rtl8139,k=2,every=1s
//	fleetbench -policy round-robin -storm poisson:disk.sata,mean=800ms,mode=inject
//	fleetbench -compare -storm correlated:eth.rtl8139    # all policies side by side
//	fleetbench -seed 11 -csv fleet.csv -bench-json BENCH_fleet.json
//	fleetbench -workload spec.json -record trace.jsonl   # pin a campaign
//	fleetbench -replay trace.jsonl                       # regression-replay it
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"resilientos/internal/bench"
	"resilientos/internal/cluster"
	"resilientos/internal/obs/timeseries"
	"resilientos/internal/workload"
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
	fs := flag.NewFlagSet("fleetbench", flag.ContinueOnError)
	nodes := fs.Int("nodes", 4, "fleet size (each node is a full simulated OS)")
	seed := fs.Int64("seed", 1, "fleet seed; node seeds and every draw derive from it")
	policy := fs.String("policy", "failure-aware",
		"routing policy: round-robin, least-loaded, or failure-aware")
	storm := fs.String("storm", "none", "fault storm spec:\n"+
		"none | correlated:<driver>[,k=N][,every=DUR][,mode=kill|inject]\n"+
		"     | poisson:<driver>[,mean=DUR][,mode=kill|inject]\n"+
		"example: correlated:eth.rtl8139,k=2,every=1s")
	horizon := fs.Duration("horizon", 12*time.Second, "campaign length in virtual time")
	window := fs.Duration("window", 250*time.Millisecond, "availability window width")
	rps := fs.Float64("rps", 200, "fleet-wide request rate per virtual second of the built-in \"classic\"\n"+
		"workload (workload.Classic: Poisson, 3 net : 1 disk)")
	compare := fs.Bool("compare", false, "run every policy under the same storm and print a comparison table\n"+
		"(-bench-json then holds one policy/<name>/ group per policy)")
	csvPath := fs.String("csv", "", "write the fleet window series (timeseries CSV) to this file")
	jsonPath := fs.String("json", "", "write the full campaign report as JSON to this file")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	workloadPath := fs.String("workload", "",
		"workload spec JSON (internal/workload): declarative per-class arrival\n"+
			"processes, sizes, and SLO budgets; replaces the classic workload\n"+
			"(-rps), and the spec horizon overrides -horizon")
	recordPath := fs.String("record", "", "write the generated arrival sequence as a tracev2 JSONL trace")
	replayPath := fs.String("replay", "", "re-drive a recorded tracev2 trace (exclusive with -workload and -record;\n"+
		"the trace's horizon overrides -horizon)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	// cluster.Config reads a zero as "the default", so a count the user
	// typed must be checked here.
	if *nodes < 1 {
		return fmt.Errorf("fleetbench: -nodes %d: a fleet has at least one node", *nodes)
	}
	cfg := cluster.Config{
		Nodes:  *nodes,
		Seed:   *seed,
		Window: *window,
	}
	st, err := cluster.ParseStorm(*storm)
	if err != nil {
		return fmt.Errorf("fleetbench: -storm %s: %w", *storm, err)
	}
	cfg.Storm = st

	// One load path: a trace header plus its events, read back from a
	// recording or generated from the one spec this run names.
	var h workload.Header
	var events []workload.Event
	if *replayPath != "" {
		if *workloadPath != "" || *recordPath != "" {
			return errors.New("fleetbench: -replay is exclusive with -workload and -record")
		}
		if h, events, err = workload.ReadTraceFile(*replayPath); err != nil {
			return err
		}
	} else {
		var spec *workload.Spec
		if *workloadPath != "" {
			spec, err = workload.Load(*workloadPath)
		} else if spec, err = workload.Classic(*seed, *rps, *horizon); err != nil {
			err = fmt.Errorf("fleetbench: -rps %v over -horizon %s: %w", *rps, *horizon, err)
		}
		if err != nil {
			return err
		}
		events = spec.Generate()
		h = spec.TraceHeader(len(events))
		if *recordPath != "" {
			if err := workload.WriteTraceFile(*recordPath, h, events); err != nil {
				return err
			}
			fmt.Printf("recorded %d events to %s\n", len(events), *recordPath)
		}
	}
	if len(events) == 0 {
		// cluster.Config reads an empty sequence as "the default load".
		return fmt.Errorf("fleetbench: workload %q has no arrivals within its %s horizon", h.Name, time.Duration(h.HorizonNS))
	}
	cfg.Arrivals = events
	cfg.Classes = h.ClassNames()
	cfg.Budgets = h.Budgets()
	cfg.WorkloadName = h.Name
	cfg.Horizon = time.Duration(h.HorizonNS)

	var doc bench.Doc
	if *compare {
		clash := ""
		fs.Visit(func(f *flag.Flag) {
			if f.Name == "csv" || f.Name == "json" || f.Name == "policy" {
				clash = f.Name
			}
		})
		if clash != "" {
			return fmt.Errorf("fleetbench: -compare runs every policy and writes only -bench-json; it cannot take -%s", clash)
		}
		if doc, err = runCompare(cfg); err != nil {
			return err
		}
	} else {
		if cfg.Policy, err = cluster.ParsePolicy(*policy); err != nil {
			return err
		}
		if doc, err = runOne(cfg, *csvPath, *jsonPath); err != nil {
			return err
		}
	}
	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, doc); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return nil
}

// runOne executes one campaign, prints its report, writes the window
// series and the JSON report where asked, and returns its bench document.
func runOne(cfg cluster.Config, csvPath, jsonPath string) (bench.Doc, error) {
	start := time.Now()
	c, err := boot(cfg)
	if err != nil {
		return bench.Doc{}, err
	}
	defer c.Close()
	r := c.Run()
	r.Render(os.Stdout)
	fmt.Printf("wall clock: %.2fs\n", time.Since(start).Seconds())

	doc := bench.New("fleetbench", benchParams(r))
	addBench(&doc, "", r)
	if err := writeOut(csvPath, func(w io.Writer) error { return timeseries.WriteCSV(w, c.Segments()) }); err != nil {
		return doc, err
	}
	return doc, writeOut(jsonPath, r.WriteJSON)
}

// boot boots the fleet. The flags have been parsed by now, so what
// cluster.Boot can still refuse is a storm the members cannot be struck
// by: a victim they do not guard.
func boot(cfg cluster.Config) (*cluster.Cluster, error) {
	c, err := cluster.Boot(cfg)
	if err != nil {
		return nil, fmt.Errorf("fleetbench: -storm %s: %w", cfg.Storm, err)
	}
	return c, nil
}

// writeOut writes what write produces to path and reports it on stdout;
// an empty path (the flag was not given) writes nothing.
func writeOut(path string, write func(io.Writer) error) error {
	if path == "" {
		return nil
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s\n", path)
	return nil
}

// benchParams are what selects a campaign; -compare drops the policy,
// which is what it varies.
func benchParams(r *cluster.Report) map[string]string {
	params := map[string]string{
		"nodes":   strconv.Itoa(r.Nodes),
		"seed":    strconv.FormatInt(r.Seed, 10),
		"policy":  r.Policy,
		"storm":   r.Storm,
		"horizon": r.Horizon.String(),
		"window":  r.Window.String(),
	}
	if r.Workload != "" {
		params["workload"] = r.Workload
	}
	return params
}

// addBench appends one campaign's metrics under prefix: the fleet-wide
// summary, then every class under "class/<name>/". Request latencies
// include retry penalties and mid-recovery reroutes.
func addBench(doc *bench.Doc, prefix string, r *cluster.Report) {
	doc.Count(prefix+"windows", r.Windows)
	doc.Add(prefix+"availability_pct", r.AvailabilityPct, "%", bench.Higher)
	doc.Add(prefix+"node_availability_pct", r.NodeAvailabilityPct, "%", bench.Higher)
	doc.Count(prefix+"requests", int(r.Requests))
	doc.Count(prefix+"completed", int(r.Completed))
	doc.Count(prefix+"reroutes", int(r.Reroutes))
	doc.Latency(prefix+"request", r.Latency)
	doc.Count(prefix+"kills", r.Kills)
	doc.Count(prefix+"injections", r.Injections)
	doc.Count(prefix+"crashes", r.Crashes)
	doc.Count(prefix+"recovered", r.Recovered)
	doc.Count(prefix+"gave_up", r.GaveUp)
	doc.Add(prefix+"recovered_pct", r.RecoveredPct, "%", bench.Higher)
	doc.Count(prefix+"max_recovery_overlap", r.MaxRecoveryOverlap)
	doc.Add(prefix+"mean_recovery_overlap", r.MeanRecoveryOverlap, "nodes", bench.Lower)
	for _, cr := range r.Classes {
		key := prefix + "class/" + cr.Class + "/"
		doc.Add(key+"availability_pct", cr.AvailabilityPct, "%", bench.Higher)
		doc.Add(key+"node_availability_pct", cr.NodeAvailabilityPct, "%", bench.Higher)
		doc.Latency(key+"request", cr.Latency)
		if cr.SLO != nil { // only classes with a declared budget
			doc.Add(key+"slo_budget_ms", float64(cr.SLO.Budget)/1e6, "virt_ms", bench.Lower)
			doc.Add(key+"slo_attained_pct", cr.SLO.AttainedPct, "%", bench.Higher)
			doc.Add(key+"slo_window_pct", cr.SLO.WindowPct, "%", bench.Higher)
		}
	}
}

// runCompare executes the same storm under every routing policy, prints
// the side-by-side table the acceptance campaign reads and returns the
// runs as one bench document, one "policy/<name>/" group each.
func runCompare(cfg cluster.Config) (bench.Doc, error) {
	fmt.Printf("fleet policy comparison: %d nodes, seed %d, storm %s\n\n",
		cfg.Nodes, cfg.Seed, cfg.Storm)
	fmt.Printf("%-14s %12s %12s %10s %10s %10s %9s %8s\n",
		"policy", "avail%", "node-avail%", "p50", "p99", "reroutes", "recov%", "gaveup")
	var reports []*cluster.Report
	for _, p := range cluster.Policies() {
		cfg.Policy = p
		c, err := boot(cfg)
		if err != nil {
			return bench.Doc{}, err
		}
		r := c.Run()
		c.Close()
		fmt.Printf("%-14s %12.2f %12.2f %10s %10s %10d %9.1f %8d\n",
			r.Policy, r.AvailabilityPct, r.NodeAvailabilityPct,
			time.Duration(r.Latency.P50).Round(time.Microsecond),
			time.Duration(r.Latency.P99).Round(time.Microsecond),
			r.Reroutes, r.RecoveredPct, r.GaveUp)
		reports = append(reports, r)
	}
	params := benchParams(reports[0])
	delete(params, "policy")
	doc := bench.New("fleetbench", params)
	for _, r := range reports {
		addBench(&doc, "policy/"+r.Policy+"/", r)
	}
	return doc, nil
}
