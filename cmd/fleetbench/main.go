// Command fleetbench simulates a fleet of resilient operating systems
// behind a load balancer and measures what driver-level recovery buys a
// replicated service under fault storms (internal/cluster).
//
// Every node is a full simulated OS — microkernel, reincarnation server,
// drivers — advanced in lockstep virtual time; a fleet-level event loop
// routes synthetic requests with a pluggable policy while the storm
// driver kills (or SWIFI-mutates) the same driver on several nodes at
// once, or Poisson-faults nodes independently. Output is
// byte-reproducible from -seed for any -workers value.
//
// Campaigns can also be workload-driven (internal/workload): a JSON spec
// declares per-class client populations, arrival processes (Poisson,
// Gamma, Weibull, fixed-rate), diurnal rate modulation, sizes, and SLO
// budgets; -record pins the generated arrival sequence as a tracev2
// JSONL file and -replay re-drives exactly that sequence, byte-identical
// for any -workers value.
//
//	fleetbench -nodes 4 -policy failure-aware -storm correlated:eth.rtl8139,k=2,every=1s
//	fleetbench -policy round-robin -storm poisson:disk.sata,mean=800ms,mode=inject
//	fleetbench -compare -storm correlated:eth.rtl8139    # all policies side by side
//	fleetbench -seed 11 -csv fleet.csv -bench-json BENCH_fleet.json
//	fleetbench -workload spec.json -record trace.jsonl   # pin a campaign
//	fleetbench -replay trace.jsonl                       # regression-replay it
package main

import (
	"errors"
	"flag"
	"fmt"
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
	rps := fs.Float64("rps", 200, "fleet-wide request arrival rate per virtual second")
	workers := fs.Int("workers", 1, "node-advance parallelism (output is identical for any value)")
	compare := fs.Bool("compare", false, "run every policy under the same storm and print a comparison table")
	csvPath := fs.String("csv", "", "write the fleet window series (timeseries CSV) to this file")
	jsonPath := fs.String("json", "", "write the full campaign report as JSON to this file")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	workloadPath := fs.String("workload", "",
		"workload spec JSON (internal/workload): declarative per-class arrival\n"+
			"processes, sizes, and SLO budgets; replaces -rps and the built-in\n"+
			"mix, and the spec horizon overrides -horizon")
	recordPath := fs.String("record", "", "write the generated arrival sequence as a tracev2 JSONL trace (requires -workload)")
	replayPath := fs.String("replay", "", "re-drive a recorded tracev2 trace (exclusive with -workload and -record)")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg := cluster.Config{
		Nodes:   *nodes,
		Seed:    *seed,
		Horizon: *horizon,
		Window:  *window,
		RPS:     *rps,
		Workers: *workers,
	}
	st, err := cluster.ParseStorm(*storm)
	if err != nil {
		return err
	}
	cfg.Storm = st

	switch {
	case *replayPath != "" && (*workloadPath != "" || *recordPath != ""):
		return errors.New("fleetbench: -replay is exclusive with -workload and -record")
	case *recordPath != "" && *workloadPath == "":
		return errors.New("fleetbench: -record requires -workload")
	case *workloadPath != "":
		spec, err := workload.Load(*workloadPath)
		if err != nil {
			return err
		}
		events := spec.Generate()
		cfg.Arrivals = events
		cfg.Classes = spec.ClassNames()
		cfg.Budgets = spec.Budgets()
		cfg.WorkloadName = spec.Name
		cfg.Horizon = time.Duration(spec.Horizon)
		if *recordPath != "" {
			if err := workload.WriteTraceFile(*recordPath, spec.TraceHeader(len(events)), events); err != nil {
				return err
			}
			fmt.Printf("recorded %d events to %s\n", len(events), *recordPath)
		}
	case *replayPath != "":
		h, events, err := workload.ReadTraceFile(*replayPath)
		if err != nil {
			return err
		}
		cfg.Arrivals = events
		cfg.Classes = h.ClassNames()
		cfg.Budgets = h.Budgets()
		cfg.WorkloadName = h.Name
		cfg.Horizon = time.Duration(h.HorizonNS)
	}

	if *compare {
		return runCompare(cfg)
	}

	p, err := cluster.ParsePolicy(*policy)
	if err != nil {
		return err
	}
	cfg.Policy = p

	start := time.Now()
	c := cluster.New(cfg)
	defer c.Close()
	r := c.Run()
	r.Render(os.Stdout)
	fmt.Printf("wall clock: %.2fs\n", time.Since(start).Seconds())

	if *csvPath != "" {
		f, err := os.Create(*csvPath)
		if err != nil {
			return err
		}
		if err := timeseries.WriteCSV(f, c.Segments()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *csvPath)
	}
	if *jsonPath != "" {
		f, err := os.Create(*jsonPath)
		if err != nil {
			return err
		}
		if err := r.WriteJSON(f); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *jsonPath)
	}
	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, benchDoc(r)); err != nil {
			return err
		}
		fmt.Printf("wrote %s\n", *benchJSON)
	}
	return nil
}

// benchDoc is the campaign's bench document: what selects the run as
// parameters, the fleet-wide summary, then every class under
// "class/<name>/". Request latencies include retry penalties and
// mid-recovery reroutes.
func benchDoc(r *cluster.Report) bench.Doc {
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
	doc := bench.New("fleetbench", params)
	doc.Count("windows", r.Windows)
	doc.Add("availability_pct", r.AvailabilityPct, "%", bench.Higher)
	doc.Add("node_availability_pct", r.NodeAvailabilityPct, "%", bench.Higher)
	doc.Count("requests", int(r.Requests))
	doc.Count("completed", int(r.Completed))
	doc.Count("reroutes", int(r.Reroutes))
	doc.Latency("request", r.Latency)
	doc.Count("kills", r.Kills)
	doc.Count("injections", r.Injections)
	doc.Count("crashes", r.Crashes)
	doc.Count("recovered", r.Recovered)
	doc.Count("gave_up", r.GaveUp)
	doc.Add("recovered_pct", r.RecoveredPct, "%", bench.Higher)
	doc.Count("max_recovery_overlap", r.MaxRecoveryOverlap)
	doc.Add("mean_recovery_overlap", r.MeanRecoveryOverlap, "nodes", bench.Lower)
	for _, cr := range r.Classes {
		key := "class/" + cr.Class + "/"
		doc.Add(key+"availability_pct", cr.AvailabilityPct, "%", bench.Higher)
		doc.Add(key+"node_availability_pct", cr.NodeAvailabilityPct, "%", bench.Higher)
		doc.Latency(key+"request", cr.Latency)
		if cr.SLO != nil { // only classes with a declared budget
			doc.Add(key+"slo_budget_ms", float64(cr.SLO.Budget)/1e6, "virt_ms", bench.Lower)
			doc.Add(key+"slo_attained_pct", cr.SLO.AttainedPct, "%", bench.Higher)
			doc.Add(key+"slo_window_pct", cr.SLO.WindowPct, "%", bench.Higher)
		}
	}
	return doc
}

// runCompare executes the same storm under every routing policy and
// prints the side-by-side table the acceptance campaign reads.
func runCompare(cfg cluster.Config) error {
	fmt.Printf("fleet policy comparison: %d nodes, seed %d, storm %s\n\n",
		cfg.Nodes, cfg.Seed, cfg.Storm)
	fmt.Printf("%-14s %12s %12s %10s %10s %10s %9s %8s\n",
		"policy", "avail%", "node-avail%", "p50", "p99", "reroutes", "recov%", "gaveup")
	for _, p := range cluster.Policies() {
		c := cfg
		c.Policy = p
		r := cluster.Run(c)
		fmt.Printf("%-14s %12.2f %12.2f %10s %10s %10d %9.1f %8d\n",
			r.Policy, r.AvailabilityPct, r.NodeAvailabilityPct,
			time.Duration(r.Latency.P50).Round(time.Microsecond),
			time.Duration(r.Latency.P99).Round(time.Microsecond),
			r.Reroutes, r.RecoveredPct, r.GaveUp)
	}
	return nil
}
