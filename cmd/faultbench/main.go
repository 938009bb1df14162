// Command faultbench runs software fault-injection campaigns against the
// simulated OS.
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
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"time"

	"resilientos/internal/bench"
	"resilientos/internal/campaign"
	"resilientos/internal/obs"
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

func run(args []string, stdout io.Writer) error {
	fs := flag.NewFlagSet("faultbench", flag.ContinueOnError)
	matrix := fs.String("matrix", "", campaign.SpecUsage)
	invariants := fs.Bool("invariants", false, "run the live invariant checker in every cell")
	traceTail := fs.Int("trace-tail", 32, "trace events kept per cell for violation repro dumps")
	quiet := fs.Bool("q", false, "suppress per-cell progress")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	cfg, err := campaign.ParseSpec(*matrix)
	if err != nil {
		return fmt.Errorf("-matrix: %v", err)
	}
	cfg.Invariants = *invariants
	cfg.TraceTail = *traceTail
	if !*quiet {
		cfg.Progress = func(done, total int) {
			fmt.Fprintf(os.Stderr, "  ... cell %d/%d\n", done, total)
		}
	}

	start := time.Now()
	rep := campaign.Run(cfg)
	rep.Render(stdout)
	wall := time.Since(start)
	fmt.Fprintf(stdout, "\nwall clock: %v\n", wall.Round(time.Millisecond))
	if *benchJSON != "" {
		if err := bench.WriteFile(*benchJSON, benchDoc(rep)); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perf baseline written to %s\n", *benchJSON)
	}
	if !rep.Ok() {
		return fmt.Errorf("campaign surfaced %d invariant violation(s)", len(rep.Violations))
	}
	return nil
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
	if rep.Config.System.Machine.NICConfuseProb > 0 {
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
