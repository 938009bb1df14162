// Command figures reproduces the paper's Fig. 7 (TCP transfer under
// periodic network-driver kills) and Fig. 8 (disk read under periodic
// block-driver kills) as data: a windowed virtual-time throughput curve
// with per-kill dips, dip depth/width analysis, and the
// recovered-throughput ratio, emitted as byte-reproducible CSV + JSON
// plus a self-contained SVG render. For a fixed -seed two runs produce
// identical CSV/JSON/SVG bytes, so the outputs double as golden files.
//
// Output files land in -out, named fig<N>_seed<S>.{csv,json,svg} plus
// fig<N>_seed<S>_windows.csv (the raw window series: counters, event
// kinds, annotations, per-service status). With -bench, the per-figure
// summary is also written as BENCH_fig<N>.json (internal/bench document,
// as byte-reproducible as the rest).
//
// With several -interval values, the command instead runs the paper's
// kill-interval sweep — the uninterrupted transfer, then one run per
// interval — and prints throughput, relative loss and the recovery-latency
// distribution (defect to reintegration, virtual time) per interval;
// -bench then writes BENCH_throughput.json.
//
// With -override <system spec> (repeatable), the command instead runs
// the figure as the baseline and once more per override, all with
// VM-level crash injection, prints one row per run, and writes
// fig<N>_seed<S>_<baseline|knobs>.csv and, with -bench,
// BENCH_recovery.json (baseline/… and override/<knobs>/…, as faultbench
// -override groups them).
//
//	figures                             # both figures, quick defaults
//	figures -fig 7 -seed 11             # the committed golden configuration
//	figures -fig 8 -size 64 -interval 3 # 64 MB read, kill every 3s
//	figures -bench                      # also write BENCH_fig7/8.json
//	figures -fig 7 -size 512 -interval 1,2,4,6,8,10,12,15   # the paper's Fig. 7 sweep
//	figures -fig 7 -size 16 -interval 1 -trace fig7.jsonl   # capture a full trace (summarize with tracestat)
//	figures -seed 11 -size 32 -interval 1 -override mech=microreboot -override mech=standby -bench
//
// Exit status is non-zero if a transfer fails its integrity check or never
// completes, the window series violates its structural invariants, or any
// output file cannot be written.
package main

import (
	"bufio"
	"bytes"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/bench"
	"resilientos/internal/obs"
	"resilientos/internal/obs/timeseries"
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
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to run: 7 (network), 8 (disk), or 0 for both")
	seed := fs.Int64("seed", 1, "simulation seed")
	sizeMB := fs.Int64("size", 0, "transfer size in MB (default: 64 for fig7, 128 for fig8; the paper's sweeps use 512 and 1024)")
	interval := fs.String("interval", "2", "kill interval in seconds (0 = uninterrupted); a comma list\n(the paper's is 1,2,4,6,8,10,12,15) runs the kill-interval sweep instead")
	window := fs.String("window", "1", "telemetry window width in seconds")
	out := fs.String("out", ".", "output directory")
	doBench := fs.Bool("bench", false, "also write the internal/bench summary: BENCH_fig<N>.json, or BENCH_throughput.json for a sweep")
	var overrides []string
	fs.Func("override", "system `spec` to compare against the baseline, e.g. mech=microreboot (repeatable): runs the figure\n"+
		"again under each, crashes injected into the driver's VM (-bench: BENCH_recovery.json); comma-separated key=value:\n"+resilientos.SpecUsage,
		func(spec string) error { overrides = append(overrides, spec); return nil })
	trace := fs.String("trace", "", "write every run's full JSONL event trace to this file (use a small -size; summarize with tracestat)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: figures [-fig 7|8] [-seed n] [-size mb] [-interval s[,s...]] [-window s] [-out dir] [-bench] [-override spec]... [-trace file]")
	}
	if *fig != 0 && *fig != 7 && *fig != 8 {
		return fmt.Errorf("unknown figure %d (want 7 or 8)", *fig)
	}
	intervals, err := parseIntervals(*interval)
	if err != nil {
		return fmt.Errorf("-interval: %w", err)
	}
	cfg := resilientos.FigureConfig{
		Fig:      *fig,
		Size:     *sizeMB << 20,
		Interval: intervals[0],
		System:   resilientos.Config{Seed: *seed},
	}
	if cfg.Window, err = parseSeconds(*window); err != nil {
		return fmt.Errorf("-window: %w", err)
	}
	// Every override is parsed before anything runs: a typo costs no run.
	variants := []variant{{name: "baseline", system: cfg.System}}
	for _, ov := range overrides {
		sys, err := cfg.System.Override(ov)
		if err != nil {
			return fmt.Errorf("-override: %v", err)
		}
		variants = append(variants, variant{name: strings.ReplaceAll(ov, " ", ""), system: sys})
	}
	compare := len(variants) > 1
	figs := []int{cfg.Fig}
	sweep := len(intervals) > 1
	switch {
	case sweep && compare:
		return fmt.Errorf("-override takes a single -interval")
	case cfg.Fig == 0 && (sweep || compare):
		figs = []int{7} // a sweep or a comparison is a single-figure table; default to the network one
	case cfg.Fig == 0:
		figs = []int{7, 8}
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	traceDone := func() error { return nil }
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		js := obs.NewJSONLSink(bw)
		cfg.Trace = js
		traceDone = func() error {
			if err := errors.Join(js.Err(), bw.Flush(), f.Close()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *trace)
			return nil
		}
	}

	for _, cfg.Fig = range figs {
		switch {
		case compare:
			err = runOverrides(stdout, cfg, variants, *out, *doBench)
		case sweep:
			err = runSweep(stdout, cfg, intervals, *out, *doBench)
		default:
			err = runFigure(stdout, cfg, *out, *doBench)
		}
		if err != nil {
			break
		}
	}
	return errors.Join(err, traceDone())
}

// parseIntervals parses a comma-separated list of kill intervals in
// seconds; the error names the offending item.
func parseIntervals(list string) ([]time.Duration, error) {
	var intervals []time.Duration
	for _, item := range strings.Split(list, ",") {
		d, err := parseSeconds(item)
		if err != nil {
			return nil, err
		}
		intervals = append(intervals, d)
	}
	return intervals, nil
}

// parseSeconds parses one flag value in seconds: 0, or a finite positive
// number that rounds to at least one whole nanosecond.
func parseSeconds(item string) (time.Duration, error) {
	v, err := strconv.ParseFloat(strings.TrimSpace(item), 64)
	ns := math.Round(v * float64(time.Second))
	if err != nil || math.IsNaN(v) || v < 0 || (v > 0 && ns < 1) || ns >= math.MaxInt64 {
		return 0, fmt.Errorf("bad value %q (want seconds: 0 or a positive finite number)", item)
	}
	return time.Duration(ns), nil
}

// verdict is the error a finished run makes the command exit with, nil
// for a sound one.
func verdict(res resilientos.FigureResult) error {
	switch {
	case res.Violation != nil:
		return fmt.Errorf("window series invariant violated: %w", res.Violation)
	case res.OK:
		return nil
	case res.Duration == 0:
		return errors.New("transfer did not complete within the horizon (kill interval below recovery time?)")
	default:
		return fmt.Errorf("transfer failed integrity check (%d of %d bytes)", res.Bytes, res.Size)
	}
}

// runSweep runs the kill-interval sweep and prints one row per point,
// then the throughput-vs-interval and recovery-latency tables.
func runSweep(w io.Writer, cfg resilientos.FigureConfig, intervals []time.Duration, out string, doBench bool) error {
	points := resilientos.Sweep(cfg, intervals)
	base := points[0]
	if base.Fig == 8 {
		fmt.Fprintf(w, "Fig. 8: dd %d MB | sha1sum, killing the SATA-class driver\n", base.Size>>20)
		fmt.Fprintf(w, "(paper: 32.7 MB/s uninterrupted; 12.3 MB/s at 1s kills; 30.5 MB/s at 15s)\n\n")
	} else {
		fmt.Fprintf(w, "Fig. 7: wget %d MB over TCP, killing the RTL8139-class driver\n", base.Size>>20)
		fmt.Fprintf(w, "(paper: 10.8 MB/s uninterrupted; 8.1 MB/s at 1s kills; 10.7 MB/s at 15s)\n\n")
	}
	for _, p := range points {
		kind := "uninterrupted"
		if p.Interval > 0 {
			kind = fmt.Sprintf("kill every %v", p.Interval)
		}
		fmt.Fprintf(w, "%-16s %8.2f MB/s  (%d kills, %d recoveries, %v/kill lost, ok=%v)\n",
			kind, p.MBps, p.Kills, p.Recoveries, p.PerKillLoss(base).Round(time.Millisecond), p.OK)
		if p.Recovery.Count > 0 {
			fmt.Fprintf(w, "                 recovery latency: %s\n", p.Recovery)
		}
		if err := verdict(p); err != nil {
			return fmt.Errorf("fig%d, %s: %w", p.Fig, kind, err)
		}
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, "interval_s  throughput_MBps  relative_loss")
	for _, p := range points[1:] {
		fmt.Fprintf(w, "%10.0f  %15.2f  %12.0f%%\n",
			p.Interval.Seconds(), p.MBps, 100*(1-p.MBps/base.MBps))
	}
	var recovered []resilientos.FigureResult
	for _, p := range points {
		if p.Recovery.Count > 0 {
			recovered = append(recovered, p)
		}
	}
	if len(recovered) > 0 {
		ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
		fmt.Fprintln(w)
		fmt.Fprintln(w, "recovery latency (defect -> reintegration, virtual time)")
		fmt.Fprintln(w, "interval_s  count  mean_ms   p50_ms   p95_ms   p99_ms   max_ms")
		for _, p := range recovered {
			r := p.Recovery
			fmt.Fprintf(w, "%10.0f  %5d  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n",
				p.Interval.Seconds(), r.Count, ms(r.Mean), ms(r.P50), ms(r.P95), ms(r.P99), ms(r.Max))
		}
	}
	if doBench {
		path := filepath.Join(out, "BENCH_throughput.json")
		if err := bench.WriteFile(path, resilientos.SweepBenchDoc(points)); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(w, "\nwrote %s\n", path)
	}
	return nil
}

// variant is one run of an -override comparison.
type variant struct {
	name   string // "baseline", or the override's knobs
	system resilientos.Config
}

// runOverrides runs the figure once per variant with VM-level crash
// injection, prints each run's dip against the baseline's, and writes one
// CSV per run and, with doBench, the comparison document.
func runOverrides(w io.Writer, cfg resilientos.FigureConfig, variants []variant, out string, doBench bool) error {
	results := make([]resilientos.FigureResult, len(variants))
	for i, v := range variants {
		cfg.System, cfg.CrashVM = v.system, true
		results[i] = resilientos.RunFigure(cfg)
	}
	base := results[0]
	baseDepth, baseWidth := base.MeanDip()
	fmt.Fprintf(w, "fig%d overrides: %d MB, crash every %v, seed %d\n  baseline: %s\n",
		base.Fig, base.Size>>20, base.Interval, base.Seed, variants[0].system.Spec())
	fmt.Fprintf(w, "  %-24s %8s %8s %10s %10s %12s %10s %10s\n",
		"variant", "MB/s", "crashes", "depth %", "Δdepth", "width ms", "Δwidth", "recov %")
	params := base.BenchDoc().Params
	params["spec"] = variants[0].system.Spec()
	doc := bench.New("figures -override", params)
	for i, res := range results {
		depth, width := res.MeanDip()
		dDepth, dWidth, key := "-", "-", "baseline/"
		if i > 0 {
			dDepth, dWidth = fmt.Sprintf("%+.1f", depth-baseDepth), fmt.Sprintf("%+.1f", width-baseWidth)
			key = "override/" + strings.ReplaceAll(variants[i].name, ",", "/") + "/"
		}
		fmt.Fprintf(w, "  %-24s %8.2f %8d %10.1f %10s %12.1f %10s %10.1f\n",
			variants[i].name, res.MBps, res.Kills, depth, dDepth, width, dWidth, res.RecoveredPct)
		for _, m := range res.BenchDoc().Metrics {
			doc.Add(key+m.Name, m.Value, m.Unit, m.Better)
		}
	}

	for i, res := range results {
		var csv bytes.Buffer
		if err := resilientos.WriteFigureCSV(&csv, res); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("fig%d_seed%d_%s.csv", res.Fig, res.Seed, variants[i].name))
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", res.Fig, path, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	if doBench {
		path := filepath.Join(out, "BENCH_recovery.json")
		if err := bench.WriteFile(path, doc); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	for i, res := range results {
		if err := verdict(res); err != nil {
			return fmt.Errorf("fig%d %s: %w", res.Fig, variants[i].name, err)
		}
	}
	return nil
}

func runFigure(w io.Writer, cfg resilientos.FigureConfig, out string, doBench bool) error {
	wallStart := time.Now()
	res := resilientos.RunFigure(cfg)
	wall := time.Since(wallStart)

	fmt.Fprintf(w, "fig%d: %d MB via %s, kill every %v, seed %d\n",
		res.Fig, res.Size>>20, res.Driver, res.Interval, res.Seed)
	fmt.Fprintf(w, "  %.2f MB/s end to end over %v virtual (%d kills, ok=%v, %.1fs wall)\n",
		res.MBps, res.Duration.Round(time.Millisecond), res.Kills, res.OK, wall.Seconds())
	fmt.Fprintf(w, "  windows: %d, baseline %.2f MB/s, min %.2f, recovered %.1f%% of baseline\n",
		len(res.Points), res.BaselineMBps, res.MinMBps, res.RecoveredPct)
	for i, d := range res.Dips {
		state := fmt.Sprintf("recovered to %.2f MB/s (%.1f%%)", d.RecoveredMBps, d.RecoveredPct)
		if d.Truncated {
			state = "truncated (transfer or next kill before recovery window)"
		}
		fmt.Fprintf(w, "  dip %d: kill at %v, depth %.1f%%, width %v, %s\n",
			i, d.Kill, d.DepthPct, d.Width, state)
	}
	if res.Recovery.Count > 0 {
		fmt.Fprintf(w, "  recovery latency: %s\n", res.Recovery)
	}

	stem := filepath.Join(out, fmt.Sprintf("fig%d_seed%d", res.Fig, res.Seed))
	var csv, doc, svg, raw bytes.Buffer
	if err := resilientos.WriteFigureCSV(&csv, res); err != nil {
		return err
	}
	if err := resilientos.WriteFigureJSON(&doc, res); err != nil {
		return err
	}
	if err := resilientos.WriteFigureSVG(&svg, res); err != nil {
		return err
	}
	if err := timeseries.WriteCSV(&raw, res.Segments); err != nil {
		return err
	}
	for _, f := range []struct {
		path string
		data []byte
	}{
		{stem + ".csv", csv.Bytes()},
		{stem + ".json", doc.Bytes()},
		{stem + ".svg", svg.Bytes()},
		{stem + "_windows.csv", raw.Bytes()},
	} {
		if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", res.Fig, f.path, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", f.path)
	}
	if doBench {
		path := filepath.Join(out, fmt.Sprintf("BENCH_fig%d.json", res.Fig))
		if err := bench.WriteFile(path, res.BenchDoc()); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", res.Fig, path, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	fmt.Fprintln(w)

	if err := verdict(res); err != nil {
		return fmt.Errorf("fig%d: %w", res.Fig, err)
	}
	return nil
}
