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
// With -mechanisms, the command instead runs the recovery-mechanism
// comparison: the same Fig. 7 (or 8) configuration once per mechanism
// (respawn, microreboot, standby) with VM-level crash injection, writing
// fig<N>_seed<S>_<mech>.csv per mechanism plus BENCH_recovery.json, the
// paper-style extension table of dip depth and width per mechanism.
//
//	figures                             # both figures, quick defaults
//	figures -fig 7 -seed 11             # the committed golden configuration
//	figures -fig 8 -size 64 -interval 3 # 64 MB read, kill every 3s
//	figures -bench                      # also write BENCH_fig7/8.json
//	figures -fig 7 -size 512 -interval 1,2,4,6,8,10,12,15   # the paper's Fig. 7 sweep
//	figures -fig 7 -size 16 -interval 1 -trace fig7.jsonl   # capture a full trace (summarize with tracestat)
//	figures -mechanisms -seed 11        # recovery-mechanism comparison
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
	if err := run(os.Args[1:]); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return
		}
		fmt.Fprintln(os.Stderr, err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fig := fs.Int("fig", 0, "figure to run: 7 (network), 8 (disk), or 0 for both")
	seed := fs.Int64("seed", 1, "simulation seed")
	sizeMB := fs.Int64("size", 0, "transfer size in MB (default: 64 for fig7, 128 for fig8; the paper's sweeps use 512 and 1024)")
	interval := fs.String("interval", "2", "kill interval in seconds (0 = uninterrupted); a comma list\n(the paper's is 1,2,4,6,8,10,12,15) runs the kill-interval sweep instead")
	window := fs.String("window", "1", "telemetry window width in seconds")
	out := fs.String("out", ".", "output directory")
	doBench := fs.Bool("bench", false, "also write the internal/bench summary: BENCH_fig<N>.json, or BENCH_throughput.json for a sweep")
	mechs := fs.Bool("mechanisms", false, "run the recovery-mechanism comparison instead (writes BENCH_recovery.json)")
	trace := fs.String("trace", "", "write every run's full JSONL event trace to this file (use a small -size; summarize with tracestat)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: figures [-fig 7|8] [-seed n] [-size mb] [-interval s[,s...]] [-window s] [-out dir] [-bench] [-mechanisms] [-trace file]")
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
	figs := []int{cfg.Fig}
	sweep := len(intervals) > 1
	switch {
	case sweep && *mechs:
		return fmt.Errorf("-mechanisms takes a single -interval")
	case cfg.Fig == 0 && (sweep || *mechs):
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
			fmt.Printf("trace written to %s\n", *trace)
			return nil
		}
	}

	for _, cfg.Fig = range figs {
		switch {
		case *mechs:
			err = runMechanisms(cfg, *out)
		case sweep:
			err = runSweep(cfg, intervals, *out, *doBench)
		default:
			err = runFigure(cfg, *out, *doBench)
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
func runSweep(cfg resilientos.FigureConfig, intervals []time.Duration, out string, doBench bool) error {
	points := resilientos.Sweep(cfg, intervals)
	base := points[0]
	if base.Fig == 8 {
		fmt.Printf("Fig. 8: dd %d MB | sha1sum, killing the SATA-class driver\n", base.Size>>20)
		fmt.Printf("(paper: 32.7 MB/s uninterrupted; 12.3 MB/s at 1s kills; 30.5 MB/s at 15s)\n\n")
	} else {
		fmt.Printf("Fig. 7: wget %d MB over TCP, killing the RTL8139-class driver\n", base.Size>>20)
		fmt.Printf("(paper: 10.8 MB/s uninterrupted; 8.1 MB/s at 1s kills; 10.7 MB/s at 15s)\n\n")
	}
	for _, p := range points {
		kind := "uninterrupted"
		if p.Interval > 0 {
			kind = fmt.Sprintf("kill every %v", p.Interval)
		}
		fmt.Printf("%-16s %8.2f MB/s  (%d kills, %d recoveries, %v/kill lost, ok=%v)\n",
			kind, p.MBps, p.Kills, p.Recoveries, p.PerKillLoss(base).Round(time.Millisecond), p.OK)
		if p.Recovery.Count > 0 {
			fmt.Printf("                 recovery latency: %s\n", p.Recovery)
		}
		if err := verdict(p); err != nil {
			return fmt.Errorf("fig%d, %s: %w", p.Fig, kind, err)
		}
	}
	fmt.Println()
	fmt.Println("interval_s  throughput_MBps  relative_loss")
	for _, p := range points[1:] {
		fmt.Printf("%10.0f  %15.2f  %12.0f%%\n",
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
		fmt.Println()
		fmt.Println("recovery latency (defect -> reintegration, virtual time)")
		fmt.Println("interval_s  count  mean_ms   p50_ms   p95_ms   p99_ms   max_ms")
		for _, p := range recovered {
			r := p.Recovery
			fmt.Printf("%10.0f  %5d  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n",
				p.Interval.Seconds(), r.Count, ms(r.Mean), ms(r.P50), ms(r.P95), ms(r.P99), ms(r.Max))
		}
	}
	if doBench {
		path := filepath.Join(out, "BENCH_throughput.json")
		if err := bench.WriteFile(path, resilientos.SweepBenchDoc(points)); err != nil {
			return fmt.Errorf("write %s: %w", path, err)
		}
		fmt.Printf("\nwrote %s\n", path)
	}
	return nil
}

// runMechanisms runs the recovery-mechanism comparison: one identical
// figure run per mechanism with VM-level crash injection, a per-mechanism
// CSV each, and the BENCH_recovery.json document with the standby-depth
// and microreboot-width gains over the respawn baseline.
func runMechanisms(cfg resilientos.FigureConfig, out string) error {
	wallStart := time.Now()
	results, doc := resilientos.RunMechanismComparison(cfg)
	mechs := resilientos.RecoveryMechanisms

	first := results[0]
	fmt.Printf("fig%d recovery mechanisms: %d MB, crash every %v, seed %d (%.1fs wall)\n",
		first.Fig, first.Size>>20, first.Interval, first.Seed, time.Since(wallStart).Seconds())
	fmt.Printf("  %-12s %8s %8s %10s %12s %10s\n",
		"mechanism", "MB/s", "crashes", "depth %", "width ms", "recov %")
	for i, res := range results {
		depth, width := res.MeanDip()
		fmt.Printf("  %-12s %8.2f %8d %10.1f %12.1f %10.1f\n",
			mechs[i], res.MBps, res.Kills, depth, width, res.RecoveredPct)
	}
	depthGain, _ := doc.Value("standby_depth_gain_pct")
	widthGain, _ := doc.Value("micro_width_gain_ms")
	fmt.Printf("  standby depth gain: %.1f pct points, microreboot width gain: %.1f ms\n",
		depthGain, widthGain)

	for i, res := range results {
		var csv bytes.Buffer
		if err := resilientos.WriteFigureCSV(&csv, res); err != nil {
			return err
		}
		path := filepath.Join(out, fmt.Sprintf("fig%d_seed%d_%s.csv",
			res.Fig, res.Seed, mechs[i]))
		if err := os.WriteFile(path, csv.Bytes(), 0o644); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", res.Fig, path, err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	path := filepath.Join(out, "BENCH_recovery.json")
	if err := bench.WriteFile(path, doc); err != nil {
		return fmt.Errorf("write %s: %w", path, err)
	}
	fmt.Printf("  wrote %s\n", path)

	for i, res := range results {
		if err := verdict(res); err != nil {
			return fmt.Errorf("fig%d %s: %w", res.Fig, mechs[i], err)
		}
	}
	return nil
}

func runFigure(cfg resilientos.FigureConfig, out string, doBench bool) error {
	wallStart := time.Now()
	res := resilientos.RunFigure(cfg)
	wall := time.Since(wallStart)

	fmt.Printf("fig%d: %d MB via %s, kill every %v, seed %d\n",
		res.Fig, res.Size>>20, res.Driver, res.Interval, res.Seed)
	fmt.Printf("  %.2f MB/s end to end over %v virtual (%d kills, ok=%v, %.1fs wall)\n",
		res.MBps, res.Duration.Round(time.Millisecond), res.Kills, res.OK, wall.Seconds())
	fmt.Printf("  windows: %d, baseline %.2f MB/s, min %.2f, recovered %.1f%% of baseline\n",
		len(res.Points), res.BaselineMBps, res.MinMBps, res.RecoveredPct)
	for i, d := range res.Dips {
		state := fmt.Sprintf("recovered to %.2f MB/s (%.1f%%)", d.RecoveredMBps, d.RecoveredPct)
		if d.Truncated {
			state = "truncated (transfer or next kill before recovery window)"
		}
		fmt.Printf("  dip %d: kill at %v, depth %.1f%%, width %v, %s\n",
			i, d.Kill, d.DepthPct, d.Width, state)
	}
	if res.Recovery.Count > 0 {
		fmt.Printf("  recovery latency: %s\n", res.Recovery)
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
		fmt.Printf("  wrote %s\n", f.path)
	}
	if doBench {
		path := filepath.Join(out, fmt.Sprintf("BENCH_fig%d.json", res.Fig))
		if err := bench.WriteFile(path, res.BenchDoc()); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", res.Fig, path, err)
		}
		fmt.Printf("  wrote %s\n", path)
	}
	fmt.Println()

	if err := verdict(res); err != nil {
		return fmt.Errorf("fig%d: %w", res.Fig, err)
	}
	return nil
}
