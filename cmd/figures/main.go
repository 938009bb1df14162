// Command figures reproduces the paper's Fig. 7 (TCP transfer under
// periodic network-driver kills) and Fig. 8 (disk read under periodic
// block-driver kills) as data: a windowed virtual-time throughput curve
// with per-kill dips, dip depth/width analysis, and the
// recovered-throughput ratio, emitted as byte-reproducible CSV plus a
// self-contained SVG render. For a fixed -seed two runs produce identical
// bytes (stdout included), so the outputs double as golden files.
//
// Every invocation runs one list per figure: a baseline followed by zero
// or more variants. One -interval value is a list of one run. Several are
// the paper's kill-interval sweep: the uninterrupted transfer, then one
// run per interval. -override <system spec> (repeatable) is the baseline
// at the one interval, then one run per spec, all with crashes injected
// into the driver's VM. A variant that received other bytes than the
// baseline fails. The command prints one row per run (MB/s, kills,
// per-kill loss, dip depth and width against the baseline, recovered
// throughput, recovery latency) with the run's dips under it.
//
// Each run writes fig<N>_seed<S>[_<name>].{csv,svg} and
// fig<N>_seed<S>[_<name>]_windows.csv (the raw window series: counters,
// event kinds, annotations, per-service status) into -out. A list of one
// run has no name; in a longer one the runs are named baseline,
// interval=<d> or the override's knobs. With -bench the list's
// internal/bench document is written too: BENCH_fig<N>.json for one run,
// BENCH_throughput.json for a sweep, BENCH_recovery.json for overrides,
// the last two filing each run's metrics under baseline/, interval/<d>/
// or override/<knobs>/ (as faultbench -override groups them).
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
		Fig:    *fig,
		Size:   *sizeMB << 20,
		System: resilientos.Config{Seed: *seed},
	}
	if cfg.Window, err = parseSeconds(*window); err != nil {
		return fmt.Errorf("-window: %w", err)
	}
	figs := []int{cfg.Fig}
	switch {
	case cfg.Fig == 0 && (len(intervals) > 1 || len(overrides) > 0):
		figs = []int{7} // a sweep or a comparison is a single-figure table; default to the network one
	case cfg.Fig == 0:
		figs = []int{7, 8}
	}
	// Every list is built before anything runs: a typo costs no run.
	var lists []runList
	for _, cfg.Fig = range figs {
		l, err := buildList(cfg, intervals, overrides)
		if err != nil {
			return err
		}
		lists = append(lists, l)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}
	var sink obs.Sink
	traceDone := func() error { return nil }
	if *trace != "" {
		f, err := os.Create(*trace)
		if err != nil {
			return err
		}
		bw := bufio.NewWriterSize(f, 1<<20)
		js := obs.NewJSONLSink(bw)
		sink = js
		traceDone = func() error {
			if err := errors.Join(js.Err(), bw.Flush(), f.Close()); err != nil {
				return err
			}
			fmt.Fprintf(stdout, "trace written to %s\n", *trace)
			return nil
		}
	}

	for _, l := range lists {
		for i := range l.runs {
			l.runs[i].Trace = sink
		}
		if err = l.run(stdout, *out, *doBench); err != nil {
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

// runList is one figure's run list: a baseline followed by zero or more
// variants, each with the suffix of its file names and the prefix of its
// metrics in a bench document of several runs.
type runList struct {
	runs        []resilientos.FigureConfig
	names, keys []string
	source      string // the bench document's source
	bench       string // and its file name
}

func (l *runList) add(name, key string, cfg resilientos.FigureConfig) {
	l.runs = append(l.runs, cfg)
	l.names = append(l.names, name)
	l.keys = append(l.keys, key)
}

// buildList is the one place the mode is decided. Overrides are the
// baseline at the one interval plus one run per spec, all with crashes
// injected into the driver's VM; several intervals are the uninterrupted
// baseline plus one run per interval; anything else is the one run.
func buildList(cfg resilientos.FigureConfig, intervals []time.Duration, overrides []string) (runList, error) {
	cfg.Interval = intervals[0]
	switch {
	case len(overrides) > 0:
		l := runList{source: "figures -override", bench: "BENCH_recovery.json"}
		cfg.CrashVM = true
		l.add("baseline", "baseline", cfg)
		for _, ov := range overrides {
			v := cfg
			var err error
			if v.System, err = cfg.System.Override(ov); err != nil {
				return l, fmt.Errorf("-override: %v", err)
			}
			name := strings.ReplaceAll(ov, " ", "")
			l.add(name, "override/"+strings.ReplaceAll(name, ",", "/"), v)
		}
		if len(intervals) > 1 {
			return l, errors.New("-override takes a single -interval")
		}
		return l, nil
	case len(intervals) > 1:
		l := runList{source: "figures -interval", bench: "BENCH_throughput.json"}
		cfg.Interval = 0
		l.add("baseline", "baseline", cfg)
		for _, cfg.Interval = range intervals {
			l.add("interval="+cfg.Interval.String(), "interval/"+cfg.Interval.String(), cfg)
		}
		return l, nil
	default:
		l := runList{source: "figures", bench: fmt.Sprintf("BENCH_fig%d.json", cfg.Fig)}
		l.add("baseline", "baseline", cfg)
		return l, nil
	}
}

// paper is what the paper reports for each figure's sweep.
var paper = map[int]string{
	7: "paper, 512 MB: 10.8 MB/s uninterrupted; 8.1 MB/s at 1s kills; 10.7 MB/s at 15s",
	8: "paper, 1 GB: 32.7 MB/s uninterrupted; 12.3 MB/s at 1s kills; 30.5 MB/s at 15s",
}

// run runs the list and prints one row per run with its dips under it,
// writes every run's curve files and, with doBench, the list's bench
// document, then fails on the first run that is not sound. Nothing it
// prints depends on the host, so two runs print the same bytes.
func (l runList) run(w io.Writer, out string, doBench bool) error {
	results := resilientos.RunFigures(l.runs)
	base := results[0]
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Fprintf(w, "fig%d: %d MB via %s, seed %d (%s)\n  baseline: %s\n",
		base.Fig, base.Size>>20, base.Driver, base.Seed, paper[base.Fig], l.runs[0].System.Spec())
	fmt.Fprintf(w, "  %-24s %6s %8s %6s %9s %8s %7s %9s %8s %8s %7s %7s %5s\n", "run", "every",
		"MB/s", "kills", "loss/kill", "depth %", "Δdepth", "width ms", "Δwidth", "recov %", "p50 ms", "p95 ms", "ok")
	baseDepth, baseWidth := base.MeanDip()
	for i, res := range results {
		every, dDepth, dWidth, p50, p95 := "-", "-", "-", "-", "-"
		if res.Interval > 0 {
			every = res.Interval.String()
		}
		depth, width := res.MeanDip()
		if i > 0 {
			dDepth, dWidth = fmt.Sprintf("%+.1f", depth-baseDepth), fmt.Sprintf("%+.1f", width-baseWidth)
		}
		if res.Recovery.Count > 0 {
			p50, p95 = fmt.Sprintf("%.1f", ms(res.Recovery.P50)), fmt.Sprintf("%.1f", ms(res.Recovery.P95))
		}
		fmt.Fprintf(w, "  %-24s %6s %8.2f %6d %9s %8.1f %7s %9.1f %8s %8.1f %7s %7s %5v\n",
			l.names[i], every, res.MBps, res.Kills, res.PerKillLoss(base).Round(time.Millisecond),
			depth, dDepth, width, dWidth, res.RecoveredPct, p50, p95, res.OK)
		for j, d := range res.Dips {
			state := fmt.Sprintf("recovered to %.2f MB/s (%.1f%%)", d.RecoveredMBps, d.RecoveredPct)
			if d.Truncated {
				state = "truncated (transfer or next kill before recovery window)"
			}
			fmt.Fprintf(w, "    dip %d: kill at %v, depth %.1f%%, width %v, %s\n", j, d.Kill, d.DepthPct, d.Width, state)
		}
	}

	for i, res := range results {
		stem := fmt.Sprintf("fig%d_seed%d", res.Fig, res.Seed)
		if len(results) > 1 {
			stem += "_" + l.names[i]
		}
		stem = filepath.Join(out, stem)
		var csv, svg, raw bytes.Buffer
		err := errors.Join(resilientos.WriteFigureCSV(&csv, res), resilientos.WriteFigureSVG(&svg, res),
			timeseries.WriteCSV(&raw, res.Segments))
		if err != nil {
			return err
		}
		for _, f := range []struct {
			path string
			data []byte
		}{{stem + ".csv", csv.Bytes()}, {stem + ".svg", svg.Bytes()}, {stem + "_windows.csv", raw.Bytes()}} {
			if err := os.WriteFile(f.path, f.data, 0o644); err != nil {
				return fmt.Errorf("fig%d: write %s: %w", res.Fig, f.path, err)
			}
			fmt.Fprintf(w, "  wrote %s\n", f.path)
		}
	}
	if doBench {
		path := filepath.Join(out, l.bench)
		doc := resilientos.FiguresBenchDoc(l.source, l.runs[0].System.Spec(), l.keys, results)
		if err := bench.WriteFile(path, doc); err != nil {
			return fmt.Errorf("fig%d: write %s: %w", base.Fig, path, err)
		}
		fmt.Fprintf(w, "  wrote %s\n", path)
	}
	fmt.Fprintln(w)

	for i, res := range results {
		if err := verdict(res, base); err != nil {
			return fmt.Errorf("fig%d %s: %w", res.Fig, l.names[i], err)
		}
	}
	return nil
}

// verdict is the error a finished run makes the command exit with, nil
// for a sound one.
func verdict(res, base resilientos.FigureResult) error {
	switch {
	case res.Violation != nil:
		return fmt.Errorf("window series invariant violated: %w", res.Violation)
	case res.OK:
		return nil
	case res.Duration == 0:
		return errors.New("transfer did not complete within the horizon (kill interval below recovery time?)")
	case res.Bytes == res.Size && res.Digest != base.Digest:
		return fmt.Errorf("transfer received other bytes than the baseline (digest %s, baseline %s)", res.Digest, base.Digest)
	default:
		return fmt.Errorf("transfer failed integrity check (%d of %d bytes)", res.Bytes, res.Size)
	}
}
