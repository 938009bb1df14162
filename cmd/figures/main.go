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
//	figures -mechanisms -seed 11        # recovery-mechanism comparison
//
// Exit status is non-zero if a transfer fails its integrity check, the
// window series violates its structural invariants, or any output file
// cannot be written.
package main

import (
	"bytes"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"resilientos"
	"resilientos/internal/bench"
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
	sizeMB := fs.Int64("size", 0, "transfer size in MB (default: 64 for fig7, 128 for fig8)")
	interval := fs.Float64("interval", 2, "kill interval in seconds (0 = uninterrupted)")
	window := fs.Float64("window", 1, "telemetry window width in seconds")
	out := fs.String("out", ".", "output directory")
	doBench := fs.Bool("bench", false, "also write BENCH_fig<N>.json summaries (internal/bench documents)")
	mechs := fs.Bool("mechanisms", false, "run the recovery-mechanism comparison instead (writes BENCH_recovery.json)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() != 0 {
		return fmt.Errorf("usage: figures [-fig 7|8] [-seed n] [-size mb] [-interval s] [-window s] [-out dir] [-bench] [-mechanisms]")
	}

	var figs []int
	switch *fig {
	case 0:
		figs = []int{7, 8}
	case 7, 8:
		figs = []int{*fig}
	default:
		return fmt.Errorf("unknown figure %d (want 7 or 8)", *fig)
	}

	if err := os.MkdirAll(*out, 0o755); err != nil {
		return err
	}

	if *mechs {
		f := *fig
		if f == 0 {
			f = 7 // the comparison is a single-figure table; default to the network one
		}
		return runMechanisms(f, *seed, *sizeMB, *interval, *window, *out)
	}

	for _, f := range figs {
		if err := runFigure(f, *seed, *sizeMB, *interval, *window, *out, *doBench); err != nil {
			return err
		}
	}
	return nil
}

// runMechanisms runs the recovery-mechanism comparison: one identical
// figure run per mechanism with VM-level crash injection, a per-mechanism
// CSV each, and the BENCH_recovery.json document with the standby-depth
// and microreboot-width gains over the respawn baseline.
func runMechanisms(fig int, seed, sizeMB int64, intervalS, windowS float64, out string) error {
	wallStart := time.Now()
	results, doc := resilientos.RunMechanismComparison(resilientos.FigureConfig{
		Fig:      fig,
		Seed:     seed,
		Size:     sizeMB << 20,
		Interval: time.Duration(intervalS * float64(time.Second)),
		Window:   time.Duration(windowS * float64(time.Second)),
	})
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
		if res.Violation != nil {
			return fmt.Errorf("fig%d %s: window series invariant violated: %w",
				res.Fig, mechs[i], res.Violation)
		}
		if !res.OK {
			return fmt.Errorf("fig%d %s: transfer failed integrity check (%d of %d bytes)",
				res.Fig, mechs[i], res.Bytes, res.Size)
		}
	}
	return nil
}

func runFigure(fig int, seed, sizeMB int64, intervalS, windowS float64, out string, doBench bool) error {
	wallStart := time.Now()
	res := resilientos.RunFigure(resilientos.FigureConfig{
		Fig:      fig,
		Seed:     seed,
		Size:     sizeMB << 20,
		Interval: time.Duration(intervalS * float64(time.Second)),
		Window:   time.Duration(windowS * float64(time.Second)),
	})
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

	if res.Violation != nil {
		return fmt.Errorf("fig%d: window series invariant violated: %w", res.Fig, res.Violation)
	}
	if !res.OK {
		return fmt.Errorf("fig%d: transfer failed integrity check (%d of %d bytes)", res.Fig, res.Bytes, res.Size)
	}
	return nil
}
