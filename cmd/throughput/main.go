// Command throughput regenerates the paper's Fig. 7 (network driver
// recovery) and Fig. 8 (disk driver recovery) series: I/O throughput as a
// function of the interval at which the driver is killed with SIGKILL
// while the transfer runs.
//
// Each point also reports the recovery-latency distribution (p50/p95/p99
// of defect-to-reintegration, in virtual time) measured through the
// observability subsystem.
//
//	throughput -exp fig7              # 512 MB wget, kill intervals 1-15s
//	throughput -exp fig8              # 1 GB dd | sha1sum
//	throughput -exp fig7 -size 64     # quick run with a 64 MB transfer
//	throughput -exp fig7 -size 16 -trace fig7.jsonl   # capture a full trace
//	throughput -exp fig7 -size 4 -perfetto trace.json # causal spans for ui.perfetto.dev
//	throughput -exp fig7 -bench-json BENCH_throughput.json
package main

import (
	"bufio"
	"errors"
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"
	"time"

	"resilientos"
	"resilientos/internal/bench"
	"resilientos/internal/obs"
	"resilientos/internal/obs/export"
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
	fs := flag.NewFlagSet("throughput", flag.ContinueOnError)
	exp := fs.String("exp", "fig7", "experiment: fig7 (network) or fig8 (disk)")
	sizeMB := fs.Int64("size", 0, "transfer size in MB (default: paper's 512 for fig7, 1024 for fig8)")
	seed := fs.Int64("seed", 1, "simulation seed")
	intervals := fs.String("intervals", "", "comma-separated kill intervals in seconds (default 1,2,4,6,8,10,12,15)")
	trace := fs.String("trace", "", "write the full JSONL event trace to this file (use a small -size; summarize with tracestat)")
	perfetto := fs.String("perfetto", "", "write the causal span trace as Chrome trace-event JSON to this file (open in ui.perfetto.dev; use a small -size)")
	benchJSON := fs.String("bench-json", "", "write the machine-readable result (internal/bench document) to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}

	var sink obs.Sink
	var traceDone func() error
	var perfettoEvents *obs.SliceSink
	if *trace != "" || *perfetto != "" {
		var sinks []obs.Sink
		if *trace != "" {
			f, err := os.Create(*trace)
			if err != nil {
				return err
			}
			bw := bufio.NewWriterSize(f, 1<<20)
			js := obs.NewJSONLSink(bw)
			sinks = append(sinks, js)
			traceDone = func() error {
				if err := js.Err(); err != nil {
					return err
				}
				if err := bw.Flush(); err != nil {
					return err
				}
				return f.Close()
			}
		}
		if *perfetto != "" {
			perfettoEvents = &obs.SliceSink{}
			sinks = append(sinks, perfettoEvents)
		}
		if len(sinks) == 1 {
			sink = sinks[0]
		} else {
			sink = teeSink(sinks)
		}
	}

	ivs := resilientos.Fig7Intervals
	if *intervals != "" {
		ivs = nil
		for _, part := range strings.Split(*intervals, ",") {
			secs, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
			if err != nil {
				return fmt.Errorf("bad interval %q", part)
			}
			ivs = append(ivs, time.Duration(secs*float64(time.Second)))
		}
	}

	var points []resilientos.ThroughputPoint
	switch *exp {
	case "fig7":
		size := *sizeMB
		if size == 0 {
			size = 512
		}
		fmt.Printf("Fig. 7: wget %d MB over TCP, killing the RTL8139-class driver\n", size)
		fmt.Printf("(paper: 10.8 MB/s uninterrupted; 8.1 MB/s at 1s kills; 10.7 MB/s at 15s)\n\n")
		points = resilientos.Fig7NetworkRecoveryTrace(size<<20, ivs, *seed, sink)
	case "fig8":
		size := *sizeMB
		if size == 0 {
			size = 1024
		}
		fmt.Printf("Fig. 8: dd %d MB | sha1sum, killing the SATA-class driver\n", size)
		fmt.Printf("(paper: 32.7 MB/s uninterrupted; 12.3 MB/s at 1s kills; 30.5 MB/s at 15s)\n\n")
		points = resilientos.Fig8DiskRecoveryTrace(size<<20, ivs, *seed, sink)
	default:
		return fmt.Errorf("unknown experiment %q", *exp)
	}

	for _, p := range points {
		fmt.Println(p)
		if !p.OK {
			return fmt.Errorf("integrity check failed for %v", p.KillInterval)
		}
	}
	base := points[0].MBps
	fmt.Println()
	fmt.Println("interval_s  throughput_MBps  relative_loss")
	for _, p := range points[1:] {
		fmt.Printf("%10.0f  %15.2f  %12.0f%%\n",
			p.KillInterval.Seconds(), p.MBps, 100*(1-p.MBps/base))
	}
	printLatencyTable(points)
	if traceDone != nil {
		if err := traceDone(); err != nil {
			return err
		}
		fmt.Printf("\ntrace written to %s\n", *trace)
	}
	if perfettoEvents != nil {
		f, err := os.Create(*perfetto)
		if err != nil {
			return err
		}
		if err := export.Export(f, perfettoEvents.Events()); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Printf("perfetto trace written to %s\n", *perfetto)
	}
	if *benchJSON != "" {
		doc := bench.New("throughput", map[string]string{
			"exp":        *exp,
			"seed":       strconv.FormatInt(*seed, 10),
			"size_bytes": strconv.FormatInt(points[0].Bytes, 10),
		})
		for _, p := range points { // first point is uninterrupted (interval 0)
			key := fmt.Sprintf("interval_%gs/", p.KillInterval.Seconds())
			doc.Add(key+"mbps", p.MBps, "MB/s", bench.Higher)
			doc.Add(key+"virtual_s", p.Duration.Seconds(), "virt_s", bench.Lower)
			doc.Count(key+"kills", p.Kills)
			doc.Count(key+"recoveries", p.Recoveries)
			doc.Latency(key+"recovery", p.Recovery)
		}
		if err := bench.WriteFile(*benchJSON, doc); err != nil {
			return err
		}
		fmt.Printf("perf baseline written to %s\n", *benchJSON)
	}
	return nil
}

// teeSink fans every event out to multiple sinks.
type teeSink []obs.Sink

// Emit implements obs.Sink.
func (t teeSink) Emit(e obs.Event) {
	for _, s := range t {
		s.Emit(e)
	}
}

// printLatencyTable renders the recovery-latency distribution per point.
func printLatencyTable(points []resilientos.ThroughputPoint) {
	any := false
	for _, p := range points {
		if p.Recovery.Count > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	fmt.Println()
	fmt.Println("recovery latency (defect -> reintegration, virtual time)")
	fmt.Println("interval_s  count  mean_ms   p50_ms   p95_ms   p99_ms   max_ms")
	for _, p := range points {
		r := p.Recovery
		if r.Count == 0 {
			continue
		}
		fmt.Printf("%10.0f  %5d  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n",
			p.KillInterval.Seconds(), r.Count, ms(r.Mean), ms(r.P50), ms(r.P95), ms(r.P99), ms(r.Max))
	}
}
