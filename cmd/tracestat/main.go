// Command tracestat summarizes a JSONL trace captured from the
// observability subsystem (e.g. figures -trace fig7.jsonl): total and
// per-component event counts, the event-kind breakdown, the
// per-component recovery-latency distribution stitched from the trace's
// defect → policy → restart → reintegration spans, and — when the trace
// carries causal spans — the virtual-time profile (top spans by self
// time, per-component compute/blocked/dead split).
//
//	tracestat fig7.jsonl
//	tracestat -decisions base.jsonl   # summarize a recovery decision log (faultbench -record)
//	tracestat -spans fig7.jsonl       # also dump every recovery span
//	tracestat -comp eth.rtl8139 trace.jsonl
//	tracestat -kinds span.begin,span.end,span.orphan trace.jsonl
//	tracestat -top 20 trace.jsonl     # span profile table
//	tracestat -folded out.folded -perfetto out.json trace.jsonl
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/obs/profile"
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
	fs := flag.NewFlagSet("tracestat", flag.ContinueOnError)
	comp := fs.String("comp", "", "restrict the latency table to one component label")
	spans := fs.Bool("spans", false, "dump every recovery span")
	kinds := fs.String("kinds", "", "comma-separated event kinds to keep (e.g. span.begin,span.end); default all")
	top := fs.Int("top", 10, "rows in the span-profile table (0 disables)")
	folded := fs.String("folded", "", "write the folded-stacks flamegraph profile to this file")
	perfetto := fs.String("perfetto", "", "write the Chrome trace-event JSON export to this file")
	decisions := fs.Bool("decisions", false, "treat the trace file as a recovery decision log (obs/decision JSONL): defect-class/action matrix, per-class latency, give-ups")
	fs.Usage = func() {
		w := fs.Output()
		fmt.Fprintln(w, "usage: tracestat [flags] <trace.jsonl>")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "Summarize a JSONL observability trace (e.g. from figures -trace):")
		fmt.Fprintln(w, "event counts by kind and component, the per-component")
		fmt.Fprintln(w, "recovery-latency distribution, and the causal-span virtual-time")
		fmt.Fprintln(w, "profile.")
		fmt.Fprintln(w)
		fmt.Fprintln(w, "flags:")
		fs.PrintDefaults()
	}
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *decisions {
		// The other flags read an obs trace; a decision log has none of
		// what they select or write.
		var other string
		fs.Visit(func(f *flag.Flag) {
			if other == "" && f.Name != "decisions" && f.Value.String() != f.DefValue {
				other = f.Name
			}
		})
		if other != "" {
			return fmt.Errorf("-%s does not apply to -decisions", other)
		}
		if fs.NArg() != 1 {
			fs.Usage()
			return fmt.Errorf("-decisions needs exactly one decision-log file")
		}
		return runDecisions(fs.Arg(0), stdout)
	}
	if fs.NArg() != 1 {
		fs.Usage()
		return fmt.Errorf("need exactly one trace file")
	}
	f, err := os.Open(fs.Arg(0))
	if err != nil {
		return err
	}
	defer f.Close()
	events, err := obs.ParseJSONL(f)
	if err != nil {
		return err
	}
	if *kinds != "" {
		keep := make(map[obs.Kind]bool)
		for _, name := range strings.Split(*kinds, ",") {
			k, ok := obs.ParseKind(strings.TrimSpace(name))
			if !ok {
				return fmt.Errorf("unknown event kind %q", name)
			}
			keep[k] = true
		}
		kept := events[:0]
		for _, e := range events {
			if keep[e.Kind] {
				kept = append(kept, e)
			}
		}
		events = kept
	}
	if len(events) == 0 {
		fmt.Fprintln(stdout, "empty trace")
		return nil
	}

	counts := obs.NewCountSink()
	for _, e := range events {
		counts.Emit(e)
	}
	fmt.Fprintf(stdout, "%d events, %v .. %v virtual time\n\n",
		counts.Total, events[0].T, events[len(events)-1].T)

	fmt.Fprintln(stdout, "events by kind")
	for _, k := range obs.Kinds() {
		if n := counts.ByKind[k]; n > 0 {
			fmt.Fprintf(stdout, "  %-16s %8d\n", k, n)
		}
	}
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "events by component")
	comps := make([]string, 0, len(counts.ByComp))
	for c := range counts.ByComp {
		comps = append(comps, c)
	}
	sort.Strings(comps)
	for _, c := range comps {
		fmt.Fprintf(stdout, "  %-16s %8d\n", c, counts.ByComp[c])
	}

	all := obs.Timeline(events)
	if *spans {
		fmt.Fprintln(stdout)
		fmt.Fprintln(stdout, "recovery spans")
		for _, s := range all {
			fmt.Fprintf(stdout, "  %v\n", s)
		}
	}

	// Per-component latency table over completed recoveries.
	byComp := make(map[string][]obs.Span)
	for _, s := range all {
		if *comp != "" && s.Comp != *comp {
			continue
		}
		byComp[s.Comp] = append(byComp[s.Comp], s)
	}
	names := make([]string, 0, len(byComp))
	for c := range byComp {
		names = append(names, c)
	}
	sort.Strings(names)
	fmt.Fprintln(stdout)
	fmt.Fprintln(stdout, "recovery latency (defect -> reintegration, virtual time)")
	fmt.Fprintln(stdout, "component         count  mean_ms   p50_ms   p95_ms   p99_ms   max_ms")
	printed := false
	ms := func(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
	for _, c := range names {
		lat := obs.RecoveryLatencies(byComp[c], "")
		sum := obs.Summarize(lat)
		if sum.Count == 0 {
			continue
		}
		printed = true
		fmt.Fprintf(stdout, "%-16s  %5d  %7.1f  %7.1f  %7.1f  %7.1f  %7.1f\n",
			c, sum.Count, ms(sum.Mean), ms(sum.P50), ms(sum.P95), ms(sum.P99), ms(sum.Max))
	}
	if !printed {
		fmt.Fprintln(stdout, "(no completed recoveries in trace)")
	}

	// Causal-span profile: virtual-time attribution over the span forest.
	prof := profile.Build(events)
	if prof.Spans > 0 && *top > 0 {
		fmt.Fprintln(stdout)
		fmt.Fprintf(stdout, "span profile (%d terminated spans, %d still open)\n", prof.Spans, prof.Open)
		prof.WriteTable(stdout, *top)
	}
	if *folded != "" {
		out, err := os.Create(*folded)
		if err != nil {
			return err
		}
		prof.WriteFolded(out)
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "\nfolded stacks written to %s\n", *folded)
	}
	if *perfetto != "" {
		if err := os.WriteFile(*perfetto, perfettoJSON(events), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(stdout, "perfetto trace written to %s\n", *perfetto)
	}
	return nil
}
