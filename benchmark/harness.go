package main

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"
)

// The parent is a sequential driver: it starts one child per unit,
// waits for it, reads its record and its peak RSS, and folds the units
// of a run into one result. It never runs a simulation itself.

// unitEnv carries a child's unitOpts. A process that finds it set runs
// that one unit and exits (see main and TestMain).
const unitEnv = "RESILIENTOS_BENCH_UNIT"

// runOpts is one measured run of one workload.
type runOpts struct {
	Workload string
	Seed     int64
	Seconds  float64 // how long to keep starting units
	Traced   bool
	Quick    bool
}

// metricValue is one reported number.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// runResult is what a run prints as its last line.
type runResult struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// parallelWorkloads run on two workers; they need two cores to mean
// what their reference numbers mean.
var parallelWorkloads = map[string]bool{"swifi_campaign": true, "fleet_storm": true}

const parallelWorkers = 2

// child is one finished unit as the parent saw it.
type child struct {
	unitRecord
	PeakRSSMB float64
	WallS     float64 // start to exit
	startMs   float64 // offset of the start within the run, for spans
}

// startUnit runs one unit in a fresh process and waits for it.
func startUnit(o unitOpts, runStart time.Time) (child, error) {
	self, err := os.Executable()
	if err != nil {
		return child{}, err
	}
	o.T0 = time.Now()
	arg, err := json.Marshal(o)
	if err != nil {
		return child{}, err
	}
	cmd := exec.Command(self)
	// One P per worker. With a spare P the Go scheduler wakes the
	// simulator's coroutines on another core now and then, and how
	// often depends on what else the machine is doing: the one-worker
	// workloads ran 20-40% slower, and drifted more, with two.
	cmd.Env = append(os.Environ(), unitEnv+"="+string(arg), fmt.Sprintf("GOMAXPROCS=%d", max(o.Workers, 1)))
	cmd.Stderr = os.Stderr
	// A parent that is killed must not leave a child spinning on a core
	// under the next run. The signal is tied to the forking thread, so
	// that thread is held until the child has been waited for.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	runtime.LockOSThread()
	defer runtime.UnlockOSThread()
	out, err := cmd.Output()
	if err != nil {
		return child{}, fmt.Errorf("%s unit: %w", o.Workload, err)
	}
	c := child{WallS: time.Since(o.T0).Seconds(), startMs: o.T0.Sub(runStart).Seconds() * 1e3}
	if err := json.Unmarshal(out, &c.unitRecord); err != nil {
		return child{}, fmt.Errorf("%s unit: bad record: %w", o.Workload, err)
	}
	ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage)
	if !ok {
		return child{}, errors.New("no rusage for the child on this platform")
	}
	c.PeakRSSMB = float64(ru.Maxrss) * 1024 / 1e6 // Linux reports KiB
	return c, nil
}

// childMain is the child's side of startUnit.
func childMain(arg string) int {
	var o unitOpts
	if err := json.Unmarshal([]byte(arg), &o); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 2
	}
	rec, err := runUnit(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	if err := json.NewEncoder(os.Stdout).Encode(rec); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark child:", err)
		return 1
	}
	return 0
}

// sameOutput checks the virtual plane of two units of one seed: every
// exact value the first reports must read the same in the second, and
// so must the output digest.
func sameOutput(what string, a, b unitRecord) error {
	if a.Digest != b.Digest {
		return fmt.Errorf("%s: output digest differs between units: %s vs %s", what, a.Digest, b.Digest)
	}
	for _, k := range sortedKeys(a.Exact) {
		if bv, ok := b.Exact[k]; !ok || bv != a.Exact[k] {
			return fmt.Errorf("%s: exact value %s differs between units: %v vs %v", what, k, a.Exact[k], bv)
		}
	}
	return nil
}

// measurement is a finished run: the result line plus what the suite
// table and the trace file want to know.
type measurement struct {
	Result runResult
	Units  int
	Rates  []float64 // work per second of every untraced unit, in order
	Spans  []span
}

// measureRun keeps starting units of the workload while another one
// fits into o.Seconds, always at least two so that their outputs can be
// compared, and reports the best unit's timings and the median of the
// memory numbers. A traced run alternates untraced reference units with
// traced ones and ends with the layer probes.
func measureRun(o runOpts) (*measurement, error) {
	if !knownWorkload(o.Workload) {
		return nil, fmt.Errorf("unknown workload %q (have %v)", o.Workload, workloadNames())
	}
	workers := 1
	if parallelWorkloads[o.Workload] {
		if runtime.NumCPU() < parallelWorkers {
			return nil, fmt.Errorf("%s runs on %d workers and this machine has %d CPU",
				o.Workload, parallelWorkers, runtime.NumCPU())
		}
		// The profiler is single-threaded and forces one worker, so the
		// reference units of a traced run use one worker too.
		if !o.Traced {
			workers = parallelWorkers
		}
	}
	base := unitOpts{Workload: o.Workload, Seed: o.Seed, Workers: workers, Quick: o.Quick}

	start := time.Now()
	budget := time.Duration(o.Seconds * float64(time.Second))
	var plain, traced []child
	var lastRound time.Duration
	m := &measurement{}
	minRounds := 2 // so that two outputs can be compared
	if o.Traced {
		minRounds = 1 // a round is already a pair
	}
	for round := 0; round < minRounds || time.Since(start)+lastRound <= budget; round++ {
		roundStart := time.Now()
		c, err := startUnit(base, start)
		if err != nil {
			return nil, err
		}
		plain = append(plain, c)
		if o.Traced {
			opts := base
			opts.Traced = true
			t, err := startUnit(opts, start)
			if err != nil {
				return nil, err
			}
			traced = append(traced, t)
		}
		lastRound = time.Since(roundStart)
	}

	for _, c := range plain[1:] {
		if err := sameOutput(o.Workload, plain[0].unitRecord, c.unitRecord); err != nil {
			return nil, err
		}
	}
	for _, t := range traced {
		// Tracing is wall-clock only: a traced unit must reproduce the
		// untraced virtual plane, and every other traced unit's.
		if err := sameOutput(o.Workload+" traced vs untraced", plain[0].unitRecord, t.unitRecord); err != nil {
			return nil, err
		}
		if err := sameOutput(o.Workload+" traced", traced[0].unitRecord, t.unitRecord); err != nil {
			return nil, err
		}
	}

	res := runResult{Correct: true, Metrics: make(map[string]metricValue)}
	account := func(kind string, cs []child) {
		for i, c := range cs {
			res.Attempted += c.Attempted
			res.Failed += c.Failed
			m.Units++
			m.Spans = append(m.Spans, unitSpans(c, fmt.Sprintf("%s%d", kind, i+1))...)
		}
	}
	account("plain", plain)
	account("traced", traced)
	for _, c := range plain {
		m.Rates = append(m.Rates, c.Work/c.RunS)
	}
	if !o.Traced {
		// Whatever else runs on a shared machine only ever slows a unit
		// down, so the two timings come from the best unit: the fastest
		// timed phase and the shortest set-up. Memory is noisy in both
		// directions and reports the median.
		_, fastest := minMax(m.Rates)
		shortest := plain[0].SetupS
		for _, c := range plain {
			shortest = min(shortest, c.SetupS)
		}
		host := map[string]float64{
			"work_per_s":  fastest,
			"setup_s":     shortest,
			"alloc_mb":    medianOf(plain, func(c child) float64 { return c.AllocMB }),
			"peak_rss_mb": medianOf(plain, func(c child) float64 { return c.PeakRSSMB }),
		}
		for _, spec := range endToEnd {
			v, ok := host[spec.Name]
			if !ok {
				v = plain[0].Exact[spec.Name]
			}
			res.Metrics[spec.Name] = metricValue{Value: v, Unit: spec.Unit}
		}
		m.Result = res
		return m, nil
	}

	probes, err := startUnit(unitOpts{Workload: "probes", Seed: o.Seed, Quick: o.Quick}, start)
	if err != nil {
		return nil, err
	}
	m.Units++
	m.Spans = append(m.Spans, unitSpans(probes, "probes")...)
	// A probe's number stands for its metric on every workload; the rest
	// come from this workload's traced units.
	value := func(spec metricSpec) float64 {
		name := spec.Name
		if spec.Exact {
			if v, ok := probes.Exact[name]; ok {
				return v
			}
			return traced[0].Exact[name]
		}
		if v, ok := probes.Noisy[name]; ok {
			return v
		}
		return medianOf(traced, func(c child) float64 { return c.Noisy[name] })
	}
	for _, spec := range perLayer {
		res.Metrics[spec.Name] = metricValue{Value: value(spec), Unit: spec.Unit}
	}
	tracedRun := medianOf(traced, func(c child) float64 { return c.RunS })
	plainRun := medianOf(plain, func(c child) float64 { return c.RunS })
	res.Metrics["trace.overhead_pct"] = metricValue{Value: 100 * (tracedRun - plainRun) / plainRun, Unit: "%"}
	m.Result = res
	sort.SliceStable(m.Spans, func(i, j int) bool { return m.Spans[i].StartMs < m.Spans[j].StartMs })
	m.Spans = append([]span{{Name: rootSpan, EndMs: time.Since(start).Seconds() * 1e3}}, m.Spans...)
	return m, writeTrace(o, m.Spans)
}

func medianOf(cs []child, f func(child) float64) float64 {
	v := make([]float64, len(cs))
	for i, c := range cs {
		v[i] = f(c)
	}
	return median(v)
}

// rootSpan is the parent of every child's span: the whole traced run.
const rootSpan = "benchmark"

// unitSpans places a child's phase spans on the run's clock, under one
// span for the child itself.
func unitSpans(c child, name string) []span {
	out := []span{{Name: name, StartMs: c.startMs, EndMs: c.startMs + c.WallS*1e3, Parent: rootSpan}}
	for _, s := range c.Spans {
		out = append(out, span{
			Name: s.Name, StartMs: c.startMs + s.StartMs, EndMs: c.startMs + s.EndMs, Parent: name,
		})
	}
	return out
}

// outDir is where results and traces go: next to the sources when run
// with `go -C benchmark run .`, which makes that the working directory.
const outDir = "out"

// writeTrace writes the harness's own spans of a traced run.
func writeTrace(o runOpts, spans []span) error {
	doc := struct {
		Workload string `json:"workload"`
		Seed     int64  `json:"seed"`
		Spans    []span `json:"spans"`
	}{o.Workload, o.Seed, spans}
	return writeJSON(filepath.Join(outDir, "trace_"+o.Workload+".json"), doc)
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
