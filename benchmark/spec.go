package main

import (
	"slices"
	"sort"

	"resilientos/internal/perf"
)

// The tables in this file are the benchmark's contract: workload names,
// metric names, units, directions and bounds. BENCHMARK.json at the repo
// root restates them for the driver (main_test.go holds the two in
// step); README.md explains them.

// workloadSpec names one workload and records why it is in the set.
type workloadSpec struct {
	Name string `json:"name"`
	Why  string `json:"why"`
}

var workloads = []workloadSpec{
	{"wget_kill", "Fig. 7 bare: many tiny frames, so sim switches, kernel rendezvous and inet/ucode/hw do all the work and obs/check do none; a checker optimisation must not move it"},
	{"dd_kill", "Fig. 8 bare: same sim/kernel/ucode layers with 17x fewer events per MB, large grant copies and MFS reissue; shows a small-message IPC gain that costs bulk copies"},
	{"wget_observed", "wget_kill under the full stack (recorder with spans, live checker, 1 s sampler, decision log): check+obs are half the cost and the retained trace is the memory load"},
	{"swifi_campaign", "SWIFI cells on 2 workers: short-lived full systems, real ucode crashes, fi and the per-cell checker; the place missing Env teardown shows as memory"},
	{"fleet_storm", "4-node lockstep fleet under a correlated kill storm with open-loop arrivals: barriers, routing and timeseries dominate while kernel/ucode idle"},
}

// metricSpec describes one reported metric. Bound is the share of the
// baseline median by which an end-to-end metric may worsen before it
// counts as a regression; per-layer metrics carry none. Exact marks the
// virtual plane: values that are functions of the seed and must agree
// bit for bit between two runs of it. Everything else observes the host
// and is noisy.
type metricSpec struct {
	Name   string
	Unit   string
	Better string // "higher" or "lower"
	Bound  float64
	Exact  bool
}

var endToEnd = []metricSpec{
	{Name: "work_per_s", Unit: "work/s", Better: "higher", Bound: 0.25},
	{Name: "alloc_mb", Unit: "MB", Better: "lower", Bound: 0.03},
	{Name: "peak_rss_mb", Unit: "MB", Better: "lower", Bound: 0.25},
	{Name: "setup_s", Unit: "s", Better: "lower", Bound: 0.25},
	{Name: "virt_work_per_s", Unit: "work/s", Better: "higher", Bound: 0.02, Exact: true},
	{Name: "recovered_pct", Unit: "%", Better: "higher", Bound: 0.01, Exact: true},
}

// regionLayer maps the profiler's region taxonomy onto layer (package)
// names; each layer reports the five regionSuffixes.
var regionLayer = map[perf.Region]string{
	perf.RegionStep:       "sim",
	perf.RegionKernelIPC:  "kernel",
	perf.RegionUcode:      "ucode",
	perf.RegionObs:        "obs",
	perf.RegionCheck:      "check",
	perf.RegionDecision:   "obs.decision",
	perf.RegionTimeseries: "obs.timeseries",
	perf.RegionBarrier:    "sim.lockstep",
}

var regionSuffixes = []metricSpec{
	{Name: "entries", Unit: "count", Better: "lower", Exact: true},
	{Name: "self_ms", Unit: "ms", Better: "lower"},
	{Name: "ns_per_entry", Unit: "ns", Better: "lower"},
	{Name: "allocs_per_entry", Unit: "count", Better: "lower"},
	{Name: "self_share", Unit: "%", Better: "lower"},
}

// tracedMetrics come from the traced run of a workload: counts at the
// layer boundaries, the virtual stage split of a recovery, and the
// virtual-plane figures only some workloads define (0 elsewhere). Times
// on the virtual clock carry the unit virt_ms, never ms.
var tracedMetrics = []metricSpec{
	{Name: "sim.events", Unit: "count", Better: "lower", Exact: true},
	{Name: "sim.events_per_s", Unit: "1/s", Better: "higher"},
	{Name: "kernel.ipc_sends", Unit: "count", Better: "lower", Exact: true},
	{Name: "core.restarts", Unit: "count", Better: "lower", Exact: true},
	{Name: "inet.bytes", Unit: "count", Better: "higher", Exact: true},
	{Name: "mfs.bytes", Unit: "count", Better: "higher", Exact: true},
	{Name: "fi.injected", Unit: "count", Better: "higher", Exact: true},
	{Name: "fi.crashes", Unit: "count", Better: "lower", Exact: true},
	{Name: "cluster.requests", Unit: "count", Better: "higher", Exact: true},
	{Name: "cluster.reroutes", Unit: "count", Better: "lower", Exact: true},
	{Name: "campaign.cell_ms", Unit: "ms", Better: "lower"},
	{Name: "core.recovery_p50_ms", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "core.recovery_hi_ms", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "core.detect_to_restart_ms_p50", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "policy.script_ms_p50", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "inet.reintegrate_ms_p50", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "mfs.reintegrate_ms_p50", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "cluster.availability_pct", Unit: "%", Better: "higher", Exact: true},
	{Name: "cluster.request_p99_ms", Unit: "virt_ms", Better: "lower", Exact: true},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
}

// probeMetrics time public functions of single layers in isolation.
var probeMetrics = []metricSpec{
	{Name: "sim.switch_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.switch_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.tick_ns", Unit: "ns", Better: "lower"},
	{Name: "sim.tick_allocs", Unit: "count", Better: "lower"},
	{Name: "sim.leaked_goroutines", Unit: "count", Better: "lower", Exact: true},
	{Name: "kernel.sendrec_ns", Unit: "ns", Better: "lower"},
	{Name: "kernel.sendrec_allocs", Unit: "count", Better: "lower"},
	{Name: "ucode.run_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.emit_ns", Unit: "ns", Better: "lower"},
	{Name: "obs.emit_allocs", Unit: "count", Better: "lower"},
	{Name: "check.step_ns", Unit: "ns", Better: "lower"},
	{Name: "check.step_allocs", Unit: "count", Better: "lower"},
	{Name: "system.boot_ms", Unit: "ms", Better: "lower"},
	{Name: "system.boot_alloc_mb", Unit: "MB", Better: "lower"},
	{Name: "system.boot_events", Unit: "count", Better: "lower", Exact: true},
	{Name: "policy.run_us", Unit: "us", Better: "lower"},
	{Name: "fi.inject_ns", Unit: "ns", Better: "lower"},
	{Name: "workload.generate_ns_per_event", Unit: "ns", Better: "lower"},
}

// perLayer is the full per-layer metric list in canonical order: the
// region table, then the traced counts, then the probes.
var perLayer = buildPerLayer()

func buildPerLayer() []metricSpec {
	var out []metricSpec
	for _, r := range perf.Regions() {
		for _, s := range regionSuffixes {
			m := s
			m.Name = regionLayer[r] + "." + s.Name
			out = append(out, m)
		}
	}
	out = append(out, tracedMetrics...)
	return append(out, probeMetrics...)
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.Name
	}
	return names
}

func knownWorkload(name string) bool { return slices.Contains(workloadNames(), name) }

// sortedKeys returns m's keys in order, for deterministic output.
func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func median(v []float64) float64 {
	if len(v) == 0 {
		return 0
	}
	s := append([]float64(nil), v...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

func minMax(v []float64) (lo, hi float64) {
	for i, x := range v {
		if i == 0 || x < lo {
			lo = x
		}
		if i == 0 || x > hi {
			hi = x
		}
	}
	return lo, hi
}
