package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"strings"
	"testing"
)

// A child started by startUnit re-executes this test binary; it must run
// its unit and not the tests.
func TestMain(m *testing.M) {
	if arg := os.Getenv(unitEnv); arg != "" {
		os.Exit(childMain(arg))
	}
	os.Exit(m.Run())
}

// The driver's rules for names, units and counts.
var (
	nameRule = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRule = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestTablesFollowTheContract(t *testing.T) {
	if n := len(workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2..8", n)
	}
	if n := len(endToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1..16", n)
	}
	if n := len(perLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1..128", n)
	}
	seen := make(map[string]bool)
	once := func(name string) {
		t.Helper()
		if !nameRule.MatchString(name) {
			t.Errorf("name %q breaks the name rule", name)
		}
		if seen[name] {
			t.Errorf("name %q is used twice", name)
		}
		seen[name] = true
	}
	for _, w := range workloads {
		once(w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.ContainsAny(w.Why, "\r\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	setup := false
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		once(m.Name)
		if !unitRule.MatchString(m.Unit) {
			t.Errorf("metric %s: unit %q breaks the unit rule", m.Name, m.Unit)
		}
		if m.Better != "higher" && m.Better != "lower" {
			t.Errorf("metric %s: direction %q", m.Name, m.Better)
		}
		if m.Bound < 0 || m.Bound > 0.25 {
			t.Errorf("metric %s: bound %v outside 0..0.25", m.Name, m.Bound)
		}
		if m.Name == "setup_s" {
			setup = m.Unit == "s" && m.Better == "lower"
			for _, other := range endToEnd {
				if other.Bound > m.Bound {
					t.Errorf("setup_s must carry the largest bound, %s has %v", other.Name, other.Bound)
				}
			}
		}
	}
	if !setup {
		t.Error("no end-to-end setup_s in seconds, lower is better")
	}
	for _, name := range []string{"wget_kill", "dd_kill", "wget_observed", "swifi_campaign", "fleet_storm",
		"work_per_s", "alloc_mb", "peak_rss_mb", "virt_work_per_s", "recovered_pct",
		"sim.entries", "sim.lockstep.self_share", "obs.decision.ns_per_entry", "trace.overhead_pct",
		"sim.switch_ns", "sim.leaked_goroutines", "workload.generate_ns_per_event"} {
		if !seen[name] {
			t.Errorf("%s is missing", name)
		}
	}
}

// BENCHMARK.json restates the tables for the driver; the two must agree.
func TestBenchmarkJSONMatchesTables(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	type metric struct {
		Name   string   `json:"name"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound,omitempty"`
	}
	var doc struct {
		Command    []string       `json:"command"`
		Paths      []string       `json:"paths"`
		RunSeconds int            `json:"run_seconds"`
		Workloads  []workloadSpec `json:"workloads"`
		EndToEnd   []metric       `json:"end_to_end"`
		PerLayer   []metric       `json:"per_layer"`
	}
	dec := json.NewDecoder(bytes.NewReader(raw))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&doc); err != nil {
		t.Fatal(err)
	}
	if len(raw) > 64<<10 {
		t.Errorf("BENCHMARK.json is %d bytes, limit 64 KiB", len(raw))
	}
	if want := []string{"go", "-C", "benchmark", "run", "."}; !reflect.DeepEqual(doc.Command, want) {
		t.Errorf("command %v, want %v", doc.Command, want)
	}
	if want := []string{"benchmark"}; !reflect.DeepEqual(doc.Paths, want) {
		t.Errorf("paths %v, want %v", doc.Paths, want)
	}
	if doc.RunSeconds < 1 || doc.RunSeconds > 60 {
		t.Errorf("run_seconds %d outside 1..60", doc.RunSeconds)
	}
	if !reflect.DeepEqual(doc.Workloads, workloads) {
		t.Errorf("workloads differ:\n json  %v\n table %v", doc.Workloads, workloads)
	}
	same := func(kind string, got []metric, want []metricSpec, bounded bool) {
		t.Helper()
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d in the table", kind, len(got), len(want))
		}
		for i, w := range want {
			g := got[i]
			if g.Name != w.Name || g.Unit != w.Unit || g.Better != w.Better {
				t.Errorf("%s[%d]: json %+v, table %+v", kind, i, g, w)
			}
			if bounded != (g.Bound != nil) || bounded && *g.Bound != w.Bound {
				t.Errorf("%s %s: bound in json %v, table %v", kind, w.Name, g.Bound, w.Bound)
			}
		}
	}
	same("end_to_end", doc.EndToEnd, endToEnd, true)
	same("per_layer", doc.PerLayer, perLayer, false)
}

// quickSuite runs every workload at smoke size, untraced and traced.
func quickSuite(t *testing.T) *suiteResult {
	t.Helper()
	res, err := runSuite(suiteOpts{Workloads: workloadNames(), Seed: 1, Seconds: 0.01, Rounds: 1, Quick: true})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestQuickSuiteEndToEnd(t *testing.T) {
	// Traced runs write their span files under the working directory.
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	tmp := t.TempDir()
	if err := os.Chdir(tmp); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)

	first, second := quickSuite(t), quickSuite(t)
	if !first.Quick {
		t.Error("a quick result must say so")
	}
	if len(first.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the result, want %d", len(first.Workloads), len(workloads))
	}
	for i, wl := range first.Workloads {
		if wl.Name != workloads[i].Name {
			t.Errorf("workload %d is %s, want %s", i, wl.Name, workloads[i].Name)
		}
		if wl.Attempted < 1 || wl.Failed != 0 {
			t.Errorf("%s: %d operations attempted, %d failed", wl.Name, wl.Attempted, wl.Failed)
		}
		if len(wl.EndToEnd) != len(endToEnd) || len(wl.PerLayer) != len(perLayer) {
			t.Errorf("%s: %d end-to-end and %d per-layer metrics, want %d and %d",
				wl.Name, len(wl.EndToEnd), len(wl.PerLayer), len(endToEnd), len(perLayer))
		}
		other := second.Workloads[i]
		for _, m := range endToEnd {
			v := wl.EndToEnd[m.Name]
			if len(v) != 1 || v[0] <= 0 {
				t.Errorf("%s %s = %v, want one positive value", wl.Name, m.Name, v)
			}
			if m.Exact && !reflect.DeepEqual(v, other.EndToEnd[m.Name]) {
				t.Errorf("%s %s: %v then %v, must repeat exactly", wl.Name, m.Name, v, other.EndToEnd[m.Name])
			}
		}
		for _, m := range perLayer {
			v, ok := wl.PerLayer[m.Name]
			if !ok {
				t.Errorf("%s: per-layer %s missing", wl.Name, m.Name)
			}
			if m.Exact && v != other.PerLayer[m.Name] {
				t.Errorf("%s %s: %v then %v, must repeat exactly", wl.Name, m.Name, v, other.PerLayer[m.Name])
			}
		}
		if _, err := os.Stat(filepath.Join(outDir, "trace_"+wl.Name+".json")); err != nil {
			t.Errorf("%s: no span file: %v", wl.Name, err)
		}
	}

	var table bytes.Buffer
	first.render(&table)
	for _, m := range append(append([]metricSpec(nil), endToEnd...), perLayer...) {
		if n := strings.Count(table.String(), "  "+m.Name+" "); n != len(workloads) {
			t.Errorf("table prints %s %d times, want once per workload", m.Name, n)
		}
	}

	// Quick numbers must never be compared with anything.
	path := filepath.Join(tmp, "quick.json")
	if err := writeJSON(path, first); err != nil {
		t.Fatal(err)
	}
	if code, err := compareFiles(&table, path, path); code != 2 || err == nil {
		t.Errorf("comparing quick results: code %d, err %v; want a refusal", code, err)
	}
}

func TestSingleRunPrintsTheResultLine(t *testing.T) {
	var out bytes.Buffer
	code, err := run([]string{"--workload", "dd_kill", "--seed", "5", "--seconds", "0.01", "--trace", "0", "-quick"}, &out)
	if code != 0 || err != nil {
		t.Fatalf("code %d, err %v", code, err)
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res map[string]json.RawMessage
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatal(err)
	}
	if len(res) != 4 || res["correct"] == nil || res["attempted"] == nil || res["failed"] == nil || res["metrics"] == nil {
		t.Errorf("result line has keys %v, want exactly correct, attempted, failed, metrics", sortedKeys(res))
	}
	var metrics map[string]metricValue
	if err := json.Unmarshal(res["metrics"], &metrics); err != nil {
		t.Fatal(err)
	}
	if len(metrics) != len(endToEnd) {
		t.Errorf("%d metrics on the line, want the %d end-to-end ones", len(metrics), len(endToEnd))
	}

	if code, _ := run([]string{"--workload", "nope", "--trace", "0", "-quick"}, &out); code == 0 {
		t.Error("an unknown workload must fail")
	}
}

func TestJudge(t *testing.T) {
	rate := metricSpec{Name: "work_per_s", Better: "higher", Bound: 0.10}
	mem := metricSpec{Name: "alloc_mb", Better: "lower", Bound: 0.03}
	exact := metricSpec{Name: "virt_work_per_s", Better: "higher", Bound: 0.02, Exact: true}
	for _, tc := range []struct {
		name string
		spec metricSpec
		a, b []float64
		want string
	}{
		{"within the bound", rate, []float64{100, 101, 102}, []float64{97, 98, 99}, verdictNoWorse},
		{"beyond the bound", rate, []float64{100, 101, 102}, []float64{88, 89, 90}, verdictWorse},
		{"every round faster", rate, []float64{100, 101, 102}, []float64{103, 104, 110}, verdictBetter},
		{"too noisy to tell", rate, []float64{90, 101, 112}, []float64{95, 100, 104}, verdictUnresolved},
		{"lower is better", mem, []float64{50, 50, 50}, []float64{52, 52, 52}, verdictWorse},
		{"less memory", mem, []float64{50, 50, 50}, []float64{40, 40, 40}, verdictBetter},
		{"exact and equal", exact, []float64{9.5, 9.5}, []float64{9.5, 9.5}, verdictNoWorse},
		{"exact ignores the bound", exact, []float64{9.5, 9.5}, []float64{9.49, 9.49}, verdictWorse},
	} {
		if got, _ := judge(tc.spec, tc.a, tc.b); got != tc.want {
			t.Errorf("%s: %s, want %s", tc.name, got, tc.want)
		}
	}
}
