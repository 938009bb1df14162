package resilientos

import (
	"fmt"
	"os"
	"strings"
	"testing"

	"resilientos/internal/bench"
)

// benchCol is one table column: the metrics of doc under prefix.
type benchCol struct {
	head   string
	doc    bench.Doc
	prefix string
}

// benchRow is one table row: a metric and how to print its value.
type benchRow struct{ label, metric, format string }

// benchTable renders committed bench documents as a markdown table, one
// metric per row ("–" where a document has no such metric).
func benchTable(cols []benchCol, rows []benchRow) string {
	var b strings.Builder
	b.WriteString("| |")
	for _, c := range cols {
		fmt.Fprintf(&b, " %s |", c.head)
	}
	b.WriteString("\n|---|" + strings.Repeat("---|", len(cols)) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| %s |", r.label)
		for _, c := range cols {
			cell := "–"
			if v, ok := c.doc.Value(c.prefix + r.metric); ok {
				cell = fmt.Sprintf(r.format, v)
			}
			fmt.Fprintf(&b, " %s |", cell)
		}
		b.WriteString("\n")
	}
	return b.String()
}

// TestExperimentsTablesMatchGoldens keeps the EXPERIMENTS.md tables that
// sit between <!-- bench:NAME --> markers equal to what the committed
// bench goldens render to, so the doc holds no second copy of a number
// that can rot. -update rewrites the blocks (this file sorts after the
// golden tests, so one -update run regenerates goldens and tables both).
func TestExperimentsTablesMatchGoldens(t *testing.T) {
	load := func(path string) bench.Doc {
		d, err := bench.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return d
	}
	fig7, fig8 := load("testdata/BENCH_fig7_seed11.json"), load("testdata/BENCH_fig8_seed11.json")
	rec := load("testdata/BENCH_recovery_seed11.json")
	fleet := load("cmd/fleetbench/testdata/BENCH_fleet_compare_seed11.json")
	blocks := map[string]string{
		"fig7": benchTable(
			[]benchCol{{"Fig. 7 (net, seed 11)", fig7, ""}, {"Fig. 8 (disk, seed 11)", fig8, ""}},
			[]benchRow{
				{"Pre-kill baseline", "baseline_mbps", "%.2f MB/s"},
				{"Kills (every 2 s)", "kills", "%.0f"},
				{"Mean dip depth", "mean_dip_depth_pct", "%.1f %%"},
				{"Mean dip width", "mean_dip_width_ms", "%.0f ms"},
				{"Recovered throughput", "recovered_pct", "%.1f %% of baseline"},
				{"Recovery latency (p95)", "recovery_p95_ms", "%.0f ms"},
			}),
		"recovery": benchTable(
			[]benchCol{{"respawn", rec, "respawn/"}, {"microreboot", rec, "microreboot/"}, {"standby", rec, "standby/"}},
			[]benchRow{
				{"end-to-end throughput", "mbps", "%.2f MB/s"},
				{"crashes", "kills", "%.0f"},
				{"mean dip depth", "mean_dip_depth_pct", "%.1f %%"},
				{"mean dip width", "mean_dip_width_ms", "%.0f ms"},
				{"recovered throughput", "recovered_pct", "%.1f %% of baseline"},
				{"recovery latency (p95)", "recovery_p95_ms", "%.0f ms"},
			}) + "\n" + benchTable(
			[]benchCol{{"gain over respawn", rec, ""}},
			[]benchRow{
				{"standby, dip depth", "standby_depth_gain_pct", "%.1f points"},
				{"microreboot, dip width", "micro_width_gain_ms", "%.0f ms"},
			}),
		"fleet-compare": benchTable(
			[]benchCol{
				{"round-robin", fleet, "policy/round-robin/"},
				{"least-loaded", fleet, "policy/least-loaded/"},
				{"failure-aware", fleet, "policy/failure-aware/"},
			},
			[]benchRow{
				{"availability", "availability_pct", "%.2f %%"},
				{"node floor", "node_availability_pct", "%.0f %%"},
				{"requests", "requests", "%.0f"},
				{"request p50", "request_p50_ms", "%.2f ms"},
				{"request p99", "request_p99_ms", "%.2f ms"},
				{"reroutes", "reroutes", "%.0f"},
				{"kills", "kills", "%.0f"},
				{"recovered", "recovered_pct", "%.0f %%"},
			}),
	}

	const path = "EXPERIMENTS.md"
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	for name, want := range blocks {
		open, end := "<!-- bench:"+name+" -->\n", "<!-- /bench:"+name+" -->"
		i := strings.Index(md, open)
		j := strings.Index(md, end)
		if i < 0 || j < i {
			t.Fatalf("%s: markers %q … %q not found", path, strings.TrimSpace(open), end)
		}
		i += len(open)
		if md[i:j] != want {
			if !*updateGolden {
				t.Errorf("%s: block %q is not what the committed goldens render to "+
					"(go test -run TestExperimentsTablesMatchGoldens -update):\n%s", path, name, want)
			}
			md = md[:i] + want + md[j:]
		}
	}
	if *updateGolden && md != string(raw) {
		if err := os.WriteFile(path, []byte(md), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}
