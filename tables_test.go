package resilientos

import (
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"

	"resilientos/internal/bench"
	"resilientos/internal/hw"
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

// calibrationTable renders the machine's hw constants beside the paper's
// numbers where it gives one.
func calibrationTable() string {
	mbps := func(bps float64) string { return fmt.Sprintf("%.1f MB/s", bps/1e6) }
	rows := [][4]string{
		{"NICRateBps", mbps(hw.NICRateBps), "NIC serialization (wget, Fig. 7)", "10.8 MB/s wget"},
		{"NICResetDelay", fmt.Sprint(hw.NICResetDelay), "NIC reset a restarted network driver waits for", "–"},
		{"NICRingFrames", fmt.Sprint(hw.NICRingFrames), "receive ring, frames", "–"},
		{"NICWedgeProb", fmt.Sprint(hw.NICWedgeProb), "`hw=on`: a garbage control value wedges the card", "–"},
		{"NICDeepWedgeProb", fmt.Sprint(hw.NICDeepWedgeProb), "`hw=on`: a wedge needs a BIOS reset", "–"},
		{"DiskRateBps", mbps(hw.DiskRateBps), "disk media rate (dd, Fig. 8)", "32.7 MB/s dd"},
		{"DiskCmdOverhead", fmt.Sprint(hw.DiskCmdOverhead), "per disk command", "–"},
		{"DiskResetDelay", fmt.Sprint(hw.DiskResetDelay), "reset+identify a restarted disk driver waits for", "≈ 0.62 s lost per kill"},
		{"AudioPlayRate", fmt.Sprintf("%d B/s", hw.AudioPlayRate), "codec playback (44.1 kHz, 16-bit stereo)", "–"},
		{"AudioBufSize", fmt.Sprintf("%d B", hw.AudioBufSize), "codec playback buffer", "–"},
		{"AudioWatermark", fmt.Sprintf("%d B", hw.AudioWatermark), "refill interrupt below this level", "–"},
		{"AudioInputRate", fmt.Sprintf("%d B/s", hw.AudioInputRate), "codec capture (read-once input)", "–"},
		{"AudioInputRing", fmt.Sprintf("%d B", hw.AudioInputRing), "capture ring", "–"},
		{"AudioTick", fmt.Sprint(hw.AudioTick), "codec playback and capture step", "–"},
		{"PrinterLineTime", fmt.Sprint(hw.PrinterLineTime), "one printed line", "–"},
		{"BurnerMaxStall", fmt.Sprint(hw.BurnerMaxStall), "longest stall a burn survives", "–"},
		{"RAMDiskSectors", fmt.Sprint(hw.RAMDiskSectors), "RAM disk, 512-byte sectors", "–"},
	}
	var b strings.Builder
	b.WriteString("| `hw` constant | Value | Sets | Paper |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "| `%s` | %s | %s | %s |\n", r[0], r[1], r[2], r[3])
	}
	return b.String()
}

// TestExperimentsTablesMatchGoldens keeps the EXPERIMENTS.md tables that
// sit between <!-- bench:NAME --> markers equal to what the committed
// bench goldens (and, for the calibration table, the hw constants)
// render to, so the doc holds no second copy of a number that can rot. -update rewrites the blocks (this file sorts after the
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
	speed := load("cmd/simspeed/testdata/BENCH_simspeed_seed1.json")
	blocks := map[string]string{
		"calibration": calibrationTable(),
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
			[]benchCol{
				{"respawn (baseline)", rec, "baseline/"},
				{"mech=microreboot", rec, "override/mech=microreboot/"},
				{"mech=standby", rec, "override/mech=standby/"},
			},
			[]benchRow{
				{"end-to-end throughput", "mbps", "%.2f MB/s"},
				{"crashes", "kills", "%.0f"},
				{"mean dip depth", "mean_dip_depth_pct", "%.1f %%"},
				{"mean dip width", "mean_dip_width_ms", "%.0f ms"},
				{"recovered throughput", "recovered_pct", "%.1f %% of baseline"},
				{"recovery latency (p95)", "recovery_p95_ms", "%.0f ms"},
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
		"simspeed": benchTable(
			[]benchCol{{"fig7", speed, "fig7/"}, {"fleet", speed, "fleet/"}, {"campaign", speed, "campaign/"}},
			[]benchRow{
				{"events", "events", "%.0f"},
				{"bare events", "bare_events", "%.0f"},
				{"obs events", "obs_events", "%.0f"},
				{"virtual ms", "virtual_ms", "%.0f"},
				{"kernel.ipc entries", "region/kernel.ipc/entries", "%.0f"},
				{"ucode entries", "region/ucode/entries", "%.0f"},
				{"check entries", "region/check/entries", "%.0f"},
				{"barrier entries", "region/barrier/entries", "%.0f"},
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

// TestDesignIndexNamesExist keeps DESIGN §4 honest: every test or
// benchmark its regeneration-target column names must be declared by some
// test file in the repository (a trailing * matches any name with that
// prefix), so a rename or a deletion cannot leave the index pointing at
// nothing.
func TestDesignIndexNamesExist(t *testing.T) {
	design, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(design), "\n## 4. Per-experiment index\n")
	if !ok {
		t.Fatal("DESIGN.md has no §4 per-experiment index")
	}
	section, _, _ = strings.Cut(section, "\n## ")
	nameRE := regexp.MustCompile(`\b(?:Test|Benchmark)[A-Za-z0-9_]*\*?`)
	var named []string
	for _, line := range strings.Split(section, "\n") {
		cells := strings.Split(strings.Trim(line, "| "), " | ")
		if len(cells) < 5 || strings.HasPrefix(cells[0], "---") || cells[0] == "Exp" {
			continue
		}
		named = append(named, nameRE.FindAllString(cells[len(cells)-1], -1)...)
	}
	if len(named) < 10 {
		t.Fatalf("found only %d names in the index: %v", len(named), named)
	}

	declRE := regexp.MustCompile(`(?m)^func ((?:Test|Benchmark)\w*)\(`)
	var declared []string
	err = filepath.WalkDir(".", func(path string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(path, "_test.go") {
			return err
		}
		src, err := os.ReadFile(path)
		for _, m := range declRE.FindAllStringSubmatch(string(src), -1) {
			declared = append(declared, m[1])
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range named {
		prefix, wild := strings.CutSuffix(name, "*")
		found := slices.ContainsFunc(declared, func(d string) bool {
			return d == prefix || (wild && strings.HasPrefix(d, prefix))
		})
		if !found {
			t.Errorf("DESIGN §4 names %s, which no test file declares", name)
		}
	}
}
