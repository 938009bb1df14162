package resilientos

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"
	"time"

	"resilientos/internal/bench"
)

// figureGoldenConfig is the committed-golden configuration — the same
// shape `cmd/figures -seed 11` runs, pinned byte-for-byte in testdata.
func figureGoldenConfig(fig int) FigureConfig {
	return FigureConfig{Fig: fig, Seed: 11, Interval: 2 * time.Second}
}

// TestFigureGoldens pins the Fig. 7/8 throughput-curve CSVs for seed 11
// against the committed goldens and asserts the paper's qualitative
// shape: every kill produces a visible dip, and the curve recovers to at
// least 90% of the pre-kill baseline. Regenerate with:
// go test -run FigureGoldens -update
func TestFigureGoldens(t *testing.T) {
	for _, fig := range []int{7, 8} {
		fig := fig
		t.Run(fmt.Sprintf("fig%d", fig), func(t *testing.T) {
			t.Parallel()
			res := RunFigure(figureGoldenConfig(fig))
			if res.Violation != nil {
				t.Fatalf("window series invariant violated: %v", res.Violation)
			}
			if !res.OK {
				t.Fatalf("transfer failed integrity check: %d of %d bytes", res.Bytes, res.Size)
			}
			if res.Kills < 2 {
				t.Fatalf("only %d kills — run too short to show dips", res.Kills)
			}
			if len(res.Dips) != res.Kills {
				t.Fatalf("%d dips for %d kills", len(res.Dips), res.Kills)
			}
			for i, d := range res.Dips {
				if d.DepthPct <= 5 {
					t.Errorf("dip %d: depth %.1f%% — kill at %v left no visible dip", i, d.DepthPct, d.Kill)
				}
				if !d.Truncated && d.RecoveredPct < 90 {
					t.Errorf("dip %d: recovered to %.1f%% of baseline, want >= 90%%", i, d.RecoveredPct)
				}
			}
			if res.RecoveredPct < 90 {
				t.Errorf("recovered throughput %.1f%% of baseline, want >= 90%%", res.RecoveredPct)
			}

			var got bytes.Buffer
			if err := WriteFigureCSV(&got, res); err != nil {
				t.Fatal(err)
			}
			golden := fmt.Sprintf("testdata/fig%d_seed11.csv", fig)
			if *updateGolden {
				if err := os.WriteFile(golden, got.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			want, err := os.ReadFile(golden)
			if err != nil {
				t.Fatalf("read golden (regenerate with -update): %v", err)
			}
			if !bytes.Equal(got.Bytes(), want) {
				t.Fatalf("curve differs from %s (%d vs %d bytes); "+
					"if the change is intentional, regenerate with -update",
					golden, got.Len(), len(want))
			}

			// The JSON and SVG encoders must be deterministic functions of
			// the result (no map iteration, no wall clock).
			var j1, j2, s1, s2 bytes.Buffer
			if err := WriteFigureJSON(&j1, res); err != nil {
				t.Fatal(err)
			}
			if err := WriteFigureJSON(&j2, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(j1.Bytes(), j2.Bytes()) {
				t.Error("JSON encoding not deterministic")
			}
			if err := WriteFigureSVG(&s1, res); err != nil {
				t.Fatal(err)
			}
			if err := WriteFigureSVG(&s2, res); err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(s1.Bytes(), s2.Bytes()) {
				t.Error("SVG encoding not deterministic")
			}
			if !strings.HasPrefix(s1.String(), "<svg ") || !strings.HasSuffix(s1.String(), "</svg>\n") {
				t.Error("SVG render not self-contained")
			}

			// The summary `figures -seed 11 -bench` writes as BENCH_fig<N>.json.
			checkBenchGolden(t, fmt.Sprintf("testdata/BENCH_fig%d_seed11.json", fig), res.BenchDoc())
		})
	}
}

// checkBenchGolden compares doc, canonically encoded, with the committed
// golden byte for byte (-update rewrites the golden first) and names the
// lines that differ.
func checkBenchGolden(t *testing.T, golden string, doc bench.Doc) {
	t.Helper()
	if *updateGolden {
		if err := bench.WriteFile(golden, doc); err != nil {
			t.Fatal(err)
		}
	}
	tmp := filepath.Join(t.TempDir(), "doc.json")
	if err := bench.WriteFile(tmp, doc); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(tmp)
	if err != nil {
		t.Fatal(err)
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if bytes.Equal(got, want) {
		return
	}
	var diff strings.Builder
	for _, side := range []struct {
		mark         string
		these, other []byte
	}{{"-", want, got}, {"+", got, want}} {
		for _, ln := range strings.Split(string(side.these), "\n") {
			if !bytes.Contains(side.other, []byte(ln+"\n")) {
				fmt.Fprintf(&diff, "%s %s\n", side.mark, ln)
			}
		}
	}
	t.Errorf("bench document differs from %s; if the change is intentional, regenerate "+
		"with -update and say why in the PR:\n%s", golden, diff.String())
}

// TestRunnersCloseTheirSystems: every figure and throughput runner
// boots a system per call (a sweep one per point) and must close
// it once the results are harvested, or each leaves its parked processes
// behind as goroutines.
func TestRunnersCloseTheirSystems(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 3; i++ {
		RunFigure(FigureConfig{Fig: 7, Seed: 3, Size: 1 << 20})
	}
	RunFigure(FigureConfig{Fig: 8, Seed: 3, Size: 4 << 20})
	Fig7NetworkRecovery(1<<20, []time.Duration{time.Second, 2 * time.Second}, 3)
	Fig8DiskRecovery(4<<20, []time.Duration{time.Second}, 3)
	if after := runtime.NumGoroutine(); after > before {
		t.Errorf("%d goroutines before the runners, %d after", before, after)
	}
}

// TestFigureUninterrupted checks the no-kill path: no dips, recovered
// ratio reported as 100%, and a flat curve at the baseline.
func TestFigureUninterrupted(t *testing.T) {
	res := RunFigure(FigureConfig{Fig: 7, Seed: 3, Size: 8 << 20, Interval: 0})
	if res.Violation != nil {
		t.Fatalf("window series invariant violated: %v", res.Violation)
	}
	if !res.OK || res.Kills != 0 || len(res.Dips) != 0 {
		t.Fatalf("uninterrupted run: ok=%v kills=%d dips=%d", res.OK, res.Kills, len(res.Dips))
	}
	if res.RecoveredPct != 100 {
		t.Errorf("recovered pct %.1f, want 100 with no dips", res.RecoveredPct)
	}
	if res.BaselineMBps <= 0 {
		t.Errorf("baseline %.2f MB/s", res.BaselineMBps)
	}
}
