package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite EXPERIMENTS.md's Fig. 9 block from the current source")

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// The Fig. 9 table and the per-package totals render from this module's
// own source, and the TOTAL row sums each of the three columns.
func TestFig9Table(t *testing.T) {
	var out strings.Builder
	if err := run([]string{"-all"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Fig. 9: reengineering effort", "All packages (code / comment / blank):", "internal/core", "TOTAL"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output lacks %q:\n%s", want, out.String())
		}
	}
	_, pkgs, _ := strings.Cut(out.String(), "All packages (code / comment / blank):\n")
	var sum [3]int
	var total string
	for _, line := range strings.Split(strings.TrimSuffix(pkgs, "\n"), "\n") {
		f := strings.Fields(line)
		if len(f) > 0 && f[0] == "TOTAL" {
			total = line
			break
		}
		if len(f) != 4 {
			t.Fatalf("package row %q: want name, code, comment, blank", line)
		}
		for i := range sum {
			n, err := strconv.Atoi(f[i+1])
			if err != nil {
				t.Fatalf("package row %q: %v", line, err)
			}
			sum[i] += n
		}
	}
	if want := fmt.Sprintf("  %-32s %6d %6d %6d", "TOTAL", sum[0], sum[1], sum[2]); total != want {
		t.Errorf("TOTAL row = %q, want %q", total, want)
	}
}

// TestExperimentsFig9MatchesLocstats keeps EXPERIMENTS.md's measured
// Fig. 9 table, between the <!-- bench:fig9 --> markers, equal to what
// this command counts in the module's source; -update rewrites it.
func TestExperimentsFig9MatchesLocstats(t *testing.T) {
	root, err := moduleRoot(".")
	if err != nil {
		t.Fatal(err)
	}
	rows, err := table(root)
	if err != nil {
		t.Fatal(err)
	}
	var want strings.Builder
	want.WriteString("| Component | Total LoC | Recovery LoC | % |\n|---|---|---|---|\n")
	for _, r := range rows {
		fmt.Fprintf(&want, "| %s | %d | %d | %s |\n", r.Name, r.Total, r.Recovery, r.pct())
	}

	path := filepath.Join(root, "EXPERIMENTS.md")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	md := string(raw)
	const open, end = "<!-- bench:fig9 -->\n", "<!-- /bench:fig9 -->"
	i, j := strings.Index(md, open), strings.Index(md, end)
	if i < 0 || j < i {
		t.Fatalf("EXPERIMENTS.md: markers %q … %q not found", strings.TrimSpace(open), end)
	}
	i += len(open)
	if md[i:j] == want.String() {
		return
	}
	if !*update {
		t.Fatalf("EXPERIMENTS.md's Fig. 9 block is not what locstats counts "+
			"(go test ./cmd/locstats -run TestExperimentsFig9MatchesLocstats -update):\n%s", want.String())
	}
	if err := os.WriteFile(path, []byte(md[:i]+want.String()+md[j:]), 0o644); err != nil {
		t.Fatal(err)
	}
}
