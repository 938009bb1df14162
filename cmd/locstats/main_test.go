package main

import (
	"errors"
	"flag"
	"io"
	"strings"
	"testing"
)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}, io.Discard); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// The Fig. 9 table and the per-package totals render from this module's
// own source.
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
}
