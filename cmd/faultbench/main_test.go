package main

import (
	"errors"
	"flag"
	"testing"
)

// Every cmd must answer -h with its flag documentation and a clean exit
// (main treats flag.ErrHelp as success).
func TestHelp(t *testing.T) {
	if err := run([]string{"-h"}); !errors.Is(err, flag.ErrHelp) {
		t.Fatalf("run(-h) = %v, want flag.ErrHelp", err)
	}
}

// A mistyped victim must fail the run, not print an all-zero table and
// exit 0.
func TestMistypedVictimIsAnError(t *testing.T) {
	if err := run([]string{"-matrix", "victims=bogus,per-cell=1", "-q"}); err == nil {
		t.Fatal("run(victims=bogus) succeeded")
	}
}
