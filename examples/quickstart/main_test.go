package main

import (
	"strings"
	"testing"
)

// The scene's promise: the read completes intact while the disk driver is
// killed under it, and every kill is recovered transparently.
func TestQuickstartReadSurvivesKills(t *testing.T) {
	var out strings.Builder
	run(&out)
	got := out.String()
	for _, want := range []string{"read 32 MB", "err=<nil>", "transparently recovered=true"} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "recovered=false") {
		t.Errorf("a kill went unrecovered:\n%s", got)
	}
}
