package main

import (
	"strings"
	"testing"
)

// §6.3 in one run: lpd gets every job on paper despite two printer kills,
// the mp3 player plays on through one audible hiccup (the audio kill's),
// and the burn the burner's death interrupted fails with an error the
// user is told about.
func TestPrintfarmCharacterDeviceOutcomes(t *testing.T) {
	var out strings.Builder
	run(&out)
	got := out.String()
	for _, want := range []string{
		"jobs submitted: 5/5",
		"bytes played: 5292000, driver failures ridden out: 1, audible hiccups: 1\n",
		"burn failed, reported to user: burn failed at 114688/524288 bytes",
		"chr.printer  defect=killed recovered=true",
		"chr.audio    defect=killed recovered=true",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if strings.Contains(got, "on paper: false") {
		t.Errorf("a job was lost:\n%s", got)
	}
}
