package main

import (
	"strings"
	"testing"
)

// The read runs to completion across a live driver update, and RS books
// the update as defect class 6 with no repetition (so no backoff).
func TestDynupdateReadContinuesAcrossUpdate(t *testing.T) {
	var out strings.Builder
	run(&out)
	got := out.String()
	for _, want := range []string{
		"service update disk.sata (I/O in progress",
		"dd finished: 48 MB, err=<nil>",
		"disk.sata: defect=update (class 6), repetition=0",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
}
