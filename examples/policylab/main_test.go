package main

import (
	"strings"
	"testing"
)

// The crash-looping service is restarted under the Fig. 2 policy until
// its restart budget runs out, with one alert per restart mailed, and the
// stateful counter resumes from its data-store backup after each kill.
func TestPolicylabBackoffAndStateRecovery(t *testing.T) {
	var out strings.Builder
	run(&out)
	got := out.String()
	for _, want := range []string{
		"flaky    defect=exit/panic repetition=5 recovered=false gaveUp=true",
		"recovered from the data store at [20 40]",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("output lacks %q:\n%s", want, got)
		}
	}
	if n := strings.Count(got, `to ops@example.org: "Failure Alert"`); n != 4 {
		t.Errorf("%d alerts mailed, want 4:\n%s", n, got)
	}
}
