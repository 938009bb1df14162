package policy

import (
	"testing"
	"time"
)

// fuzzSeeds are the committed policies and the damaged ones.
func fuzzSeeds(f *testing.F) {
	for _, src := range []string{Fig2, backoff1s, backoff250ms} {
		f.Add(src)
	}
	for _, tc := range malformedScripts {
		f.Add(tc.src)
	}
}

// FuzzParse: any source parses to a script or fails with an error,
// never both and never a panic.
func FuzzParse(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if (s == nil) == (err == nil) {
			t.Fatalf("Parse(%q) = %v, %v: want exactly one of a script and an error", src, s, err)
		}
	})
}

// FuzzRun runs whatever parses with the host commands RS binds stubbed
// out and sleep a no-op: a run never panics and ends in a status, or in
// an error with a nonzero one.
func FuzzRun(f *testing.F) {
	fuzzSeeds(f)
	f.Fuzz(func(t *testing.T, src string) {
		s, err := Parse(src)
		if err != nil {
			return
		}
		opts := []Option{WithArgs("eth.rtl8139", "1", "3", "-a", "root@example.org"), WithSleep(func(time.Duration) {})}
		for _, name := range []string{"service", "mail", "log", "reboot"} {
			opts = append(opts, WithCommand(name, func([]string, string) (string, int) { return "", 0 }))
		}
		if status, err := NewInterp(opts...).Run(s); err != nil && status == 0 {
			t.Fatalf("Run(%q) failed with status 0: %v", src, err)
		}
	})
}
