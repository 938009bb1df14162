package resilientos

// The two design choices of DESIGN.md §5 that products set (`hb=` and
// `backoff=`), each pinned to its exact virtual-time outcome.

import (
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/kernel"
	"resilientos/internal/policy"
)

// TestHeartbeatPeriodSetsDetection: a service that never answers a ping
// is detected (N+1) heartbeat periods after it starts, N = 3 misses — the
// detection latency a shorter period buys with more ping traffic.
func TestHeartbeatPeriodSetsDetection(t *testing.T) {
	for _, tc := range []struct {
		period, detect time.Duration
	}{
		{250 * time.Millisecond, time.Second},
		{500 * time.Millisecond, 2 * time.Second},
		{time.Second, 4 * time.Second},
		{2 * time.Second, 8 * time.Second},
	} {
		t.Run(tc.period.String(), func(t *testing.T) {
			sys := New(Config{HeartbeatPeriod: tc.period, DisableNet: true, DisableDisk: true})
			defer sys.Close()
			sys.Run(2 * time.Second)
			sys.RS.StartService(core.ServiceConfig{
				Label:           "wedge",
				Binary:          func(c *kernel.Ctx) { c.Sleep(time.Hour) }, // never answers pings
				Priv:            kernel.Privileges{AllowAllIPC: true},
				HeartbeatPeriod: tc.period,
				HeartbeatMisses: 3,
			})
			start := sys.Env.Now()
			sys.Run(time.Minute)
			for _, e := range sys.RS.Events() {
				if e.Label == "wedge" && e.Defect == core.DefectHeartbeat {
					if got := e.Time - start; got != tc.detect {
						t.Fatalf("detected after %v, want %v", got, tc.detect)
					}
					return
				}
			}
			t.Fatal("stuck service never detected")
		})
	}
}

// TestBackoffDampensCrashLoop: a service that crashes 10 ms after every
// start is restarted 3,000 times in 30 s when RS restarts it directly,
// and 4 times under an uncapped Fig. 2-style exponential backoff script.
func TestBackoffDampensCrashLoop(t *testing.T) {
	backoff := policy.MustParse(`
sleep $((1 << ($3 - 1)))
service restart $1
`)
	for _, tc := range []struct {
		name     string
		script   *policy.Script
		restarts int
	}{
		{"direct", nil, 3000},
		{"backoff", backoff, 4},
	} {
		t.Run(tc.name, func(t *testing.T) {
			sys := New(Config{DisableNet: true, DisableDisk: true, DisableChar: true})
			defer sys.Close()
			sys.RS.StartService(core.ServiceConfig{
				Label:  "crashy",
				Binary: func(c *kernel.Ctx) { c.Sleep(10 * time.Millisecond); c.Panic("bug") },
				Priv:   kernel.Privileges{AllowAllIPC: true},
				Policy: tc.script,
			})
			sys.Run(30 * time.Second)
			if got := len(sys.RS.Events()); got != tc.restarts {
				t.Fatalf("%d restarts in 30s, want %d", got, tc.restarts)
			}
		})
	}
}
