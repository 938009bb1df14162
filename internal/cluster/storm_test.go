package cluster

import (
	"fmt"
	"reflect"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/sim"
)

// TestStrikeSchedule holds the storm to what it now is: a pure function
// from (seed, storm, nodes, until) to one strike list per node.
func TestStrikeSchedule(t *testing.T) {
	const nic = resilientos.DriverRTL8139
	const until = settle + 10*time.Second
	cases := []struct {
		storm Storm
		nodes int
	}{
		{Storm{Kind: "correlated", Driver: nic, K: 2, Interval: time.Second}, 4},
		{Storm{Kind: "correlated", Driver: nic, K: 1, Interval: 333 * time.Millisecond}, 3},
		{Storm{Kind: "correlated", Driver: nic, K: 3, Interval: 7 * time.Millisecond}, 4},
		{Storm{Kind: "correlated", Driver: nic, K: 4, Interval: 2500 * time.Millisecond}, 4},
		{Storm{Kind: "poisson", Driver: nic, Mean: 400 * time.Millisecond}, 4},
		{Storm{Kind: "poisson", Driver: nic, Mean: minStormGap, Mode: ModeInject}, 2},
		{Storm{Kind: "none"}, 4},
	}
	for _, tc := range cases {
		for _, seed := range []int64{1, 7, 11} {
			name := fmt.Sprintf("storm %s nodes %d seed %d", tc.storm, tc.nodes, seed)
			got := strikeSchedule(seed, tc.storm, tc.nodes, until)
			if len(got) != tc.nodes {
				t.Fatalf("%s: %d strike lists", name, len(got))
			}
			if again := strikeSchedule(seed, tc.storm, tc.nodes, until); !reflect.DeepEqual(got, again) {
				t.Errorf("%s: two schedules of one seed differ", name)
			}
			total := 0
			for node, at := range got {
				total += len(at)
				prev := sim.Time(settle)
				for i, strike := range at {
					s := strike.at
					gap := s - prev
					switch {
					case s > until:
						t.Errorf("%s: node %d strike %d at %s, past %s", name, node, i, s, sim.Time(until))
					case gap <= 0:
						t.Errorf("%s: node %d strike %d at %s, not after %s", name, node, i, s, prev)
					case tc.storm.Kind == "poisson" && gap < minStormGap:
						t.Errorf("%s: node %d strike %d follows after %s, below %s", name, node, i, gap, minStormGap)
					case tc.storm.Kind == "correlated" && (s-settle)%tc.storm.Interval != 0:
						t.Errorf("%s: node %d strike %d at %s, off the %s wave grid", name, node, i, s, tc.storm.Interval)
					}
					prev = s
				}
			}
			switch tc.storm.Kind {
			case "none":
				if total != 0 {
					t.Errorf("%s: %d strikes", name, total)
				}
			case "poisson":
				// Every chain runs to until: its last strike is less than
				// a long gap (20 means: e⁻²⁰) short of it.
				for node, at := range got {
					if len(at) == 0 || until-at[len(at)-1].at > 20*tc.storm.Mean {
						t.Errorf("%s: node %d chain stops early: %d strikes", name, node, len(at))
					}
				}
			case "correlated":
				// The victim window rotates by one node a wave, so every n
				// waves hit every node k times; the waves left over add at
				// most one hit each, and at most k, to a node.
				waves := int((until - settle) / tc.storm.Interval)
				if total != waves*tc.storm.K {
					t.Errorf("%s: %d strikes over %d waves of %d", name, total, waves, tc.storm.K)
				}
				lo := waves / tc.nodes * tc.storm.K
				hi := lo + min(tc.storm.K, waves%tc.nodes)
				for node, at := range got {
					if len(at) < lo || len(at) > hi {
						t.Errorf("%s: node %d struck %d times, want %d..%d", name, node, len(at), lo, hi)
					}
				}
			}
		}
	}
	a := strikeSchedule(1, cases[4].storm, 4, until)
	if b := strikeSchedule(7, cases[4].storm, 4, until); reflect.DeepEqual(a, b) {
		t.Error("Poisson storms of seeds 1 and 7 are the same schedule")
	}
}

// TestBoundaryStrikesAreCounted: a strike whose instant is a window
// boundary, and one exactly at the end of the storm phase, are delivered
// to their members and counted in the window that ends at that instant —
// where a fleet that scheduled each strike as it went counted them.
func TestBoundaryStrikesAreCounted(t *testing.T) {
	cfg := testConfig()
	cfg.Arrivals = nil
	cfg.Horizon = 2 * time.Second // 10 windows of 200 ms; waves at 1 s (end of window 4) and 2 s (the end)
	cfg.Storm = Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 2, Interval: time.Second}
	c := New(cfg)
	defer c.Close()
	r := c.Run()
	if r.Kills != 4 || r.Crashes != 4 || r.Recovered != 4 {
		t.Fatalf("%d kills, %d crashes, %d recovered, want 4 of each", r.Kills, r.Crashes, r.Recovered)
	}
	for _, n := range c.Nodes() {
		if n.struck != len(n.strikes) || n.counted != len(n.strikes) {
			t.Errorf("%s: dealt itself %d and was booked %d of %d strikes", n.Name, n.struck, n.counted, len(n.strikes))
		}
	}
	segs := c.Segments()
	if len(segs) != 1 || len(segs[0].Windows) != 10 {
		t.Fatalf("window series: %d segments, want one of 10 windows", len(segs))
	}
	for _, w := range segs[0].Windows {
		want := int64(0)
		if w.Index == 4 || w.Index == 9 {
			want = 2
		}
		if got := w.Counter("fleet.kills"); got != want {
			t.Errorf("window %d [%s, %s): %d kills counted, want %d", w.Index, w.Start, w.End, got, want)
		}
	}
}

// TestReportNamesTheStormThatRan: a wave cannot hit more nodes than the
// fleet has; the report says how many it hit, not how many were asked for.
func TestReportNamesTheStormThatRan(t *testing.T) {
	cfg := testConfig()
	cfg.Horizon = time.Second
	cfg.Storm = Storm{Kind: "correlated", Driver: resilientos.DriverRTL8139, K: 99, Interval: time.Second}
	r := Run(cfg)
	if want := "correlated:eth.rtl8139,k=4,every=1s,mode=kill"; r.Storm != want {
		t.Errorf("report names storm %q, want %q", r.Storm, want)
	}
	if r.Kills != 4 {
		t.Errorf("%d kills, want one per node in the one wave", r.Kills)
	}
}
