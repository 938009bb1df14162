package resilientos

import (
	"bytes"
	"fmt"
	"os"
	"sync"
	"testing"
	"time"

	"resilientos/internal/fi"
	"resilientos/internal/obs/decision"
)

// fig7DecisionEvents runs a small Fig. 7 transfer under periodic driver
// kills with the recovery-decision trace captured in memory, and
// returns the event stream. Same shape as the figure goldens, smaller
// transfer: the decision log only cares about the recovery episodes,
// not the throughput envelope.
func fig7DecisionEvents(t *testing.T, seed int64) []decision.Event {
	t.Helper()
	sink := &decision.SliceSink{}
	res := RunFigure(FigureConfig{
		Fig:      7,
		Size:     32 << 20,
		Interval: time.Second,
		System:   Config{Seed: seed, Decisions: decision.NewRecorder(sink)},
	})
	if res.Violation != nil {
		t.Fatalf("window series invariant violated: %v", res.Violation)
	}
	if !res.OK {
		t.Fatalf("transfer failed integrity check: %d of %d bytes", res.Bytes, res.Size)
	}
	if res.Kills < 2 {
		t.Fatalf("only %d kills — run too short to exercise decisions", res.Kills)
	}
	return sink.Events()
}

// TestDecisionLogFig7Golden pins the seed-11 Fig. 7 decision log
// byte-for-byte against a committed golden file: any change to RS
// decision points, event stamping, or the canonical JSONL encoding
// shows up as a diff here. The log must also parse back losslessly and
// pass the offline well-formedness verifier. Regenerate with:
// go test -run DecisionLogFig7Golden -update
func TestDecisionLogFig7Golden(t *testing.T) {
	events := fig7DecisionEvents(t, 11)
	got := decision.Encode(events)
	const golden = "testdata/decisions_fig7_seed11.jsonl"
	if *updateGolden {
		if err := os.WriteFile(golden, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read golden (regenerate with -update): %v", err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("decision log differs from %s (%d vs %d bytes); "+
			"if the change is intentional, regenerate with -update",
			golden, len(got), len(want))
	}

	if problems := decision.Check(events); len(problems) > 0 {
		for _, p := range problems {
			t.Errorf("well-formedness: %s", p)
		}
	}
	// Lossless round trip: parse the canonical bytes, re-encode, compare.
	parsed, err := decision.ParseJSONL(bytes.NewReader(got))
	if err != nil {
		t.Fatalf("parse canonical log: %v", err)
	}
	if !bytes.Equal(decision.Encode(parsed), got) {
		t.Fatal("parse + re-encode is not the identity on the golden log")
	}

	// Every kill must leave a full detect -> action -> recovered trail.
	detects, outcomes := 0, 0
	for _, e := range events {
		switch e.Kind {
		case decision.KindDetect:
			detects++
		case decision.KindOutcome:
			outcomes++
			if e.Action != "recovered" {
				t.Errorf("outcome at %v: %q, want recovered (unlimited budget)", e.T, e.Action)
			}
		}
	}
	if detects == 0 || detects != outcomes {
		t.Errorf("%d detects vs %d outcomes — episodes must pair up", detects, outcomes)
	}
}

// TestDecisionLogRunToRun reruns the golden workload from scratch and
// demands a byte-identical decision log — the reproducibility property
// faultbench's -record / -replay is built on.
func TestDecisionLogRunToRun(t *testing.T) {
	a := decision.Encode(fig7DecisionEvents(t, 11))
	b := decision.Encode(fig7DecisionEvents(t, 11))
	if !bytes.Equal(a, b) {
		t.Fatalf("decision log not reproducible across runs: %d vs %d bytes", len(a), len(b))
	}
}

// TestDecisionWellFormedSWIFI is the property test: across a 64-seed
// SWIFI sweep against the network driver, every cell's decision log
// must pass the offline verifier — every episode opened by a detect,
// closed by exactly one terminal outcome, timestamps monotone — no
// matter which defect class the random corruption manifests as.
func TestDecisionWellFormedSWIFI(t *testing.T) {
	const seeds = 64
	var (
		mu       sync.Mutex
		detects  int
		outcomes int
		triggers int
	)
	t.Run("sweep", func(t *testing.T) {
		for seed := int64(1); seed <= seeds; seed++ {
			seed := seed
			t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
				t.Parallel()
				sink := &decision.SliceSink{}
				sys := New(Config{
					Seed:        seed,
					DisableDisk: true,
					DisableChar: true,
					Decisions:   decision.NewRecorder(sink),
				})
				sys.Run(3 * time.Second)
				sys.ServeFile(80, seed, 4<<20)
				var w WgetResult
				sys.Wget(DriverRTL8139, 80, seed, 4<<20, &w)

				injector := fi.New(sys.Env.Rand())
				injected, stall := 0, 0
				for injected < 8 && stall < 400 {
					sys.Run(50 * time.Millisecond)
					stall++
					vm := sys.DriverVM(DriverRTL8139)
					if vm == nil || sys.RS.ServiceEndpoint(DriverRTL8139) < 0 {
						continue // down or restarting: nothing to mutate
					}
					injector.InjectRandom(vm.Writable())
					injected++
					stall = 0
				}
				sys.Run(10 * time.Second) // let the last crash resolve

				events := sink.Events()
				if problems := decision.Check(events); len(problems) > 0 {
					for _, p := range problems {
						t.Errorf("decision log: %s", p)
					}
				}
				for i := 1; i < len(events); i++ {
					if events[i].T < events[i-1].T {
						t.Errorf("event %d at %v precedes event %d at %v",
							i, events[i].T, i-1, events[i-1].T)
					}
				}
				cellDetects, cellOutcomes, cellTriggers := 0, 0, 0
				for _, e := range events {
					switch e.Kind {
					case decision.KindDetect:
						cellDetects++
					case decision.KindOutcome:
						cellOutcomes++
					case decision.KindTrigger:
						cellTriggers++
					}
				}
				mu.Lock()
				detects += cellDetects
				outcomes += cellOutcomes
				triggers += cellTriggers
				mu.Unlock()
			})
		}
	})
	t.Logf("sweep: %d detects, %d outcomes, %d triggers across %d seeds",
		detects, outcomes, triggers, seeds)
	if detects == 0 {
		t.Fatal("SWIFI sweep produced no recovery episodes — injections not landing")
	}
	if outcomes != detects {
		t.Errorf("%d outcomes for %d detects across the sweep", outcomes, detects)
	}
}
