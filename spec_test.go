package resilientos

import (
	"reflect"
	"strings"
	"testing"
	"time"

	"resilientos/internal/core"
	"resilientos/internal/policy"
)

// standardSpec is the zero Config's rendering: the system every runner
// boots unless a knob says otherwise.
const standardSpec = "hb=500ms,misses=3,budget=0,policy=off,mech=respawn,hw=off"

func TestConfigOverride(t *testing.T) {
	if got := (Config{}).Spec(); got != standardSpec {
		t.Fatalf("zero Config spec = %q, want %q", got, standardSpec)
	}
	cfg, err := Config{}.Override("hb=off,misses=5,budget=2,backoff=2s,mech=standby,hw=on")
	if err != nil {
		t.Fatal(err)
	}
	if cfg.HeartbeatPeriod >= 0 || cfg.HeartbeatMisses != 5 || cfg.MaxRestarts != 2 ||
		cfg.NetPolicy.Source() != backoffScript(2*time.Second).Source() ||
		cfg.Mechanism != core.MechStandby || !cfg.Machine.ConfusableNICs {
		t.Fatalf("override lost a key: %+v", cfg)
	}
	const want = "hb=off,misses=5,budget=2,backoff=2s,policy=on,mech=standby,hw=on"
	if cfg.Spec() != want {
		t.Fatalf("spec = %q, want %q", cfg.Spec(), want)
	}
	if again, err := (Config{}).Override(cfg.Spec()); err != nil || again.Spec() != want {
		t.Fatalf("round trip = %q, %v; want %q", again.Spec(), err, want)
	}
	// Keys the grammar does not name are kept: the seeds are not knobs.
	seeded := Config{Seed: 7}
	seeded.Machine.DiskSeed = 9
	if seeded, _ := seeded.Override("hb=1s,hw=on"); seeded.Seed != 7 || seeded.Machine.DiskSeed != 9 {
		t.Fatalf("Override dropped a seed: %d, disk %d", seeded.Seed, seeded.Machine.DiskSeed)
	}

	// backoff and policy name one script; like every key they apply left
	// to right: a base attaches it, off detaches it, on keeps what is there.
	base, _ := Config{}.Override("backoff=1s")
	for ov, want := range map[string]string{
		"backoff=4s":            "backoff=4s,policy=on",
		"policy=off":            "policy=off",
		"policy=off,backoff=4s": "backoff=4s,policy=on",
		"backoff=4s,policy=off": "policy=off",
		"policy=on":             "backoff=1s,policy=on",
		"policy=on,backoff=2s":  "backoff=2s,policy=on",
		"backoff=1.5s":          "backoff=1.5s,policy=on",
		"backoff=1ns":           "backoff=1ns,policy=on",
		"backoff=24h":           "backoff=24h0m0s,policy=on",
	} {
		got, err := base.Override(ov)
		if err != nil {
			t.Errorf("Override(%q): %v", ov, err)
			continue
		}
		if !strings.Contains(got.Spec(), ","+want+",mech=") {
			t.Errorf("Override(%q) = %q, want %q", ov, got.Spec(), want)
		}
	}
	if on, _ := (Config{}).Override("policy=on"); !strings.Contains(on.Spec(), "backoff=1s,policy=on") {
		t.Errorf("policy=on over a direct-restart base = %q, want the standard base", on.Spec())
	}

	for _, spec := range []string{
		"", ",", " , ", // no key at all
		"hb",            // not key=value
		"hb=banana",     // bad duration
		"hb=0s",         // a zero period is not a period
		"hb=-1s",        // negative duration
		"backoff=9000h", // beyond the bound: 8x would overflow
		"policy=sometimes",
		"policy=custom", // what Spec prints for a foreign script
		"mech=teleport",
		"hw=maybe",
		"misses=0",   // misses below 1
		"budget=-1",  // negative budget
		"salvage=on", // not a key (and must not become one by accident)
		"seeds=2",    // a campaign's matrix key, not a system knob
	} {
		if cfg, err := (Config{}).Override(spec); err == nil {
			t.Errorf("Override(%q) accepted: %s", spec, cfg.Spec())
		}
	}
	_, err = Config{}.Override("seeds=2")
	if err == nil || !strings.Contains(err.Error(), `unknown key "seeds"`) {
		t.Errorf("seeds=2: error %v does not name the key", err)
	}
}

// TestSpecOfForeignConfig: a Config built in code around a policy script
// the grammar cannot name must not render as if it were standard.
func TestSpecOfForeignConfig(t *testing.T) {
	cfg := Config{NetPolicy: policy.MustParse("service restart $1\n")}
	spec := cfg.Spec()
	if !strings.Contains(spec, "policy=custom") {
		t.Fatalf("spec %q hides a foreign script", spec)
	}
	if _, err := (Config{}).Override(spec); err == nil {
		t.Fatalf("Override accepted %q", spec)
	}
}

// TestBackoffScript executes the generated policy against a stub service
// command and checks the exponential backoff arms: the sleep doubles per
// repetition, caps at 8x base, is skipped entirely for dynamic updates
// (reason 6), and always ends in a restart of the failed component.
func TestBackoffScript(t *testing.T) {
	script := backoffScript(500 * time.Millisecond)
	cases := []struct {
		reason, repetition string
		sleep              string // expected sleep argv[1], "" = no sleep
	}{
		{"2", "1", "0.5"},
		{"2", "2", "1"},
		{"2", "3", "2"},
		{"2", "4", "4"},
		{"2", "9", "4"}, // capped at the fourth arm
		{"6", "1", ""},  // update: no backoff
	}
	for _, tc := range cases {
		var steps [][]string
		var restarts [][]string
		in := policy.NewInterp(
			policy.WithArgs("eth.rtl8139", tc.reason, tc.repetition),
			policy.WithTrace(func(argv []string, status int) {
				steps = append(steps, append([]string(nil), argv...))
			}),
			policy.WithCommand("service", func(argv []string, stdin string) (string, int) {
				restarts = append(restarts, append([]string(nil), argv...))
				return "", 0
			}),
		)
		status, err := in.Run(script)
		if err != nil {
			t.Fatalf("reason=%s rep=%s: %v", tc.reason, tc.repetition, err)
		}
		if status != 0 {
			t.Fatalf("reason=%s rep=%s: exit %d", tc.reason, tc.repetition, status)
		}
		var slept string
		for _, argv := range steps {
			if argv[0] == "sleep" {
				slept = argv[1]
			}
		}
		if slept != tc.sleep {
			t.Errorf("reason=%s rep=%s: slept %q, want %q", tc.reason, tc.repetition, slept, tc.sleep)
		}
		want := [][]string{{"service", "restart", "eth.rtl8139"}}
		if !reflect.DeepEqual(restarts, want) {
			t.Errorf("reason=%s rep=%s: service calls %v, want %v", tc.reason, tc.repetition, restarts, want)
		}
	}
	if base, ok := backoffBase(script); !ok || base != 500*time.Millisecond {
		t.Errorf("backoffBase = %v, %v; want 500ms", base, ok)
	}
}

// FuzzConfigOverride: the system keys are read from command lines and
// recording headers, so Override never panics, and whatever it accepts
// renders to a spec that is a fixed point of override-then-render.
// FuzzParseSpec (internal/campaign) covers the grammar composed with the
// matrix keys.
func FuzzConfigOverride(f *testing.F) {
	for _, seed := range []string{
		standardSpec, "hb=off,policy=off,mech=standby", "backoff=0.3s", "backoff=1s,policy=on,hw=on",
		"misses=2,budget=1", "policy=on", "hb=1e9h", "seeds=2", "a=b", "=,=", ",",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := Config{}.Override(spec)
		if err != nil {
			return
		}
		once := cfg.Spec()
		again, err := Config{}.Override(once)
		if err != nil {
			t.Fatalf("Override(%q) accepted, but its rendering %q is rejected: %v", spec, once, err)
		}
		if twice := again.Spec(); twice != once {
			t.Fatalf("Spec is not a fixed point:\n in  %q\n 1st %q\n 2nd %q", spec, once, twice)
		}
	})
}
