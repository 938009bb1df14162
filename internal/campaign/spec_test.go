package campaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"resilientos"
	"resilientos/internal/check"
	"resilientos/internal/drvlib"
	"resilientos/internal/fi"
	"resilientos/internal/policy"
)

// whatifBaseline is cmd/whatif's standard scenario, the spec most
// recordings carry.
const whatifBaseline = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,hb=500ms,misses=3,budget=0,backoff=1s,policy=on,mech=respawn,hw=off"

func mustParse(t *testing.T, spec string) Config {
	t.Helper()
	cfg, err := ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return cfg
}

func TestSpecRoundTrip(t *testing.T) {
	base := mustParse(t, "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,backoff=1s")
	if got := base.Spec(); got != whatifBaseline {
		t.Fatalf("baseline spec = %q, want %q", got, whatifBaseline)
	}
	parsed := mustParse(t, base.Spec())
	if got := parsed.Spec(); got != whatifBaseline {
		t.Fatalf("Spec(ParseSpec(Spec())) = %q, want %q", got, whatifBaseline)
	}
	if !reflect.DeepEqual(Cells(parsed), Cells(base)) {
		t.Fatalf("round trip changed the matrix: %v vs %v", Cells(parsed), Cells(base))
	}

	// Overridden scenarios — including hb=off, multi-seed, the mixed
	// class and the hardware gate — must round-trip too: the spec is the
	// replay-file header and the repro line.
	sc, err := base.Override("seed=3;7;11,faults=random;elided-instruction,hb=off,policy=off,budget=2,mech=standby,hw=on")
	if err != nil {
		t.Fatal(err)
	}
	re := mustParse(t, sc.Spec())
	if re.Spec() != sc.Spec() {
		t.Fatalf("round trip = %q, want %q", re.Spec(), sc.Spec())
	}
	if !reflect.DeepEqual(re.Seeds, []int64{3, 7, 11}) ||
		!reflect.DeepEqual(re.FaultTypes, []fi.FaultType{fi.FaultRandom, fi.FaultElide}) ||
		re.System.HeartbeatPeriod >= 0 || re.System.NetPolicy != nil || re.System.MaxRestarts != 2 ||
		re.System.Mechanism != drvlib.MechStandby || re.System.Machine != hwGate {
		t.Fatalf("round trip lost a key: %+v", re)
	}
	for _, want := range []string{"hb=off", "policy=off", "mech=standby", "hw=on", "faults=random;elided-instruction"} {
		if !strings.Contains(sc.Spec(), want) {
			t.Fatalf("spec %q should contain %q", sc.Spec(), want)
		}
	}
	if strings.Contains(sc.Spec(), "backoff=") {
		t.Fatalf("spec %q names a backoff with no script attached", sc.Spec())
	}

	// The empty spec and the zero Config are the default matrix.
	def := mustParse(t, "")
	const wantDef = "seed=1,victims=eth.dp8390;eth.rtl8139;disk.sata," +
		"faults=src-register;dst-register;garbled-pointer;stale-register;inverted-loop;bit-flip;elided-instruction," +
		"per-cell=10,hb=500ms,misses=3,budget=0,policy=off,mech=respawn,hw=off"
	if got := def.Spec(); got != wantDef {
		t.Fatalf("default spec = %q, want %q", got, wantDef)
	}
	if all := mustParse(t, "victims=all,faults=all"); all.Spec() != wantDef {
		t.Fatalf("victims=all,faults=all = %q, want the default", all.Spec())
	}
}

// TestSeedsCountVsSeedList: seeds=N is a count, seed=a;b a list — the
// pair faultbench and whatif used to read in opposite ways.
func TestSeedsCountVsSeedList(t *testing.T) {
	if got := mustParse(t, "seeds=3").Seeds; !reflect.DeepEqual(got, []int64{1, 2, 3}) {
		t.Errorf("seeds=3 -> %v, want 1..3", got)
	}
	if got := mustParse(t, "seed=3").Seeds; !reflect.DeepEqual(got, []int64{3}) {
		t.Errorf("seed=3 -> %v, want [3]", got)
	}
	if got := mustParse(t, "seed=3; 7 ;-2").Seeds; !reflect.DeepEqual(got, []int64{3, 7, -2}) {
		t.Errorf("seed=3;7;-2 -> %v", got)
	}
	if got := mustParse(t, "seeds=3,seed=9").Seeds; !reflect.DeepEqual(got, []int64{9}) {
		t.Errorf("a key given twice must keep the last: %v", got)
	}
}

func TestParseSpecErrors(t *testing.T) {
	for _, spec := range []string{
		",",                           // no key at all
		"seed=x,victims=eth.dp8390",   // bad seed
		"seed=11,faults=nope",         // unknown fault class
		"seed=11,nonsense",            // not key=value
		"seed=11,warp=9",              // unknown key
		"seed=11,victim=eth.dp8390",   // unknown key: the singular is not an alias
		"seed=11 victims=eth.dp8390",  // space-separated is the old whatif header
		"seed=11,per-cell=0",          // per-cell below 1
		"seed=11,hb=banana",           // bad duration
		"seed=11,hb=0s",               // a zero period is not a period
		"seed=11,hb=-1s",              // negative duration
		"seed=11,backoff=9000h",       // beyond the bound: 8x would overflow
		"seed=11,policy=sometimes",    // bad policy value
		"seed=11,policy=custom",       // what Spec prints for a foreign script
		"seed=11,mech=teleport",       // unknown mechanism
		"seed=11,hw=maybe",            // bad gate value
		"seed=11,misses=0",            // misses below 1
		"seed=11,budget=-1",           // negative budget
		"seeds=0",                     // seed count below 1
		"seeds=1;2",                   // a list under the count key
		"seeds=99999999999",           // count beyond the bound
		"seed=",                       // empty list
		"seed=1;;2",                   // empty item
		"victims=",                    // empty list
		"faults=",                     // empty list
		"victims=bogus",               // a mistyped victim is not an empty, green campaign
		"victims=eth.dp8390;disk.ram", // guarded, but no tracked ucode VM to inject into
		"victims=all;eth.dp8390",      // all is a value, not an item
		"faults=bit-flip;all",         // likewise
		"salvage=on",                  // not a key (and must not become one by accident)
	} {
		if cfg, err := ParseSpec(spec); err == nil {
			t.Errorf("ParseSpec(%q) accepted: %s", spec, cfg.Spec())
		}
	}
	// The rejection of a mistyped victim names the known ones.
	_, err := ParseSpec("victims=bogus,per-cell=1")
	for _, v := range DefaultVictims {
		if err == nil || !strings.Contains(err.Error(), v) {
			t.Fatalf("victims=bogus: error %v does not name %s", err, v)
		}
	}
}

func TestApplyOverride(t *testing.T) {
	base := mustParse(t, whatifBaseline)
	sc, err := base.Override("hb=250ms, budget=1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.System.HeartbeatPeriod != 250*time.Millisecond || sc.System.MaxRestarts != 1 {
		t.Fatalf("override not applied: hb=%v budget=%d", sc.System.HeartbeatPeriod, sc.System.MaxRestarts)
	}
	// The base is untouched (Override works on a copy) and everything
	// the override did not name is kept.
	if base.Spec() != whatifBaseline {
		t.Fatalf("baseline mutated: %s", base.Spec())
	}
	if want := strings.NewReplacer("hb=500ms", "hb=250ms", "budget=0", "budget=1").Replace(whatifBaseline); sc.Spec() != want {
		t.Fatalf("override = %q, want %q", sc.Spec(), want)
	}

	sc2, err := base.Override("mech=microreboot")
	if err != nil || sc2.System.Mechanism != drvlib.MechMicroreboot {
		t.Fatalf("mech override: mech=%v err=%v", sc2.System.Mechanism, err)
	}

	// backoff and policy name one script; like every key they apply left
	// to right: a base attaches it, off detaches it, on keeps what is there.
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
	off, _ := base.Override("policy=off")
	if on, _ := off.Override("policy=on"); !strings.Contains(on.Spec(), "backoff=1s,policy=on") {
		t.Errorf("policy=on over a direct-restart base = %q, want the standard base", on.Spec())
	}

	for _, bad := range []string{"", ",", "hb", "hb=0s", "misses=0", "budget=-1", "warp=9", "mech=warp"} {
		if _, err := base.Override(bad); err == nil {
			t.Errorf("Override(%q) accepted", bad)
		}
	}
}

// TestSpecOfForeignConfig: a Config built in code around something the
// grammar cannot name must not render as if it were standard.
func TestSpecOfForeignConfig(t *testing.T) {
	cfg := Config{System: resilientos.Config{NetPolicy: policy.MustParse("service restart $1\n")}}
	cfg.System.Machine.NICConfuseProb = 0.1
	spec := cfg.Spec()
	if !strings.Contains(spec, "policy=custom") || !strings.Contains(spec, "hw=custom") {
		t.Fatalf("spec %q hides a foreign script or machine", spec)
	}
	if _, err := ParseSpec(spec); err == nil {
		t.Fatalf("ParseSpec accepted %q", spec)
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

// TestReproLineReproduces: the repro line of a violation report, fed back
// through ParseSpec, must name exactly the reported cell — per-cell and
// every knob included — not a ten-fault default-knob cousin of it.
func TestReproLineReproduces(t *testing.T) {
	cfg := mustParse(t, "seeds=4,victims=eth.dp8390;eth.rtl8139,faults=random;bit-flip,per-cell=37,hb=250ms,budget=2,backoff=2s,mech=microreboot,hw=on")
	cfg.fill()
	cell := Cells(cfg)[9] // seed 3, eth.dp8390, bit-flip
	rep := merge(cfg, []CellResult{{Cell: cell, Violations: []ViolationReport{{
		Cell:      cell,
		Violation: check.Violation{Invariant: "test"},
	}}}})
	var b bytes.Buffer
	rep.Render(&b)
	_, line, ok := strings.Cut(b.String(), "   repro: -matrix ")
	if !ok {
		t.Fatalf("no repro line in:\n%s", b.String())
	}
	line, _, _ = strings.Cut(line, "\n")

	got := mustParse(t, line)
	cells := Cells(got)
	want := cell
	want.Index = 0
	if len(cells) != 1 || cells[0] != want {
		t.Fatalf("repro %q names cells %v, want exactly %v", line, cells, want)
	}
	one := cfg
	one.Seeds, one.Victims, one.FaultTypes = []int64{cell.Seed}, []string{cell.Victim}, []fi.FaultType{cell.Fault}
	if got.Spec() != one.Spec() {
		t.Fatalf("repro %q parses to %q, want %q", line, got.Spec(), one.Spec())
	}
	if got.FaultsPerCell != 37 || got.System.HeartbeatPeriod != 250*time.Millisecond ||
		got.System.MaxRestarts != 2 || got.System.Mechanism != drvlib.MechMicroreboot ||
		got.System.Machine != hwGate || got.System.NetPolicy == nil ||
		got.System.NetPolicy.Source() != backoffScript(2*time.Second).Source() {
		t.Fatalf("repro %q lost a knob: %+v", line, got)
	}
}

// FuzzParseSpec: the grammar is read from command lines and from the
// header of recording files, so parsing never panics, and whatever it
// accepts renders to a spec that is a fixed point of parse-then-render.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", whatifBaseline, "seeds=64,victims=all,faults=all,per-cell=25",
		"seed=1,victims=eth.dp8390,faults=random,per-cell=12500,hw=on",
		"seed=3;7,hb=off,policy=off,mech=standby", "backoff=0.3s", "seeds=0", "seed=;", "a=b", "=,=", "hb=1e9h",
	} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, spec string) {
		cfg, err := ParseSpec(spec)
		if err != nil {
			return
		}
		once := cfg.Spec()
		again, err := ParseSpec(once)
		if err != nil {
			t.Fatalf("ParseSpec(%q) accepted, but its rendering %q is rejected: %v", spec, once, err)
		}
		if twice := again.Spec(); twice != once {
			t.Fatalf("Spec is not a fixed point:\n in  %q\n 1st %q\n 2nd %q", spec, once, twice)
		}
		if !reflect.DeepEqual(Cells(again), Cells(cfg)) {
			t.Fatalf("rendering %q of %q names a different matrix", once, spec)
		}
	})
}
