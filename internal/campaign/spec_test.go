package campaign

import (
	"bytes"
	"reflect"
	"strings"
	"testing"
	"time"

	"resilientos/internal/check"
	"resilientos/internal/drvlib"
	"resilientos/internal/fi"
)

// sweepBaseline is the campaign of the committed counterfactual sweep
// (faultbench -override), spelled out in full.
const sweepBaseline = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,hb=500ms,misses=3,budget=0,backoff=1s,policy=on,mech=respawn,hw=off"

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
	if got := base.Spec(); got != sweepBaseline {
		t.Fatalf("baseline spec = %q, want %q", got, sweepBaseline)
	}
	parsed := mustParse(t, base.Spec())
	if got := parsed.Spec(); got != sweepBaseline {
		t.Fatalf("Spec(ParseSpec(Spec())) = %q, want %q", got, sweepBaseline)
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
		re.System.Spec() != "hb=off,misses=3,budget=2,policy=off,mech=standby,hw=on" {
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
// pair two campaign commands used to read in opposite ways.
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
		"seed=11 victims=eth.dp8390",  // space-separated is the old recording header
		"seed=11,per-cell=0",          // per-cell below 1
		"seed=11,hb=banana",           // a system key's bad value (resilientos.Config rejects it)
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
		"seed=0",                      // the system would boot it as seed 1
		"seed=0;1,victims=eth.dp8390,faults=bit-flip,per-cell=3", // two identical cells
		"seed=1;1",                      // a seed given twice
		"victims=eth.dp8390;eth.dp8390", // a victim given twice
		"faults=bit-flip;bit-flip",      // a fault class given twice
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
	base := mustParse(t, sweepBaseline)
	sc, err := base.Override("hb=250ms, budget=1")
	if err != nil {
		t.Fatal(err)
	}
	if sc.System.HeartbeatPeriod != 250*time.Millisecond || sc.System.MaxRestarts != 1 {
		t.Fatalf("override not applied: hb=%v budget=%d", sc.System.HeartbeatPeriod, sc.System.MaxRestarts)
	}
	// The base is untouched (Override works on a copy) and everything
	// the override did not name is kept.
	if base.Spec() != sweepBaseline {
		t.Fatalf("baseline mutated: %s", base.Spec())
	}
	if want := strings.NewReplacer("hb=500ms", "hb=250ms", "budget=0", "budget=1").Replace(sweepBaseline); sc.Spec() != want {
		t.Fatalf("override = %q, want %q", sc.Spec(), want)
	}

	sc2, err := base.Override("mech=microreboot")
	if err != nil || sc2.System.Mechanism != drvlib.MechMicroreboot {
		t.Fatalf("mech override: mech=%v err=%v", sc2.System.Mechanism, err)
	}

	for _, bad := range []string{"", ",", "hb", "seeds=0", "warp=9", "mech=warp"} {
		if _, err := base.Override(bad); err == nil {
			t.Errorf("Override(%q) accepted", bad)
		}
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
	if got.FaultsPerCell != 37 ||
		got.System.Spec() != "hb=250ms,misses=3,budget=2,backoff=2s,policy=on,mech=microreboot,hw=on" {
		t.Fatalf("repro %q lost a knob: %+v", line, got)
	}
}

// FuzzParseSpec: the grammar is read from command lines and from the
// header of recording files, so parsing never panics, and whatever it
// accepts renders to a spec that is a fixed point of parse-then-render.
func FuzzParseSpec(f *testing.F) {
	for _, seed := range []string{
		"", sweepBaseline, "seeds=64,victims=all,faults=all,per-cell=25",
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
