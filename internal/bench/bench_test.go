package bench

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"resilientos/internal/obs"
	"resilientos/internal/sim"
)

func sample() Doc {
	d := New("bench_test", map[string]string{"seed": "11", "storm": "correlated:eth.rtl8139,k=2"})
	d.Add("fig7/mbps", 9.844108571428572, "MB/s", Higher)
	d.Count("fig7/kills", 3)
	d.Latency("fig7/recovery", obs.LatencySummary{
		Count: 3, Mean: sim.Time(120 * time.Millisecond), P50: sim.Time(120 * time.Millisecond),
		P95: sim.Time(120 * time.Millisecond), P99: sim.Time(120 * time.Millisecond), Max: sim.Time(120 * time.Millisecond),
	})
	d.Add("override/hb=250ms/availability_pct", 84.61538461538461, "%", Higher)
	return d
}

// One metric per line, in the producer's order, and nothing that varies
// between runs: the property `diff` and `cmp` against a golden rest on.
func TestEncodeOneMetricPerLine(t *testing.T) {
	d := sample()
	b, err := encode(d)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSuffix(string(b), "\n"), "\n")
	if want := 5 + len(d.Metrics) + 2; len(lines) != want {
		t.Fatalf("%d lines, want %d:\n%s", len(lines), want, b)
	}
	for i, m := range d.Metrics {
		ln := lines[5+i]
		if !strings.Contains(ln, `"name":"`+m.Name+`"`) || strings.Count(ln, `"name"`) != 1 {
			t.Errorf("line %d = %q, want exactly metric %q", 5+i, ln, m.Name)
		}
	}
	if again, _ := encode(sample()); !bytes.Equal(b, again) {
		t.Error("two encodings of the same document differ")
	}
	got, err := parse(b)
	if err != nil {
		t.Fatal(err)
	}
	if v, ok := got.Value("fig7/mbps"); !ok || v != 9.844108571428572 {
		t.Errorf("fig7/mbps read back as %v (present %v): values must survive bit for bit", v, ok)
	}
	if v, ok := got.Value("fig7/recovery_p95_ms"); !ok || v != 120 {
		t.Errorf("fig7/recovery_p95_ms = %v (present %v), want 120", v, ok)
	}
	if _, ok := got.Value("absent"); ok {
		t.Error("Value found a metric that is not there")
	}
}

// ReadFile is a never-panic parser that accepts only what WriteFile can
// have written.
func TestParseRejects(t *testing.T) {
	metric := func(m string) string {
		return `{"schema":"` + Schema + `","source":"t","params":{},"metrics":[` + m + `]}`
	}
	const good = `{"name":"a/b","value":1,"unit":"count","better":"lower"}`
	cases := []struct{ name, in, want string }{
		{"empty", ``, "EOF"},
		{"not json", `metrics`, "invalid character"},
		{"unknown schema", `{"schema":"resilientos/bench/fleet/v1","source":"t","params":{},"metrics":[]}`, "schema"},
		{"missing schema", `{"source":"t","params":{},"metrics":[]}`, "schema"},
		{"unknown top-level field", `{"schema":"` + Schema + `","wall_clock_s":1.5,"metrics":[]}`, "unknown field"},
		{"unknown metric field", metric(`{"name":"a","value":1,"unit":"s","better":"lower","exact":true}`), "unknown field"},
		{"duplicate metric", metric(good + "," + good), "duplicate metric"},
		{"nan", metric(`{"name":"a","value":NaN,"unit":"s","better":"lower"}`), "invalid character"},
		{"infinity", metric(`{"name":"a","value":1e999,"unit":"s","better":"lower"}`), "1e999"},
		{"negative infinity", metric(`{"name":"a","value":-1e999,"unit":"s","better":"lower"}`), "1e999"},
		{"string value", metric(`{"name":"a","value":"1","unit":"s","better":"lower"}`), "cannot unmarshal"},
		{"better neither way", metric(`{"name":"a","value":1,"unit":"s","better":"exact"}`), "better"},
		{"better missing", metric(`{"name":"a","value":1,"unit":"s"}`), "better"},
		{"empty name", metric(`{"name":"","value":1,"unit":"s","better":"lower"}`), "without a name"},
		{"upper case in name", metric(`{"name":"Fig7/mbps","value":1,"unit":"s","better":"lower"}`), "outside"},
		{"space in name", metric(`{"name":"fig7 mbps","value":1,"unit":"s","better":"lower"}`), "outside"},
		{"comma in name", metric(`{"name":"hb=250ms,budget=1","value":1,"unit":"s","better":"lower"}`), "outside"},
		{"non-ascii in name", metric(`{"name":"hb=250µs","value":1,"unit":"s","better":"lower"}`), "outside"},
		{"trailing document", metric(good) + metric(good), "after the document"},
		{"trailing garbage", metric(good) + "]", "after the document"},
		{"params not strings", `{"schema":"` + Schema + `","source":"t","params":{"seed":11},"metrics":[]}`, "cannot unmarshal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parse([]byte(tc.in))
			if err == nil {
				t.Fatalf("accepted %s", tc.in)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
	if _, err := parse([]byte(metric(good))); err != nil {
		t.Fatalf("the well-formed control case is rejected: %v", err)
	}
}

// WriteFile refuses what ReadFile would refuse, so a producer cannot
// leave an unreadable document behind.
func TestWriteRejects(t *testing.T) {
	for name, mutate := range map[string]func(*Doc){
		"nan":       func(d *Doc) { d.Add("x", math.NaN(), "s", Lower) },
		"inf":       func(d *Doc) { d.Add("x", math.Inf(-1), "s", Lower) },
		"duplicate": func(d *Doc) { d.Count("fig7/kills", 4) },
		"name":      func(d *Doc) { d.Count("class/Net/requests", 4) },
		"better":    func(d *Doc) { d.Add("x", 1, "s", "exact") },
		"schema":    func(d *Doc) { d.Schema = "" },
	} {
		d := sample()
		mutate(&d)
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := WriteFile(path, d); err == nil {
			t.Errorf("%s: written", name)
		}
		if _, err := os.Stat(path); err == nil {
			t.Errorf("%s: a file was left behind", name)
		}
	}
	path := filepath.Join(t.TempDir(), "doc.json")
	if err := WriteFile(path, sample()); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(path); err != nil {
		t.Fatal(err)
	}
	if _, err := ReadFile(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("ReadFile of a missing file succeeded")
	}
}

// FuzzParse holds "parse never panics" and "write ∘ read ∘ write is a
// fixed point": whatever parse accepts encodes, and the encoding parses
// back to the same bytes.
func FuzzParse(f *testing.F) {
	good, err := encode(sample())
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add([]byte(`{"schema":"` + Schema + `","metrics":null,"params":null}`))
	f.Add([]byte(`{"schema":"` + Schema + `","source":"<\u00e9>","metrics":[{"name":"a","value":-0,"unit":"\ud800","better":"higher"}]}`))
	f.Add([]byte(`{"schema":"` + Schema + `","metrics":[{"name":"a","value":1e-320,"better":"lower"},{"NAME":"b","value":1e300,"better":"lower"}]}`))
	f.Fuzz(func(t *testing.T, in []byte) {
		d, err := parse(in)
		if err != nil {
			return
		}
		w1, err := encode(d)
		if err != nil {
			t.Fatalf("parsed document does not encode: %v\n%s", err, in)
		}
		d2, err := parse(w1)
		if err != nil {
			t.Fatalf("own encoding does not parse: %v\n%s", err, w1)
		}
		w2, err := encode(d2)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(w1, w2) {
			t.Fatalf("write∘read∘write moved:\n%s\n---\n%s", w1, w2)
		}
	})
}

// TestCommittedGoldens is the property every producer is held to through
// its committed document (which its own golden test or CI `cmp` step
// pins to the producer's output byte for byte): the file is in the
// canonical encoding, names are unique (parse), and the order is the
// producer's canonical one — a depth-first walk of the name tree, so a
// group of metrics, once left, is never re-entered and a golden diff
// never reorders. Every producer must have one.
func TestCommittedGoldens(t *testing.T) {
	var paths []string
	for _, pat := range []string{"../../testdata/BENCH_*.json", "../../cmd/*/testdata/BENCH_*.json"} {
		m, err := filepath.Glob(pat)
		if err != nil {
			t.Fatal(err)
		}
		paths = append(paths, m...)
	}
	sources := map[string]bool{}
	for _, path := range paths {
		raw, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		d, err := ReadFile(path)
		if err != nil {
			t.Error(err)
			continue
		}
		sources[d.Source] = true
		if again, err := encode(d); err != nil || !bytes.Equal(raw, again) {
			t.Errorf("%s is not in the canonical encoding (err %v)", path, err)
		}
		closed := map[string]bool{}
		prev := ""
		for _, m := range d.Metrics {
			dir := m.Name[:strings.LastIndex(m.Name, "/")+1]
			for p := prev; p != "" && !strings.HasPrefix(dir, p); p = p[:strings.LastIndex(p[:len(p)-1], "/")+1] {
				closed[p] = true
			}
			for p := dir; p != ""; p = p[:strings.LastIndex(p[:len(p)-1], "/")+1] {
				if closed[p] {
					t.Errorf("%s: metric %q re-enters group %q", path, m.Name, p)
				}
			}
			prev = dir
		}
	}
	for _, src := range []string{"throughput", "faultbench", "figures", "figures -mechanisms", "fleetbench", "whatif", "simspeed"} {
		if !sources[src] {
			t.Errorf("no committed golden from producer %q", src)
		}
	}
}
