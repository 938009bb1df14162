package decision

import (
	"bytes"
	"strings"
	"testing"

	"resilientos/internal/sim"
)

func TestNilRecorderIsFree(t *testing.T) {
	var r *Recorder
	r.SetClock(func() sim.Time { return 1 })
	r.AddSink(&SliceSink{})
	r.Emit(Event{Kind: KindDetect, Service: "eth"}) // must not panic
}

func TestKindNamesRoundTrip(t *testing.T) {
	for _, k := range Kinds() {
		name := k.String()
		if strings.HasPrefix(name, "Kind(") {
			t.Fatalf("kind %d has no name", int(k))
		}
		got, ok := ParseKind(name)
		if !ok || got != k {
			t.Fatalf("ParseKind(%q) = %v, %v; want %v", name, got, ok, k)
		}
	}
	if _, ok := ParseKind("nonsense"); ok {
		t.Fatal("ParseKind accepted an unknown name")
	}
}

func TestClockStamps(t *testing.T) {
	sink := &SliceSink{}
	r := NewRecorder(sink)
	var now sim.Time = 42
	r.SetClock(func() sim.Time { return now })
	r.Emit(Event{Kind: KindDetect, Service: "x"})
	now = 99
	r.Emit(Event{Kind: KindOutcome, Service: "x", Action: "recovered"})
	evs := sink.Events()
	if evs[0].T != 42 || evs[1].T != 99 {
		t.Fatalf("timestamps %v, %v; want 42, 99", evs[0].T, evs[1].T)
	}
}

var sample = []Event{
	{T: 0, Kind: KindMark, Service: "whatif", Action: "campaign", Detail: "seeds=11"},
	{T: 100, Kind: KindTrigger, Service: "eth.rtl8139", Defect: 4, Action: "declare-stuck", Detail: "hb=oom missed=3"},
	{T: 150, Kind: KindDetect, Service: "eth.rtl8139", Defect: 4, Failures: 1, Budget: -1, Detail: "oom", Trace: 7, Span: 9},
	{T: 160, Kind: KindAction, Service: "eth.rtl8139", Defect: 4, Failures: 1, Budget: -1, Action: "policy-run", Detail: "net.sh eth.rtl8139 4 1", Trace: 7, Span: 9},
	{T: 170, Kind: KindPolicyStep, Service: "eth.rtl8139", Defect: 4, Action: "sleep", Detail: "sleep 1 [component=eth.rtl8139]", Delay: sim.Time(1e9), Trace: 7, Span: 9},
	{T: 200, Kind: KindPolicyStep, Service: "eth.rtl8139", Defect: 4, Action: "service", Detail: "service restart eth.rtl8139", Trace: 7, Span: 9},
	{T: 210, Kind: KindOutcome, Service: "eth.rtl8139", Defect: 4, Failures: 1, Budget: -1, Action: "recovered", Latency: 60, Trace: 7, Span: 9},
	{T: 220, Kind: KindPolicyStep, Service: "eth.rtl8139", Defect: 4, Action: "exit", Status: 0, Trace: 7, Span: 9},
}

func TestJSONLRoundTrip(t *testing.T) {
	enc := Encode(sample)
	got, err := ParseJSONL(bytes.NewReader(enc))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if len(got) != len(sample) {
		t.Fatalf("parsed %d events, want %d", len(got), len(sample))
	}
	for i := range got {
		if got[i] != sample[i] {
			t.Fatalf("event %d: got %+v, want %+v", i, got[i], sample[i])
		}
	}
	if !bytes.Equal(Encode(got), enc) {
		t.Fatal("re-encoding is not byte-identical")
	}
}

func TestJSONLOmitsZeroSpanContext(t *testing.T) {
	line := string(AppendJSONL(nil, Event{T: 5, Kind: KindTrigger, Service: "x", Action: "escalate-sigkill"}))
	if strings.Contains(line, `"tr"`) || strings.Contains(line, `"sp"`) {
		t.Fatalf("context-free event carries tr/sp: %s", line)
	}
	line = string(AppendJSONL(nil, Event{T: 5, Kind: KindDetect, Service: "x", Trace: 1, Span: 2}))
	if !strings.Contains(line, `"tr":1,"sp":2`) {
		t.Fatalf("span linkage missing: %s", line)
	}
}

func TestParseRejects(t *testing.T) {
	cases := map[string]string{
		"unknown kind":  `{"t":1,"kind":"bogus","svc":"x","defect":0,"failures":0,"budget":0,"action":"","detail":"","delay":0,"status":0,"latency":0}`,
		"unknown field": `{"t":1,"kind":"detect","svc":"x","defect":0,"failures":0,"budget":0,"action":"","detail":"","delay":0,"status":0,"latency":0,"extra":1}`,
		"not json":      `detect eth.rtl8139`,
		"trailing data": `{"t":1,"kind":"detect","svc":"x","defect":0,"failures":0,"budget":0,"action":"","detail":"","delay":0,"status":0,"latency":0} {"t":2}`,
	}
	for name, line := range cases {
		if _, err := ParseJSONL(strings.NewReader(line + "\n")); err == nil {
			t.Errorf("%s: parse accepted %s", name, line)
		}
	}
	// Blank lines are fine.
	evs, err := ParseJSONL(strings.NewReader("\n" + string(Encode(sample[:1])) + "\n"))
	if err != nil || len(evs) != 1 {
		t.Fatalf("blank-line handling: %v, %d events", err, len(evs))
	}
}

func TestDefectNames(t *testing.T) {
	want := map[int]string{0: "-", 1: "exit", 2: "exception", 3: "killed",
		4: "heartbeat", 5: "complaint", 6: "update"}
	for class, name := range want {
		if got := DefectName(class); got != name {
			t.Errorf("DefectName(%d) = %q, want %q", class, got, name)
		}
	}
	if got := DefectName(42); got != "class(42)" {
		t.Errorf("DefectName(42) = %q", got)
	}
}

func TestCheckWellFormed(t *testing.T) {
	if problems := Check(sample); len(problems) != 0 {
		t.Fatalf("well-formed log reported problems: %v", problems)
	}
}

func TestCheckViolations(t *testing.T) {
	cases := []struct {
		name   string
		events []Event
		want   string
	}{
		{
			"action without episode",
			[]Event{{Kind: KindAction, Service: "x", Action: "restart-direct"}},
			"outside an open episode",
		},
		{
			"outcome without episode",
			[]Event{{Kind: KindOutcome, Service: "x", Action: "recovered"}},
			"without an open episode",
		},
		{
			"double terminal",
			[]Event{
				{Kind: KindDetect, Service: "x"},
				{Kind: KindOutcome, Service: "x", Action: "recovered"},
				{Kind: KindOutcome, Service: "x", Action: "recovered"},
			},
			"without an open episode",
		},
		{
			"episode without terminal",
			[]Event{{T: 7, Kind: KindDetect, Service: "x"}},
			"no terminal decision",
		},
		{
			"policy step without run",
			[]Event{
				{Kind: KindDetect, Service: "x"},
				{Kind: KindPolicyStep, Service: "x", Action: "sleep"},
			},
			"outside a policy run",
		},
		{
			"policy run never exited",
			[]Event{
				{Kind: KindDetect, Service: "x"},
				{Kind: KindAction, Service: "x", Action: "policy-run"},
				{Kind: KindOutcome, Service: "x", Action: "recovered"},
			},
			"never exited",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			problems := Check(tc.events)
			found := false
			for _, p := range problems {
				if strings.Contains(p, tc.want) {
					found = true
				}
			}
			if !found {
				t.Fatalf("want a problem containing %q, got %v", tc.want, problems)
			}
		})
	}
}

func TestCheckMarkResets(t *testing.T) {
	events := []Event{
		{Kind: KindDetect, Service: "x"},
		{Kind: KindAction, Service: "x", Action: "policy-run"},
		{Kind: KindMark, Service: "campaign", Action: "cell"},
		{Kind: KindDetect, Service: "x"},
		{Kind: KindOutcome, Service: "x", Action: "recovered"},
	}
	if problems := Check(events); len(problems) != 0 {
		t.Fatalf("mark did not reset state: %v", problems)
	}
}
