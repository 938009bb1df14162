package main

import (
	"strings"
	"testing"

	"resilientos/internal/campaign"
)

// The grammar itself (round trip, rejections, overrides, the backoff
// script) is tested where it lives, in internal/campaign.

func TestBaselineSpec(t *testing.T) {
	base, err := campaign.ParseSpec(baselineSpec)
	if err != nil {
		t.Fatal(err)
	}
	const want = "seed=11,victims=eth.rtl8139,faults=bit-flip,per-cell=10,hb=500ms,misses=3,budget=0,backoff=1s,policy=on,mech=respawn,hw=off"
	if got := base.Spec(); got != want {
		t.Fatalf("baseline spec = %q, want %q", got, want)
	}
}

func TestEncodeRecordingHeader(t *testing.T) {
	base, err := campaign.ParseSpec(baselineSpec)
	if err != nil {
		t.Fatal(err)
	}
	data := encodeRecording(base, nil)
	lines := strings.Split(strings.TrimSuffix(string(data), "\n"), "\n")
	if len(lines) != 1 {
		t.Fatalf("empty log encodes to %d lines", len(lines))
	}
	if !strings.Contains(lines[0], `"kind":"mark"`) ||
		!strings.Contains(lines[0], `"svc":"whatif"`) ||
		!strings.Contains(lines[0], base.Spec()) {
		t.Fatalf("header line %q missing mark/spec", lines[0])
	}
}

// A mistyped victim, an unknown key or an empty override must stop the
// sweep before anything runs, not print an all-zero table.
func TestBadSpecsAreRejected(t *testing.T) {
	for _, args := range [][]string{
		{"-matrix", "victims=bogus"},
		{"-matrix", "victim=eth.dp8390"},
		{"-override", ""},
		{"-override", "warp=9"},
	} {
		if err := run(append(args, "-q")); err == nil {
			t.Errorf("run(%q) succeeded", args)
		}
	}
}
