package workload

import (
	"fmt"
	"hash/fnv"
	"testing"
)

// TestSeed11ArrivalsPinned pins the arrival sequence of fleetbench's
// seed-11 golden spec: its length, both endpoints and an FNV-64a digest
// of every (T, Class, Client, Size), one "%d %s %d %d\n" line each. The
// spec and its seed are the pinned artifact, so a change to Generate
// that moves one arrival fails here before it moves a fleet golden.
func TestSeed11ArrivalsPinned(t *testing.T) {
	s, err := Load("../../cmd/fleetbench/testdata/workload_seed11.json")
	if err != nil {
		t.Fatal(err)
	}
	events := s.Generate()
	if len(events) != 598 {
		t.Fatalf("%d arrivals, want 598", len(events))
	}
	for _, c := range []struct {
		i    int
		want Event
	}{
		{0, Event{T: 2658362, Class: "net", Client: 4, Size: 10264}},
		{597, Event{T: 3996173499, Class: "net", Client: 1, Size: 23450}},
	} {
		if events[c.i] != c.want {
			t.Errorf("arrival %d = %+v, want %+v", c.i, events[c.i], c.want)
		}
	}
	h := fnv.New64a()
	for _, e := range events {
		fmt.Fprintf(h, "%d %s %d %d\n", e.T, e.Class, e.Client, e.Size)
	}
	if got, want := h.Sum64(), uint64(0x5a1e71e39056a1d1); got != want {
		t.Errorf("arrival digest %#016x, want %#016x", got, want)
	}
}
