package ramdisk

import (
	"encoding/binary"
	"testing"
)

// A successor adopts only a capsule describing its own disk: the kind
// and length must match, and the geometry must be positive and equal to
// its backing store's.
func TestRestoreStateValidates(t *testing.T) {
	d := &driver{cfg: Config{Sectors: 2048}}
	kind, payload := d.SaveState(nil)
	if err := d.RestoreState(nil, kind, payload); err != nil {
		t.Fatalf("own capsule rejected: %v", err)
	}
	geometry := func(n int64) []byte {
		return binary.LittleEndian.AppendUint64(nil, uint64(n))
	}
	for name, tc := range map[string]struct {
		kind    string
		payload []byte
	}{
		"foreign kind":  {"sata.geom", payload},
		"short payload": {kind, payload[:4]},
		"non-positive":  {kind, geometry(-1)},
		"other disk":    {kind, geometry(4096)},
	} {
		if err := d.RestoreState(nil, tc.kind, tc.payload); err == nil {
			t.Errorf("%s: capsule adopted", name)
		}
	}
}
