package drvlib

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

func TestCapsuleRoundTrip(t *testing.T) {
	cases := []struct {
		version uint32
		kind    string
		payload []byte
	}{
		// An Ethernet driver's capsule (Eth.SaveState): the bound network
		// server's endpoint, u64 LE.
		{1, "rtl8139.conf", []byte{0x0B, 0x10, 0, 0, 0, 0, 0, 0}},
		{7, "ramdisk.geom", []byte{0, 0, 1, 0, 0, 0, 0, 0}},
		{0xFFFFFFFF, "sata.queue", nil},
		{42, "", []byte("x")},
	}
	for _, tc := range cases {
		blob := EncodeCapsule(tc.version, tc.kind, tc.payload)
		version, kind, payload, err := DecodeCapsule(blob)
		if err != nil {
			t.Fatalf("decode(%q v%d): %v", tc.kind, tc.version, err)
		}
		if version != tc.version || kind != tc.kind || !bytes.Equal(payload, tc.payload) {
			t.Fatalf("round trip (%q v%d %d bytes) -> (%q v%d %d bytes)",
				tc.kind, tc.version, len(tc.payload), kind, version, len(payload))
		}
	}
}

func TestCapsuleRejectsCorruption(t *testing.T) {
	blob := EncodeCapsule(3, "test.state", []byte("hello, successor"))

	// Every strict prefix is truncated, never adopted, never a panic.
	for n := 0; n < len(blob); n++ {
		if _, _, _, err := DecodeCapsule(blob[:n]); err == nil {
			t.Fatalf("accepted %d-byte prefix of a %d-byte capsule", n, len(blob))
		}
	}
	// Trailing garbage is not a capsule either (the frame is exact-length).
	if _, _, _, err := DecodeCapsule(append(append([]byte(nil), blob...), 0)); err == nil {
		t.Fatal("accepted capsule with trailing garbage")
	}
	// Any single-byte corruption must fail the magic or the checksum.
	for i := range blob {
		bad := append([]byte(nil), blob...)
		bad[i] ^= 0x40
		_, _, _, err := DecodeCapsule(bad)
		if err == nil {
			t.Fatalf("accepted capsule with byte %d corrupted", i)
		}
		if !errors.Is(err, ErrCapsuleMagic) && !errors.Is(err, ErrCapsuleCRC) &&
			!errors.Is(err, ErrCapsuleSize) && !errors.Is(err, ErrCapsuleTruncated) {
			t.Fatalf("byte %d corruption: unexpected error %v", i, err)
		}
	}

	if _, _, _, err := DecodeCapsule(nil); !errors.Is(err, ErrCapsuleTruncated) {
		t.Fatalf("nil input: %v, want truncated", err)
	}
	huge := EncodeCapsule(1, strings.Repeat("k", 65), nil)
	if _, _, _, err := DecodeCapsule(huge); !errors.Is(err, ErrCapsuleSize) {
		t.Fatalf("oversized kind: %v, want size error", err)
	}
}

// FuzzDecodeCapsule is the robustness property the salvage path depends
// on: a successor hands DecodeCapsule whatever bytes the data store
// returns, so the parser must never panic, and anything it does accept
// must be the canonical encoding of what it decoded to.
func FuzzDecodeCapsule(f *testing.F) {
	f.Add([]byte(nil))
	f.Add([]byte("RSC1"))
	f.Add(EncodeCapsule(1, "rtl8139.conf", []byte{0x0B, 0x10, 0, 0, 0, 0, 0, 0}))
	f.Add(EncodeCapsule(0, "", nil))
	f.Add(EncodeCapsule(0xFFFFFFFF, "sata.queue", bytes.Repeat([]byte{0xAA}, 100)))
	f.Fuzz(func(t *testing.T, data []byte) {
		version, kind, payload, err := DecodeCapsule(data)
		if err != nil {
			return
		}
		if !bytes.Equal(EncodeCapsule(version, kind, payload), data) {
			t.Fatalf("accepted non-canonical capsule: v%d kind=%q payload=%d bytes",
				version, kind, len(payload))
		}
	})
}
