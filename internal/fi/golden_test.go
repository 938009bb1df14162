package fi

import (
	"math/rand"
	"testing"

	"resilientos/internal/ucode"
)

// TestGoldenInjections pins the exact mutated instruction each fault type
// produces on the fixed test image at a fixed seed. The expected values
// are golden bytes: any change to the injector's site selection, RNG
// consumption order, or mutation encoding shows up here as an exact
// before/after word diff, not just a property violation.
//
// The test image (testProg) assembles to:
//
//	0: movi r1, 0x100    0x01100100
//	1: in   r2, [r1+4]   0x10210004
//	2: cmpi r2, 0        0x13200000
//	3: jz   done         0x15000009
//	4: ld   r3, [r1+8]   0x0e310008
//	5: st   [r1+12], r3  0x0f13000c
//	6: mov  r4, r3       0x02430000
//	7: add  r4, r2       0x03420000
//	8: assert r4         0x1b400000
//	9: halt              0x1c000000
func TestGoldenInjections(t *testing.T) {
	const seed = 7
	cases := []struct {
		ft     FaultType
		pc     int
		before ucode.Instr
		after  ucode.Instr
	}{
		// ld r3, [r1+8] reads through r0 instead of the parameter base.
		{FaultSrcReg, 4, 0x0e310008, 0x0e300008},
		// add r4, r2 writes its sum into r0 instead of r4.
		{FaultDstReg, 7, 0x03420000, 0x03020000},
		// st [r1+12], r3 stores at offset 0x6ee — off the mapped buffer.
		{FaultPointer, 5, 0x0f13000c, 0x0f1306ee},
		// ld r3, [r1+8] elided: r3 keeps its stale previous value.
		{FaultStale, 4, 0x0e310008, 0x00000000},
		// jz done becomes jnz done: the loop exit test is inverted.
		{FaultLoopCond, 3, 0x15000009, 0x16000009},
		// mov r4, r3 gets bit 14 flipped (lands in the imm field).
		{FaultBitFlip, 6, 0x02430000, 0x02434000},
		// mov r4, r3 replaced by nop outright.
		{FaultElide, 6, 0x02430000, 0x00000000},
	}
	for _, tc := range cases {
		t.Run(tc.ft.String(), func(t *testing.T) {
			img := testImage(t)
			if img.Code[tc.pc] != tc.before {
				t.Fatalf("image word at pc %d = %#08x, want %#08x (test image drifted)",
					tc.pc, uint32(img.Code[tc.pc]), uint32(tc.before))
			}
			inj, ok := New(rand.New(rand.NewSource(seed))).TryInject(img, tc.ft)
			if !ok {
				t.Fatal("no applicable site")
			}
			want := Injection{Type: tc.ft, PC: tc.pc, Before: tc.before, After: tc.after}
			if inj != want {
				t.Errorf("injection = %v (%#08x -> %#08x), want %v (%#08x -> %#08x)",
					inj, uint32(inj.Before), uint32(inj.After),
					want, uint32(want.Before), uint32(want.After))
			}
			if got := img.Code[tc.pc]; got != tc.after {
				t.Errorf("image word after injection = %#08x, want %#08x",
					uint32(got), uint32(tc.after))
			}
		})
	}
}

// TestGoldenImageEncoding pins the assembled test image itself, so the
// golden injections above cannot silently drift with the assembler.
func TestGoldenImageEncoding(t *testing.T) {
	want := []ucode.Instr{
		ucode.Enc(ucode.OpMovI, 1, 0, 0x100),
		ucode.Enc(ucode.OpIn, 2, 1, 4),
		ucode.Enc(ucode.OpCmpI, 2, 0, 0),
		ucode.Enc(ucode.OpJz, 0, 0, 9),
		ucode.Enc(ucode.OpLd, 3, 1, 8),
		ucode.Enc(ucode.OpSt, 1, 3, 12),
		ucode.Enc(ucode.OpMov, 4, 3, 0),
		ucode.Enc(ucode.OpAdd, 4, 2, 0),
		ucode.Enc(ucode.OpAssert, 4, 0, 0),
		ucode.Enc(ucode.OpHalt, 0, 0, 0),
	}
	img := testImage(t)
	if len(img.Code) != len(want) {
		t.Fatalf("image has %d instructions, want %d", len(img.Code), len(want))
	}
	for pc, w := range want {
		if img.Code[pc] != w {
			t.Errorf("pc %d: word %#08x, want %#08x", pc, uint32(img.Code[pc]), uint32(w))
		}
	}
	if got, ok := img.EntryTable()["main"]; !ok || got != 0 {
		t.Errorf("entry main = %d, %v; want 0, true", got, ok)
	}
}
