package fi

import (
	"math/rand"
	"strconv"
	"testing"

	"resilientos/internal/ucode"
)

var testProg = `
.entry main
main:
	movi r1, 0x100
	in   r2, [r1+4]
	cmpi r2, 0
	jz   done
	ld   r3, [r1+8]
	st   [r1+12], r3
	mov  r4, r3
	add  r4, r2
	assert r4
done:
	halt
`

func testImage(t *testing.T) *ucode.Image {
	t.Helper()
	img, err := ucode.Assemble(testProg, nil)
	if err != nil {
		t.Fatal(err)
	}
	return img
}

func TestInjectRandomMutatesExactlyOneInstruction(t *testing.T) {
	orig := testImage(t)
	for seed := int64(0); seed < 50; seed++ {
		img := orig.Clone()
		inj, ok := New(rand.New(rand.NewSource(seed))).InjectRandom(img)
		if !ok {
			t.Fatalf("seed %d: no site in a fresh image", seed)
		}
		diff := 0
		for pc := range img.Code {
			if img.Code[pc] != orig.Code[pc] {
				diff++
				if pc != inj.PC {
					t.Fatalf("seed %d: mutated pc %d but recorded %d", seed, pc, inj.PC)
				}
				if img.Code[pc] != inj.After {
					t.Fatalf("seed %d: After mismatch", seed)
				}
			}
		}
		if diff > 1 {
			t.Fatalf("seed %d: %d instructions mutated", seed, diff)
		}
		// diff may be 0 for a bit flip landing in a don't-care field of a
		// jump — no: flips change the word. diff==0 only if After==Before,
		// which mutate never produces except LoopCond on a non-branch
		// (excluded by applicability). So require a change:
		if diff == 0 {
			t.Fatalf("seed %d: no instruction changed (%v)", seed, inj)
		}
	}
}

func TestSrcRegFault(t *testing.T) {
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultSrcReg)
	if !ok {
		t.Fatal("no applicable site")
	}
	if inj.Before.Rs() == inj.After.Rs() {
		t.Fatal("rs unchanged")
	}
	if inj.Before.Op() != inj.After.Op() || inj.Before.Rd() != inj.After.Rd() ||
		inj.Before.Imm() != inj.After.Imm() {
		t.Fatal("fields other than rs changed")
	}
}

func TestDstRegFault(t *testing.T) {
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultDstReg)
	if !ok {
		t.Fatal("no applicable site")
	}
	if inj.Before.Rd() == inj.After.Rd() {
		t.Fatal("rd unchanged")
	}
}

func TestPointerFaultTargetsMemOps(t *testing.T) {
	img := testImage(t)
	for seed := int64(0); seed < 20; seed++ {
		cp := img.Clone()
		inj, ok := New(rand.New(rand.NewSource(seed))).TryInject(cp, FaultPointer)
		if !ok {
			t.Fatal("no applicable site")
		}
		switch inj.Before.Op() {
		case ucode.OpLd, ucode.OpSt, ucode.OpIn, ucode.OpOut:
		default:
			t.Fatalf("pointer fault hit %v", inj.Before.Op())
		}
	}
}

func TestStaleFaultNopsOut(t *testing.T) {
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(3))).TryInject(img, FaultStale)
	if !ok {
		t.Fatal("no applicable site")
	}
	if inj.After.Op() != ucode.OpNop {
		t.Fatalf("after = %v, want nop", inj.After)
	}
	switch inj.Before.Op() {
	case ucode.OpMovI, ucode.OpMov, ucode.OpLd, ucode.OpIn:
	default:
		t.Fatalf("stale fault hit %v", inj.Before.Op())
	}
}

func TestLoopCondFaultInverts(t *testing.T) {
	pairs := map[ucode.Op]ucode.Op{
		ucode.OpJz:  ucode.OpJnz,
		ucode.OpJnz: ucode.OpJz,
		ucode.OpJlt: ucode.OpJge,
		ucode.OpJge: ucode.OpJlt,
	}
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultLoopCond)
	if !ok {
		t.Fatal("no applicable site")
	}
	if want := pairs[inj.Before.Op()]; inj.After.Op() != want {
		t.Fatalf("inverted %v -> %v, want %v", inj.Before.Op(), inj.After.Op(), want)
	}
	if inj.Before.Imm() != inj.After.Imm() {
		t.Fatal("branch target changed")
	}
}

func TestBitFlipChangesOneBit(t *testing.T) {
	img := testImage(t)
	for seed := int64(0); seed < 20; seed++ {
		cp := img.Clone()
		inj, ok := New(rand.New(rand.NewSource(seed))).TryInject(cp, FaultBitFlip)
		if !ok {
			t.Fatal("no applicable site")
		}
		x := uint32(inj.Before) ^ uint32(inj.After)
		if x == 0 || x&(x-1) != 0 {
			t.Fatalf("xor = %#x, want single bit", x)
		}
	}
}

func TestElideFault(t *testing.T) {
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultElide)
	if !ok {
		t.Fatal("no applicable site")
	}
	if inj.After.Op() != ucode.OpNop {
		t.Fatalf("after = %v", inj.After)
	}
}

func TestLoopCondNotApplicableWithoutBranches(t *testing.T) {
	img := ucode.MustAssemble("\n.entry m\nm:\n\tmovi r1, 1\n\thalt\n", nil)
	_, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultLoopCond)
	if ok {
		t.Fatal("loop-cond fault applied to branchless code")
	}
}

func TestInjectRandomDeterministic(t *testing.T) {
	a := testImage(t)
	b := testImage(t)
	ia, _ := New(rand.New(rand.NewSource(9))).InjectRandom(a)
	ib, _ := New(rand.New(rand.NewSource(9))).InjectRandom(b)
	if ia != ib {
		t.Fatalf("same seed, different injections: %v vs %v", ia, ib)
	}
}

// An exhausted image — every instruction already a NOP — has no site for
// any class: InjectRandom must say so at once instead of resampling
// forever, draw nothing from the rng, and do the same through TryInject.
func TestInjectRandomExhaustedImage(t *testing.T) {
	img := testImage(t)
	for pc := range img.Code {
		img.Code[pc] = ucode.Enc(ucode.OpNop, 0, 0, 0)
	}
	rng := rand.New(rand.NewSource(3))
	want := rand.New(rand.NewSource(3)).Int63()
	j := New(rng)
	if inj, ok := j.InjectRandom(img); ok {
		t.Fatalf("InjectRandom on an all-NOP image applied %v", inj)
	}
	if inj, ok := j.TryInject(img, FaultRandom); ok {
		t.Fatalf("TryInject(FaultRandom) on an all-NOP image applied %v", inj)
	}
	if got := rng.Int63(); got != want {
		t.Fatal("a refused injection consumed randomness")
	}

	// Mutating one image over and over ends in exactly that state.
	img = testImage(t)
	n := 0
	for ; n < 100_000; n++ {
		if _, ok := j.InjectRandom(img); !ok {
			break
		}
	}
	if n == 100_000 {
		t.Fatal("repeated injection never exhausted the image")
	}
	for pc, in := range img.Code {
		if in.Op() != ucode.OpNop {
			t.Fatalf("InjectRandom refused with a live instruction left at %d: %v", pc, in)
		}
	}
}

// Mutated programs must always land in a defined VM outcome — the fault
// campaign depends on never panicking the host.
func TestMutatedProgramsAlwaysClassify(t *testing.T) {
	orig := testImage(t)
	rng := rand.New(rand.NewSource(42))
	inj := New(rng)
	bus := busStub{}
	for i := 0; i < 2000; i++ {
		img := orig.Clone()
		// Pile up several faults for good measure.
		for n := 0; n < 1+rng.Intn(3); n++ {
			inj.InjectRandom(img)
		}
		vm := ucode.New(img, bus)
		vm.Budget = 5000
		res := vm.Run("main")
		switch res.Outcome {
		case ucode.OutcomeOK, ucode.OutcomeFail, ucode.OutcomeAssert,
			ucode.OutcomeMMU, ucode.OutcomeCPU, ucode.OutcomeStall:
		default:
			t.Fatalf("iteration %d: unclassified outcome %v", i, res.Outcome)
		}
	}
}

type busStub struct{}

func (busStub) In(port uint32) (uint32, bool) { return 0, true }

func (busStub) Out(port, val uint32) bool { return true }

// An injection prints as the line a violation report shows: the fault
// type, the mutated instruction's index, and its encoding before and
// after.
func TestInjectionString(t *testing.T) {
	img := testImage(t)
	inj, ok := New(rand.New(rand.NewSource(1))).TryInject(img, FaultElide)
	if !ok {
		t.Fatal("no elide site")
	}
	want := "elided-instruction @" + strconv.Itoa(inj.PC) + ": " + inj.Before.String() + " -> nop"
	if got := inj.String(); got != want {
		t.Fatalf("injection = %q, want %q", got, want)
	}
}
