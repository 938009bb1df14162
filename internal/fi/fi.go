// Package fi implements software fault injection into running driver
// "binaries" (ucode images), reproducing the methodology of paper §7.2,
// which is based on the binary-mutation injectors of Ng & Chen and of
// Swift et al. (Nooks). The seven fault types are the paper's own list;
// they emulate programming errors common to operating system code.
package fi

import (
	"fmt"
	"math/rand"
	"slices"

	"resilientos/internal/ucode"
)

// FaultType is one of the paper's seven binary mutation classes.
type FaultType int

// The seven fault types of paper §7.2, in the paper's order.
const (
	FaultSrcReg   FaultType = iota + 1 // (1) change source register
	FaultDstReg                        // (2) change destination register
	FaultPointer                       // (3) garble pointer
	FaultStale                         // (4) use current register value instead of parameter passed
	FaultLoopCond                      // (5) invert termination condition of a loop
	FaultBitFlip                       // (6) flip a bit in an instruction
	FaultElide                         // (7) elide an instruction
	NumFaultTypes = 7                  // classes are numbered 1..NumFaultTypes
)

// FaultRandom is the mix §7.2 actually ran: each injection draws one of
// the seven classes at random (InjectRandom).
const FaultRandom FaultType = NumFaultTypes + 1

func (f FaultType) String() string {
	switch f {
	case FaultSrcReg:
		return "src-register"
	case FaultDstReg:
		return "dst-register"
	case FaultPointer:
		return "garbled-pointer"
	case FaultStale:
		return "stale-register"
	case FaultLoopCond:
		return "inverted-loop"
	case FaultBitFlip:
		return "bit-flip"
	case FaultElide:
		return "elided-instruction"
	case FaultRandom:
		return "random"
	default:
		return fmt.Sprintf("FaultType(%d)", int(f))
	}
}

// Injection records one applied mutation.
type Injection struct {
	Type   FaultType
	PC     int         // mutated instruction index
	Before ucode.Instr // original encoding
	After  ucode.Instr // mutated encoding
}

func (in Injection) String() string {
	return fmt.Sprintf("%s @%d: %v -> %v", in.Type, in.PC, in.Before, in.After)
}

// Injector mutates ucode images with a deterministic random source.
type Injector struct {
	rng *rand.Rand
}

// New creates an injector driven by rng.
func New(rng *rand.Rand) *Injector { return &Injector{rng: rng} }

// InjectRandom applies one randomly selected fault of a randomly selected
// type at a randomly selected applicable instruction. It mirrors the
// paper's campaign step "inject 1 randomly selected fault into the running
// driver". Mutating an image a driver is currently executing is the whole
// point: the next invocation of the affected routine runs the faulty code.
// It reports false, before drawing anything, once every instruction has
// been mutated into a NOP and no class has a site left.
func (j *Injector) InjectRandom(img *ucode.Image) (Injection, bool) {
	// Bit flips apply to every non-NOP, so "some non-NOP is left" is
	// exactly "some class still applies" — and makes the loop terminate.
	if !slices.ContainsFunc(img.Code, func(in ucode.Instr) bool { return in.Op() != ucode.OpNop }) {
		return Injection{}, false
	}
	for {
		ft := FaultType(j.rng.Intn(NumFaultTypes) + 1)
		if inj, ok := j.TryInject(img, ft); ok {
			return inj, true
		}
		// Class not applicable anywhere in the image; resample.
	}
}

// TryInject applies one fault of the given type (FaultRandom: of a
// randomly drawn type) at a random applicable instruction. It reports
// false if the image has no applicable site.
func (j *Injector) TryInject(img *ucode.Image, ft FaultType) (Injection, bool) {
	if ft == FaultRandom {
		return j.InjectRandom(img)
	}
	sites := applicableSites(img, ft)
	if len(sites) == 0 {
		return Injection{}, false
	}
	pc := sites[j.rng.Intn(len(sites))]
	before := img.Code[pc]
	after := j.mutate(before, ft)
	img.Code[pc] = after
	return Injection{Type: ft, PC: pc, Before: before, After: after}, true
}

// applicableSites lists instruction indexes where the fault type is
// meaningful.
func applicableSites(img *ucode.Image, ft FaultType) []int {
	var sites []int
	for pc, in := range img.Code {
		if faultApplies(in.Op(), ft) {
			sites = append(sites, pc)
		}
	}
	return sites
}

func faultApplies(op ucode.Op, ft FaultType) bool {
	switch ft {
	case FaultSrcReg:
		switch op {
		case ucode.OpMov, ucode.OpAdd, ucode.OpSub, ucode.OpAnd, ucode.OpOr,
			ucode.OpXor, ucode.OpDiv, ucode.OpLd, ucode.OpSt, ucode.OpIn,
			ucode.OpOut, ucode.OpCmp:
			return true
		}
		return false
	case FaultDstReg:
		switch op {
		case ucode.OpMovI, ucode.OpMov, ucode.OpAdd, ucode.OpAddI, ucode.OpSub,
			ucode.OpAnd, ucode.OpAndI, ucode.OpOr, ucode.OpOrI, ucode.OpXor,
			ucode.OpShlI, ucode.OpShrI, ucode.OpDiv, ucode.OpLd, ucode.OpSt,
			ucode.OpIn, ucode.OpOut, ucode.OpCmp, ucode.OpCmpI, ucode.OpAssert:
			return true
		}
		return false
	case FaultPointer:
		switch op {
		case ucode.OpLd, ucode.OpSt, ucode.OpIn, ucode.OpOut:
			return true
		}
		return false
	case FaultStale:
		// Instructions that load a parameter/value into rd; removing them
		// leaves rd holding its stale previous value.
		switch op {
		case ucode.OpMovI, ucode.OpMov, ucode.OpLd, ucode.OpIn:
			return true
		}
		return false
	case FaultLoopCond:
		switch op {
		case ucode.OpJz, ucode.OpJnz, ucode.OpJlt, ucode.OpJge:
			return true
		}
		return false
	case FaultBitFlip, FaultElide:
		return op != ucode.OpNop
	}
	return false
}

func (j *Injector) mutate(in ucode.Instr, ft FaultType) ucode.Instr {
	switch ft {
	case FaultSrcReg:
		return in.WithRs(j.otherReg(in.Rs()))
	case FaultDstReg:
		return in.WithRd(j.otherReg(in.Rd()))
	case FaultPointer:
		return in.WithImm(uint16(j.rng.Intn(1 << 16)))
	case FaultStale:
		return ucode.Enc(ucode.OpNop, 0, 0, 0)
	case FaultLoopCond:
		switch in.Op() {
		case ucode.OpJz:
			return in.WithOp(ucode.OpJnz)
		case ucode.OpJnz:
			return in.WithOp(ucode.OpJz)
		case ucode.OpJlt:
			return in.WithOp(ucode.OpJge)
		case ucode.OpJge:
			return in.WithOp(ucode.OpJlt)
		}
		return in
	case FaultBitFlip:
		return in ^ ucode.Instr(1<<uint(j.rng.Intn(32)))
	case FaultElide:
		return ucode.Enc(ucode.OpNop, 0, 0, 0)
	}
	return in
}

// otherReg returns a random register different from r.
func (j *Injector) otherReg(r int) int {
	n := j.rng.Intn(ucode.NumRegs - 1)
	if n >= r {
		n++
	}
	return n
}
