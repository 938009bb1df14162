package ucode

import "fmt"

// Outcome classifies how a VM invocation ended. The mapping to the paper's
// observable failure classes is documented on the package comment.
type Outcome int

// Invocation outcomes.
const (
	OutcomeOK     Outcome = iota + 1 // halt: routine succeeded
	OutcomeFail                      // fail: routine reported an error
	OutcomeAssert                    // consistency check failed -> driver panic
	OutcomeMMU                       // bad memory access -> MMU exception
	OutcomeCPU                       // illegal instruction etc. -> CPU exception
	OutcomeStall                     // step budget exhausted -> driver stuck
)

func (o Outcome) String() string {
	switch o {
	case OutcomeOK:
		return "ok"
	case OutcomeFail:
		return "fail"
	case OutcomeAssert:
		return "assert"
	case OutcomeMMU:
		return "mmu"
	case OutcomeCPU:
		return "cpu"
	case OutcomeStall:
		return "stall"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// IOBus is the VM's window onto device ports; drivers bind it to their
// kernel context's DevIn/DevOut. A denied or failed port access reads as
// all-ones and writes are dropped — mirroring how a buggy driver's bad
// port access is contained by the kernel's privilege check rather than
// crashing anything else.
type IOBus interface {
	In(port uint32) (uint32, bool)
	Out(port uint32, val uint32) bool
}

// RAMWords is the size of the driver-local scratch RAM in 32-bit words.
const RAMWords = 1024

// callDepth bounds the VM call stack.
const callDepth = 32

// DefaultStepBudget bounds one invocation; exceeding it means the driver
// is stuck (infinite loop) and will be caught by missed heartbeats.
const DefaultStepBudget = 50_000

// VM executes routines of an Image against driver-local RAM and a port
// bus. One VM instance belongs to one driver process instance.
type VM struct {
	Img    *Image
	Bus    IOBus
	RAM    *[RAMWords]uint32
	Regs   [NumRegs]uint32
	Budget int // per-invocation step budget; DefaultStepBudget if zero

	IOErrors int // denied/failed port accesses (counted, not fatal)
	Steps    int // total steps executed across invocations

	// PerfBegin/PerfEnd bracket every invocation for the wall-clock
	// profiler (internal/perf). Both nil (the default) or both set;
	// they must not touch VM state.
	PerfBegin, PerfEnd func()

	shared bool // Img is not this VM's to write: Writable copies it first
}

// New creates a VM running img (not cloned; clone first if the image will
// be mutated per-instance) on the given bus, with fresh zeroed RAM.
func New(img *Image, bus IOBus) *VM {
	return &VM{Img: img, Bus: bus, RAM: new([RAMWords]uint32)}
}

// Writable returns the image the VM runs, first giving the VM a copy of
// its own if it runs a shared one (see RAMs.New). Whatever writes the
// running binary — the fault injector — goes through it.
func (v *VM) Writable() *Image {
	if v.shared {
		v.Img, v.shared = v.Img.Clone(), false
	}
	return v.Img
}

// RAMs is a free list of VM RAM blocks: a driver's successor, or the VM
// a microreboot swaps in, takes the block its predecessor released
// instead of 4 KiB from the allocator. Like kernel.Bufs it serves one
// system (drvlib keeps one per driver binary, which drives one machine's
// device), whose processes run one at a time, so it needs no lock, and
// which block a VM gets is a function of the seed. The zero value is
// empty and ready; a nil *RAMs allocates every block.
type RAMs struct{ free []*[RAMWords]uint32 }

// New creates a VM that shares img, which nothing may write while VMs
// run it (Writable copies it for the VM that wants to), on a RAM block
// from the list, zeroed: the VM sees exactly what New's fresh block
// gives it.
func (r *RAMs) New(img *Image, bus IOBus) *VM {
	v := &VM{Img: img, Bus: bus, shared: true}
	if r == nil || len(r.free) == 0 {
		v.RAM = new([RAMWords]uint32)
		return v
	}
	v.RAM = r.free[len(r.free)-1]
	r.free = r.free[:len(r.free)-1]
	*v.RAM = [RAMWords]uint32{}
	return v
}

// Release takes back the RAM block of a VM that will never run again
// (its instance died, or a microreboot replaced it). The VM is left
// without RAM or bus, so no handle to it reaches the block's next owner.
func (r *RAMs) Release(v *VM) {
	if v == nil || v.RAM == nil {
		return
	}
	if r != nil {
		r.free = append(r.free, v.RAM)
	}
	v.RAM, v.Bus = nil, nil
}

// Result is the outcome of one routine invocation.
type Result struct {
	Outcome Outcome
	PC      int    // pc at termination
	Reason  string // human-readable detail for traps/asserts
}

// Run executes the named entry routine with args loaded into r1..rN
// (r0 is cleared). Register and RAM state persist across invocations,
// like a real driver's globals.
func (v *VM) Run(entry string, args ...uint32) Result {
	if v.PerfBegin != nil {
		v.PerfBegin()
		defer v.PerfEnd()
	}
	return v.run(entry, args...)
}

func (v *VM) run(entry string, args ...uint32) Result {
	pc, ok := v.Img.entries[entry]
	if !ok {
		return Result{Outcome: OutcomeCPU, Reason: fmt.Sprintf("no entry %q", entry)}
	}
	v.Regs[0] = 0
	for i, a := range args {
		if i+1 < NumRegs {
			v.Regs[i+1] = a
		}
	}
	budget := v.Budget
	if budget <= 0 {
		budget = DefaultStepBudget
	}
	var (
		stack [callDepth]int
		sp    int
		zf    bool
		lt    bool
	)
	for step := 0; step < budget; step++ {
		if pc < 0 || pc >= len(v.Img.Code) {
			return Result{Outcome: OutcomeCPU, PC: pc, Reason: "pc out of code"}
		}
		in := v.Img.Code[pc]
		v.Steps++
		pc++
		op, rd, rs, imm := in.Op(), in.Rd(), in.Rs(), in.Imm()
		switch op {
		case OpNop:
		case OpMovI:
			v.Regs[rd] = uint32(imm)
		case OpMov:
			v.Regs[rd] = v.Regs[rs]
		case OpAdd:
			v.Regs[rd] += v.Regs[rs]
		case OpAddI:
			v.Regs[rd] = uint32(int32(v.Regs[rd]) + in.SImm())
		case OpSub:
			v.Regs[rd] -= v.Regs[rs]
		case OpAnd:
			v.Regs[rd] &= v.Regs[rs]
		case OpAndI:
			v.Regs[rd] &= uint32(imm)
		case OpOr:
			v.Regs[rd] |= v.Regs[rs]
		case OpOrI:
			v.Regs[rd] |= uint32(imm)
		case OpXor:
			v.Regs[rd] ^= v.Regs[rs]
		case OpShlI:
			v.Regs[rd] <<= imm & 31
		case OpShrI:
			v.Regs[rd] >>= imm & 31
		case OpDiv:
			if v.Regs[rs] == 0 {
				return Result{Outcome: OutcomeCPU, PC: pc - 1, Reason: "division by zero"}
			}
			v.Regs[rd] /= v.Regs[rs]
		case OpLd:
			addr := v.Regs[rs] + uint32(imm)
			if addr >= RAMWords {
				return Result{Outcome: OutcomeMMU, PC: pc - 1, Reason: fmt.Sprintf("load at %#x", addr)}
			}
			v.Regs[rd] = v.RAM[addr]
		case OpSt:
			addr := v.Regs[rd] + uint32(imm)
			if addr >= RAMWords {
				return Result{Outcome: OutcomeMMU, PC: pc - 1, Reason: fmt.Sprintf("store at %#x", addr)}
			}
			v.RAM[addr] = v.Regs[rs]
		case OpIn:
			val, ok := v.Bus.In(v.Regs[rs] + uint32(imm))
			if !ok {
				v.IOErrors++
				val = 0xFFFFFFFF
			}
			v.Regs[rd] = val
		case OpOut:
			if !v.Bus.Out(v.Regs[rd]+uint32(imm), v.Regs[rs]) {
				v.IOErrors++
			}
		case OpCmp:
			zf = v.Regs[rd] == v.Regs[rs]
			lt = v.Regs[rd] < v.Regs[rs]
		case OpCmpI:
			zf = v.Regs[rd] == uint32(imm)
			lt = v.Regs[rd] < uint32(imm)
		case OpJmp:
			pc = int(imm)
		case OpJz:
			if zf {
				pc = int(imm)
			}
		case OpJnz:
			if !zf {
				pc = int(imm)
			}
		case OpJlt:
			if lt {
				pc = int(imm)
			}
		case OpJge:
			if !lt {
				pc = int(imm)
			}
		case OpCall:
			if sp >= callDepth {
				return Result{Outcome: OutcomeCPU, PC: pc - 1, Reason: "call stack overflow"}
			}
			stack[sp] = pc
			sp++
			pc = int(imm)
		case OpRet:
			if sp == 0 {
				return Result{Outcome: OutcomeCPU, PC: pc - 1, Reason: "return without call"}
			}
			sp--
			pc = stack[sp]
		case OpAssert:
			if v.Regs[rd] == 0 {
				return Result{Outcome: OutcomeAssert, PC: pc - 1, Reason: fmt.Sprintf("assert r%d", rd)}
			}
		case OpHalt:
			return Result{Outcome: OutcomeOK, PC: pc - 1}
		case OpFail:
			return Result{Outcome: OutcomeFail, PC: pc - 1}
		default:
			return Result{Outcome: OutcomeCPU, PC: pc - 1, Reason: fmt.Sprintf("illegal opcode %#02x", uint8(op))}
		}
	}
	return Result{Outcome: OutcomeStall, PC: pc, Reason: "step budget exhausted"}
}
