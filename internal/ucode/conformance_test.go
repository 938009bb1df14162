package ucode

import "testing"

// confCase exercises one opcode with hand-encoded instructions (no
// assembler in the loop) and pins its architectural effect: outcome,
// registers, RAM, and bus state.
type confCase struct {
	name    string
	op      Op
	code    []Instr
	args    []uint32          // loaded into r1.. by Run
	ram     map[uint32]uint32 // pre-set RAM words
	bus     map[uint32]uint32 // pre-set bus ports
	outcome Outcome
	regs    map[int]uint32    // expected register values afterwards
	ramOut  map[uint32]uint32 // expected RAM words afterwards
	busOut  map[uint32]uint32 // expected bus ports afterwards
}

func halt() Instr { return Enc(OpHalt, 0, 0, 0) }

// conformance is the opcode sweep: at least one case for every opcode in
// the ISA, covering both the normal effect and (where an opcode traps)
// the trap. TestOpcodeConformanceComplete enforces full coverage.
var conformance = []confCase{
	{name: "nop", op: OpNop,
		code:    []Instr{Enc(OpNop, 0, 0, 0), halt()},
		args:    []uint32{7},
		outcome: OutcomeOK, regs: map[int]uint32{0: 0, 1: 7}},
	{name: "movi", op: OpMovI,
		code:    []Instr{Enc(OpMovI, 1, 0, 0x1234), halt()},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0x1234}},
	{name: "mov", op: OpMov,
		code:    []Instr{Enc(OpMov, 2, 1, 0), halt()},
		args:    []uint32{77},
		outcome: OutcomeOK, regs: map[int]uint32{1: 77, 2: 77}},
	{name: "add", op: OpAdd,
		code:    []Instr{Enc(OpAdd, 1, 2, 0), halt()},
		args:    []uint32{5, 7},
		outcome: OutcomeOK, regs: map[int]uint32{1: 12, 2: 7}},
	{name: "add/wraps", op: OpAdd,
		code:    []Instr{Enc(OpAdd, 1, 2, 0), halt()},
		args:    []uint32{0xFFFFFFFF, 2},
		outcome: OutcomeOK, regs: map[int]uint32{1: 1}},
	{name: "addi/positive", op: OpAddI,
		code:    []Instr{Enc(OpAddI, 1, 0, 10), halt()},
		args:    []uint32{5},
		outcome: OutcomeOK, regs: map[int]uint32{1: 15}},
	{name: "addi/sign-extends", op: OpAddI,
		code:    []Instr{Enc(OpAddI, 1, 0, 0xFFFF), halt()}, // imm = -1
		args:    []uint32{10},
		outcome: OutcomeOK, regs: map[int]uint32{1: 9}},
	{name: "sub", op: OpSub,
		code:    []Instr{Enc(OpSub, 1, 2, 0), halt()},
		args:    []uint32{10, 3},
		outcome: OutcomeOK, regs: map[int]uint32{1: 7}},
	{name: "and", op: OpAnd,
		code:    []Instr{Enc(OpAnd, 1, 2, 0), halt()},
		args:    []uint32{0b1100, 0b1010},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0b1000}},
	{name: "andi", op: OpAndI,
		code:    []Instr{Enc(OpAndI, 1, 0, 0x0F), halt()},
		args:    []uint32{0xFF},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0x0F}},
	{name: "or", op: OpOr,
		code:    []Instr{Enc(OpOr, 1, 2, 0), halt()},
		args:    []uint32{0b1100, 0b1010},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0b1110}},
	{name: "ori", op: OpOrI,
		code:    []Instr{Enc(OpOrI, 1, 0, 0xF0), halt()},
		args:    []uint32{0x0F},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0xFF}},
	{name: "xor", op: OpXor,
		code:    []Instr{Enc(OpXor, 1, 2, 0), halt()},
		args:    []uint32{0b1100, 0b1010},
		outcome: OutcomeOK, regs: map[int]uint32{1: 0b0110}},
	{name: "shli", op: OpShlI,
		code:    []Instr{Enc(OpShlI, 1, 0, 4), halt()},
		args:    []uint32{1},
		outcome: OutcomeOK, regs: map[int]uint32{1: 16}},
	{name: "shli/count-mod-32", op: OpShlI,
		code:    []Instr{Enc(OpShlI, 1, 0, 33), halt()}, // 33&31 == 1
		args:    []uint32{1},
		outcome: OutcomeOK, regs: map[int]uint32{1: 2}},
	{name: "shri", op: OpShrI,
		code:    []Instr{Enc(OpShrI, 1, 0, 4), halt()},
		args:    []uint32{16},
		outcome: OutcomeOK, regs: map[int]uint32{1: 1}},
	{name: "div", op: OpDiv,
		code:    []Instr{Enc(OpDiv, 1, 2, 0), halt()},
		args:    []uint32{42, 7},
		outcome: OutcomeOK, regs: map[int]uint32{1: 6}},
	{name: "div/by-zero-traps", op: OpDiv,
		code:    []Instr{Enc(OpDiv, 1, 2, 0), halt()},
		args:    []uint32{42, 0},
		outcome: OutcomeCPU, regs: map[int]uint32{1: 42}},
	{name: "ld", op: OpLd,
		code:    []Instr{Enc(OpLd, 2, 1, 4), halt()},
		args:    []uint32{1},
		ram:     map[uint32]uint32{5: 99},
		outcome: OutcomeOK, regs: map[int]uint32{2: 99}},
	{name: "ld/out-of-ram-traps", op: OpLd,
		code:    []Instr{Enc(OpLd, 2, 1, 0), halt()},
		args:    []uint32{RAMWords},
		outcome: OutcomeMMU, regs: map[int]uint32{2: 0}},
	{name: "st", op: OpSt,
		code:    []Instr{Enc(OpSt, 1, 2, 4), halt()},
		args:    []uint32{1, 0xAB},
		outcome: OutcomeOK, ramOut: map[uint32]uint32{5: 0xAB}},
	{name: "st/out-of-ram-traps", op: OpSt,
		code:    []Instr{Enc(OpSt, 1, 2, 0), halt()},
		args:    []uint32{RAMWords, 0xAB},
		outcome: OutcomeMMU},
	{name: "in", op: OpIn,
		code:    []Instr{Enc(OpIn, 2, 1, 4), halt()},
		args:    []uint32{0x100},
		bus:     map[uint32]uint32{0x104: 0xBEEF},
		outcome: OutcomeOK, regs: map[int]uint32{2: 0xBEEF}},
	{name: "out", op: OpOut,
		code:    []Instr{Enc(OpOut, 1, 2, 4), halt()},
		args:    []uint32{0x100, 0xCAFE},
		outcome: OutcomeOK, busOut: map[uint32]uint32{0x104: 0xCAFE}},
	{name: "cmp/equal-sets-zf", op: OpCmp,
		code: []Instr{
			Enc(OpCmp, 1, 2, 0), Enc(OpJz, 0, 0, 4), Enc(OpMovI, 3, 0, 0), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{5, 5},
		outcome: OutcomeOK, regs: map[int]uint32{3: 1}},
	{name: "cmp/less-sets-lt", op: OpCmp,
		code: []Instr{
			Enc(OpCmp, 1, 2, 0), Enc(OpJlt, 0, 0, 4), Enc(OpMovI, 3, 0, 0), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{3, 5},
		outcome: OutcomeOK, regs: map[int]uint32{3: 1}},
	{name: "cmpi", op: OpCmpI,
		code: []Instr{
			Enc(OpCmpI, 1, 0, 5), Enc(OpJz, 0, 0, 4), Enc(OpMovI, 3, 0, 0), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{5},
		outcome: OutcomeOK, regs: map[int]uint32{3: 1}},
	{name: "jmp", op: OpJmp,
		code:    []Instr{Enc(OpJmp, 0, 0, 2), Enc(OpFail, 0, 0, 0), halt()},
		outcome: OutcomeOK},
	{name: "jz/not-taken", op: OpJz,
		code: []Instr{
			Enc(OpCmpI, 1, 0, 5), Enc(OpJz, 0, 0, 4), Enc(OpMovI, 3, 0, 2), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{6},
		outcome: OutcomeOK, regs: map[int]uint32{3: 2}},
	{name: "jnz/taken", op: OpJnz,
		code: []Instr{
			Enc(OpCmpI, 1, 0, 0), Enc(OpJnz, 0, 0, 4), Enc(OpMovI, 3, 0, 2), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{1},
		outcome: OutcomeOK, regs: map[int]uint32{3: 1}},
	{name: "jlt/not-taken-on-ge", op: OpJlt,
		code: []Instr{
			Enc(OpCmp, 1, 2, 0), Enc(OpJlt, 0, 0, 4), Enc(OpMovI, 3, 0, 2), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{5, 3},
		outcome: OutcomeOK, regs: map[int]uint32{3: 2}},
	{name: "jge/taken", op: OpJge,
		code: []Instr{
			Enc(OpCmp, 1, 2, 0), Enc(OpJge, 0, 0, 4), Enc(OpMovI, 3, 0, 2), halt(),
			Enc(OpMovI, 3, 0, 1), halt(),
		},
		args:    []uint32{5, 3},
		outcome: OutcomeOK, regs: map[int]uint32{3: 1}},
	{name: "call-ret", op: OpCall,
		code: []Instr{
			Enc(OpCall, 0, 0, 2), halt(),
			Enc(OpMovI, 1, 0, 7), Enc(OpRet, 0, 0, 0),
		},
		outcome: OutcomeOK, regs: map[int]uint32{1: 7}},
	{name: "ret/without-call-traps", op: OpRet,
		code:    []Instr{Enc(OpRet, 0, 0, 0), halt()},
		outcome: OutcomeCPU},
	{name: "assert/nonzero-passes", op: OpAssert,
		code:    []Instr{Enc(OpAssert, 1, 0, 0), halt()},
		args:    []uint32{1},
		outcome: OutcomeOK},
	{name: "assert/zero-panics", op: OpAssert,
		code:    []Instr{Enc(OpAssert, 1, 0, 0), halt()},
		outcome: OutcomeAssert},
	{name: "halt", op: OpHalt,
		code:    []Instr{halt()},
		outcome: OutcomeOK},
	{name: "fail", op: OpFail,
		code:    []Instr{Enc(OpFail, 0, 0, 0)},
		outcome: OutcomeFail},
}

func runConfCase(t *testing.T, tc confCase) {
	t.Helper()
	img := &Image{Code: tc.code, entries: map[string]int{"main": 0}}
	bus := newBus()
	for p, v := range tc.bus {
		bus.regs[p] = v
	}
	vm := New(img, bus)
	vm.Budget = 1000
	for a, v := range tc.ram {
		vm.RAM[a] = v
	}
	res := vm.Run("main", tc.args...)
	if res.Outcome != tc.outcome {
		t.Fatalf("outcome = %v (pc %d, %s), want %v", res.Outcome, res.PC, res.Reason, tc.outcome)
	}
	for r, want := range tc.regs {
		if got := vm.Regs[r]; got != want {
			t.Errorf("r%d = %#x, want %#x", r, got, want)
		}
	}
	for a, want := range tc.ramOut {
		if got := vm.RAM[a]; got != want {
			t.Errorf("ram[%d] = %#x, want %#x", a, got, want)
		}
	}
	for p, want := range tc.busOut {
		if got := bus.regs[p]; got != want {
			t.Errorf("port %#x = %#x, want %#x", p, got, want)
		}
	}
}

func TestOpcodeConformance(t *testing.T) {
	for _, tc := range conformance {
		t.Run(tc.name, func(t *testing.T) { runConfCase(t, tc) })
	}
}

// TestOpcodeConformanceComplete fails when an ISA opcode has no
// conformance case — adding an opcode forces adding its semantics here.
func TestOpcodeConformanceComplete(t *testing.T) {
	covered := make(map[Op]bool)
	for _, tc := range conformance {
		covered[tc.op] = true
	}
	for op := OpNop; op <= OpFail; op++ {
		if !covered[op] {
			t.Errorf("opcode %#02x has no conformance case", uint8(op))
		}
	}
}

// FuzzAssemble feeds arbitrary source text to the assembler. Assemble
// must either return an error or produce an image whose every entry runs
// to a classified outcome — never panic the host.
func FuzzAssemble(f *testing.F) {
	seeds := []string{
		"", "halt", ".entry main\nmain:\n\thalt\n",
		".entry main\nmain:\n\tmovi r1, 0x100\n\tin r2, [r1+4]\n\tcmpi r2, 0\n\tjz done\n\tassert r2\ndone:\n\thalt\n",
		"loop:\n\taddi r1, -1\n\tcmpi r1, 0\n\tjnz loop\n\tret\n",
		".entry x\nx:\n\tld r3, [r0+BASE]\n\tst [r0+8], r3\n\tcall x\n",
		"movi r1, 99999999999", "movi r99, 1", "jz nowhere", "mov r1",
		"st [r1+", "\x00\xff", "a:\na:\n", ".entry", "; comment only\n",
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, src string) {
		img, err := Assemble(src, map[string]uint32{"BASE": 0x20})
		if err != nil {
			return
		}
		for name := range img.entries {
			vm := New(img.Clone(), newBus())
			vm.Budget = 512
			res := vm.Run(name)
			switch res.Outcome {
			case OutcomeOK, OutcomeFail, OutcomeAssert, OutcomeMMU, OutcomeCPU, OutcomeStall:
			default:
				t.Fatalf("entry %q: unclassified outcome %v", name, res.Outcome)
			}
		}
	})
}
