package ucode

import (
	"reflect"
	"strings"
	"testing"
	"testing/quick"
)

// mapBus is a fake port bus backed by a map.
type mapBus struct {
	regs    map[uint32]uint32
	allowed func(uint32) bool
}

func (b *mapBus) In(port uint32) (uint32, bool) {
	if b.allowed != nil && !b.allowed(port) {
		return 0, false
	}
	return b.regs[port], true
}

func (b *mapBus) Out(port uint32, val uint32) bool {
	if b.allowed != nil && !b.allowed(port) {
		return false
	}
	b.regs[port] = val
	return true
}

func newBus() *mapBus { return &mapBus{regs: map[uint32]uint32{}} }

func mustRun(t *testing.T, src string, entry string, args ...uint32) (*VM, Result) {
	t.Helper()
	img, err := Assemble(src, nil)
	if err != nil {
		t.Fatalf("assemble: %v", err)
	}
	vm := New(img, newBus())
	res := vm.Run(entry, args...)
	return vm, res
}

func TestArithmetic(t *testing.T) {
	vm, res := mustRun(t, `
.entry main
main:
	movi r1, 10
	movi r2, 3
	mov  r3, r1
	add  r3, r2    ; 13
	sub  r1, r2    ; 7
	movi r4, 6
	movi r5, 2
	div  r4, r5    ; 3
	shli r4, 4     ; 48
	halt
`, "main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v (%s)", res.Outcome, res.Reason)
	}
	if vm.Regs[3] != 13 || vm.Regs[1] != 7 || vm.Regs[4] != 48 {
		t.Fatalf("regs: r3=%d r1=%d r4=%d", vm.Regs[3], vm.Regs[1], vm.Regs[4])
	}
}

func TestLoopAndBranches(t *testing.T) {
	// Sum 1..10 with a loop.
	vm, res := mustRun(t, `
.entry main
main:
	movi r1, 0    ; sum
	movi r2, 1    ; i
loop:
	add  r1, r2
	addi r2, 1
	cmpi r2, 11
	jnz  loop
	halt
`, "main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if vm.Regs[1] != 55 {
		t.Fatalf("sum = %d, want 55", vm.Regs[1])
	}
}

func TestMemoryLoadStore(t *testing.T) {
	vm, res := mustRun(t, `
.entry main
main:
	movi r1, 100
	movi r2, 0xBEE
	st   [r1+5], r2
	ld   r3, [r1+5]
	halt
`, "main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if vm.Regs[3] != 0xBEE || vm.RAM[105] != 0xBEE {
		t.Fatalf("r3=%#x ram=%#x", vm.Regs[3], vm.RAM[105])
	}
}

func TestMMUTrapOnBadLoad(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	movi r1, 0xFFFF
	ld   r2, [r1+0]
	halt
`, "main")
	if res.Outcome != OutcomeMMU {
		t.Fatalf("outcome = %v, want MMU", res.Outcome)
	}
}

func TestMMUTrapOnBadStore(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	movi r1, 2000
	st   [r1+0], r1
	halt
`, "main")
	if res.Outcome != OutcomeMMU {
		t.Fatalf("outcome = %v, want MMU", res.Outcome)
	}
}

func TestCPUTrapOnDivZero(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	movi r1, 5
	movi r2, 0
	div  r1, r2
	halt
`, "main")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU", res.Outcome)
	}
}

func TestCPUTrapOnIllegalOpcode(t *testing.T) {
	img := &Image{
		Code:    []Instr{Enc(Op(0xEE), 0, 0, 0)},
		entries: map[string]int{"main": 0},
	}
	res := New(img, newBus()).Run("main")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU", res.Outcome)
	}
}

func TestCPUTrapOnRetWithoutCall(t *testing.T) {
	_, res := mustRun(t, "\n.entry main\nmain:\n\tret\n", "main")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU", res.Outcome)
	}
}

func TestCPUTrapOnPCOffEnd(t *testing.T) {
	_, res := mustRun(t, "\n.entry main\nmain:\n\tnop\n", "main")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU (fell off code end)", res.Outcome)
	}
}

func TestAssertFailure(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	movi r1, 0
	assert r1
	halt
`, "main")
	if res.Outcome != OutcomeAssert {
		t.Fatalf("outcome = %v, want assert", res.Outcome)
	}
}

func TestAssertPass(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	movi r1, 1
	assert r1
	halt
`, "main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
}

func TestStallOnInfiniteLoop(t *testing.T) {
	img := MustAssemble(`
.entry main
main:
loop:
	jmp loop
`, nil)
	vm := New(img, newBus())
	vm.Budget = 1000
	res := vm.Run("main")
	if res.Outcome != OutcomeStall {
		t.Fatalf("outcome = %v, want stall", res.Outcome)
	}
}

func TestCallRet(t *testing.T) {
	vm, res := mustRun(t, `
.entry main
main:
	movi r1, 1
	call sub
	addi r1, 100
	halt
sub:
	addi r1, 10
	ret
`, "main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if vm.Regs[1] != 111 {
		t.Fatalf("r1 = %d, want 111", vm.Regs[1])
	}
}

func TestCallStackOverflow(t *testing.T) {
	_, res := mustRun(t, `
.entry main
main:
	call main
`, "main")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU", res.Outcome)
	}
}

func TestPortIO(t *testing.T) {
	img := MustAssemble(`
.entry main
main:
	movi r1, 0x1000
	movi r2, 0xAB
	out  [r1+4], r2
	in   r3, [r1+4]
	halt
`, nil)
	bus := newBus()
	vm := New(img, bus)
	res := vm.Run("main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if vm.Regs[3] != 0xAB || bus.regs[0x1004] != 0xAB {
		t.Fatalf("r3=%#x bus=%#x", vm.Regs[3], bus.regs[0x1004])
	}
}

func TestPortIODeniedReadsAllOnes(t *testing.T) {
	img := MustAssemble(`
.entry main
main:
	movi r1, 0x2000
	in   r2, [r1+0]
	movi r3, 1
	out  [r1+0], r3
	halt
`, nil)
	bus := newBus()
	bus.allowed = func(p uint32) bool { return p < 0x2000 }
	vm := New(img, bus)
	res := vm.Run("main")
	if res.Outcome != OutcomeOK {
		t.Fatalf("outcome = %v", res.Outcome)
	}
	if vm.Regs[2] != 0xFFFFFFFF {
		t.Fatalf("denied read = %#x, want all-ones", vm.Regs[2])
	}
	if vm.IOErrors != 2 {
		t.Fatalf("IOErrors = %d, want 2", vm.IOErrors)
	}
}

func TestEntryArgsInRegisters(t *testing.T) {
	vm, res := mustRun(t, `
.entry main
main:
	add r1, r2
	halt
`, "main", 40, 2)
	if res.Outcome != OutcomeOK || vm.Regs[1] != 42 {
		t.Fatalf("outcome=%v r1=%d", res.Outcome, vm.Regs[1])
	}
}

func TestUnknownEntry(t *testing.T) {
	img := MustAssemble("\n.entry main\nmain:\n\thalt\n", nil)
	res := New(img, newBus()).Run("nope")
	if res.Outcome != OutcomeCPU {
		t.Fatalf("outcome = %v, want CPU", res.Outcome)
	}
}

func TestConstants(t *testing.T) {
	img, err := Assemble(`
.entry main
main:
	movi r1, BASE
	in   r2, [r1+STATUS]
	halt
`, map[string]uint32{"BASE": 0x1000, "STATUS": 4})
	if err != nil {
		t.Fatal(err)
	}
	if img.Code[0].Imm() != 0x1000 || img.Code[1].Imm() != 4 {
		t.Fatalf("consts not substituted: %v", img.Code)
	}
}

func TestAssembleErrors(t *testing.T) {
	cases := []struct {
		name string
		src  string
		want string
	}{
		{"unknown mnemonic", "frob r1, r2", "unknown mnemonic"},
		{"bad register", "movi rx, 1", "bad register"},
		{"missing operand", "movi r1", "takes 2 operand"},
		{"undefined label", "jmp nowhere", "undefined label"},
		{"duplicate label", "a:\nnop\na:\nnop", "duplicate label"},
		{"immediate range", "movi r1, 70000", "out of 16-bit range"},
		{"bad mem operand", "ld r1, r2", "bad memory operand"},
		{"trailing entry", ".entry x", "trailing .entry"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Assemble(tc.src, nil)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want containing %q", err, tc.want)
			}
		})
	}
}

func TestMultipleEntries(t *testing.T) {
	img := MustAssemble(`
.entry init
init:
	movi r1, 1
	halt
.entry rx
rx:
	movi r1, 2
	halt
`, nil)
	vm := New(img, newBus())
	if res := vm.Run("rx"); res.Outcome != OutcomeOK || vm.Regs[1] != 2 {
		t.Fatalf("rx: %v r1=%d", res.Outcome, vm.Regs[1])
	}
	if res := vm.Run("init"); res.Outcome != OutcomeOK || vm.Regs[1] != 1 {
		t.Fatalf("init: %v r1=%d", res.Outcome, vm.Regs[1])
	}
}

func TestStatePersistsAcrossInvocations(t *testing.T) {
	img := MustAssemble(`
.entry bump
bump:
	movi r1, 10
	ld   r2, [r1+0]
	addi r2, 1
	st   [r1+0], r2
	halt
`, nil)
	vm := New(img, newBus())
	for i := 0; i < 3; i++ {
		if res := vm.Run("bump"); res.Outcome != OutcomeOK {
			t.Fatalf("run %d: %v", i, res.Outcome)
		}
	}
	if vm.RAM[10] != 3 {
		t.Fatalf("counter = %d, want 3", vm.RAM[10])
	}
}

// TestImageClone: a clone's code is its own, and the entry table it
// shares with the original cannot be written through it — there is no
// exported map to write, and the table a caller gets is a copy.
func TestImageClone(t *testing.T) {
	img := MustAssemble("\n.entry main\nmain:\n\tmovi r1, 5\n\thalt\n", nil)
	cp := img.Clone()
	cp.Code[0] = cp.Code[0].WithImm(9)
	if img.Code[0].Imm() != 5 {
		t.Fatal("clone shares code with original")
	}
	tbl := cp.EntryTable()
	tbl["other"] = 1
	tbl["main"] = 7
	for _, im := range []*Image{img, cp} {
		if _, ok := im.entries["other"]; ok {
			t.Fatal("an entry added to the returned table reached an image")
		}
		if pc, ok := im.entries["main"]; !ok || pc != 0 {
			t.Fatalf("entry main = %d, %v after writing the returned table; want 0, true", pc, ok)
		}
	}
	for _, f := range reflect.VisibleFields(reflect.TypeOf(Image{})) {
		if f.IsExported() && f.Type.Kind() == reflect.Map {
			t.Errorf("Image exports map field %s: the shared entry table is writable", f.Name)
		}
	}
}

// Property: encode/decode round-trips for all field values.
func TestInstrFieldRoundtrip(t *testing.T) {
	f := func(op uint8, rd, rs uint8, imm uint16) bool {
		o := Op(op % uint8(opMax))
		i := Enc(o, int(rd%16), int(rs%16), imm)
		return i.Op() == o && i.Rd() == int(rd%16) && i.Rs() == int(rs%16) && i.Imm() == imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: With* setters change exactly their own field.
func TestInstrWithSetters(t *testing.T) {
	f := func(raw uint32, rd, rs uint8, imm uint16) bool {
		i := Instr(raw)
		a := i.WithRd(int(rd % 16))
		b := i.WithRs(int(rs % 16))
		c := i.WithImm(imm)
		return a.Rs() == i.Rs() && a.Imm() == i.Imm() && a.Rd() == int(rd%16) &&
			b.Rd() == i.Rd() && b.Imm() == i.Imm() && b.Rs() == int(rs%16) &&
			c.Rd() == i.Rd() && c.Rs() == i.Rs() && c.Imm() == imm
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: the VM never panics on arbitrary single-instruction programs —
// every mutation lands in a defined outcome. This is the guarantee the
// fault injector depends on.
func TestVMNeverPanicsOnArbitraryCode(t *testing.T) {
	f := func(words []uint32) bool {
		if len(words) == 0 {
			return true
		}
		code := make([]Instr, len(words))
		for i, w := range words {
			code[i] = Instr(w)
		}
		img := &Image{Code: code, entries: map[string]int{"main": 0}}
		vm := New(img, newBus())
		vm.Budget = 2000
		res := vm.Run("main")
		switch res.Outcome {
		case OutcomeOK, OutcomeFail, OutcomeAssert, OutcomeMMU, OutcomeCPU, OutcomeStall:
			return true
		}
		return false
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestDisassembly(t *testing.T) {
	img := MustAssemble(`
.entry main
main:
	movi r1, 7
	ld r2, [r1+3]
	st [r1+4], r2
	in r5, [r1+0]
	out [r1+8], r5
	assert r5
	jmp main
`, nil)
	wants := []string{"movi r1, 7", "ld r2, [r1+3]", "st [r1+4], r2",
		"in r5, [r1+0]", "out [r1+8], r5", "assert r5", "jmp 0"}
	for i, w := range wants {
		if got := img.Code[i].String(); got != w {
			t.Errorf("disasm[%d] = %q, want %q", i, got, w)
		}
	}
}

// Outcomes print by name in failure messages and reports.
func TestOutcomeNames(t *testing.T) {
	for o, want := range map[Outcome]string{
		OutcomeOK: "ok", OutcomeFail: "fail", OutcomeAssert: "assert",
		OutcomeMMU: "mmu", OutcomeCPU: "cpu", OutcomeStall: "stall", 99: "Outcome(99)",
	} {
		if got := o.String(); got != want {
			t.Errorf("Outcome(%d) = %q, want %q", int(o), got, want)
		}
	}
}
