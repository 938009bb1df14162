// Package ucode implements a tiny register VM that hosts the control paths
// of the simulated device drivers.
//
// The paper's fault-injection experiments mutate the *binary code* of a
// running driver (change registers, garble pointers, invert loop
// conditions, flip bits, elide instructions) and observe how the failure
// manifests: an internal panic, a CPU/MMU exception, or a stuck driver
// caught by missing heartbeats. To reproduce that in Go — whose runtime
// cannot survive real code mutation — driver hot paths are written in this
// VM's instruction set. The fault injector (internal/fi) mutates encoded
// instructions exactly the way the paper's injectors do, and the VM yields
// the same observable outcome classes:
//
//   - OutcomeAssert: a driver consistency check failed → driver panic
//   - OutcomeMMU:    out-of-bounds load/store → MMU exception → kill
//   - OutcomeCPU:    illegal opcode, division by zero, call-stack abuse →
//     CPU exception → kill
//   - OutcomeStall:  step budget exceeded (e.g. inverted loop condition) →
//     the driver stops answering → heartbeat misses
//
// A restarted driver instance loads a pristine image, which is what makes
// "replace with a fresh copy" cure these failures.
package ucode

import (
	"fmt"
	"maps"
	"slices"
)

// Op is an instruction opcode.
type Op uint8

// Instruction opcodes. The numeric values are part of the "binary"
// encoding the fault injector mutates, so they are stable.
const (
	OpNop    Op = 0x00
	OpMovI   Op = 0x01 // rd = imm
	OpMov    Op = 0x02 // rd = rs
	OpAdd    Op = 0x03 // rd += rs
	OpAddI   Op = 0x04 // rd += imm (sign-extended)
	OpSub    Op = 0x05 // rd -= rs
	OpAnd    Op = 0x06 // rd &= rs
	OpAndI   Op = 0x07 // rd &= imm
	OpOr     Op = 0x08 // rd |= rs
	OpOrI    Op = 0x09 // rd |= imm
	OpXor    Op = 0x0A // rd ^= rs
	OpShlI   Op = 0x0B // rd <<= imm
	OpShrI   Op = 0x0C // rd >>= imm
	OpDiv    Op = 0x0D // rd /= rs; rs == 0 is a CPU exception
	OpLd     Op = 0x0E // rd = ram[rs+imm]
	OpSt     Op = 0x0F // ram[rd+imm] = rs
	OpIn     Op = 0x10 // rd = port[rs+imm]
	OpOut    Op = 0x11 // port[rd+imm] = rs
	OpCmp    Op = 0x12 // flags = compare(rd, rs)
	OpCmpI   Op = 0x13 // flags = compare(rd, imm)
	OpJmp    Op = 0x14 // pc = imm
	OpJz     Op = 0x15 // if Z: pc = imm
	OpJnz    Op = 0x16 // if !Z: pc = imm
	OpJlt    Op = 0x17 // if LT: pc = imm
	OpJge    Op = 0x18 // if !LT: pc = imm
	OpCall   Op = 0x19 // push pc; pc = imm
	OpRet    Op = 0x1A // pc = pop
	OpAssert Op = 0x1B // if rd == 0: consistency panic
	OpHalt   Op = 0x1C // stop, success
	OpFail   Op = 0x1D // stop, failure (r0 = reason code)
	opMax    Op = 0x1E
)

var opNames = map[Op]string{
	OpNop: "nop", OpMovI: "movi", OpMov: "mov", OpAdd: "add", OpAddI: "addi",
	OpSub: "sub", OpAnd: "and", OpAndI: "andi", OpOr: "or", OpOrI: "ori",
	OpXor: "xor", OpShlI: "shli", OpShrI: "shri", OpDiv: "div",
	OpLd: "ld", OpSt: "st", OpIn: "in", OpOut: "out",
	OpCmp: "cmp", OpCmpI: "cmpi", OpJmp: "jmp", OpJz: "jz", OpJnz: "jnz",
	OpJlt: "jlt", OpJge: "jge", OpCall: "call", OpRet: "ret",
	OpAssert: "assert", OpHalt: "halt", OpFail: "fail",
}

func (o Op) String() string {
	if n, ok := opNames[o]; ok {
		return n
	}
	return fmt.Sprintf("op%#02x", uint8(o))
}

// NumRegs is the register file size (r0..r15).
const NumRegs = 16

// Instr is one encoded instruction: op(8) | rd(4) | rs(4) | imm(16).
type Instr uint32

// Enc builds an instruction word.
func Enc(op Op, rd, rs int, imm uint16) Instr {
	return Instr(uint32(op)<<24 | uint32(rd&0xF)<<20 | uint32(rs&0xF)<<16 | uint32(imm))
}

// Op extracts the opcode field.
func (i Instr) Op() Op { return Op(i >> 24) }

// Rd extracts the destination register field.
func (i Instr) Rd() int { return int(i>>20) & 0xF }

// Rs extracts the source register field.
func (i Instr) Rs() int { return int(i>>16) & 0xF }

// Imm extracts the immediate field.
func (i Instr) Imm() uint16 { return uint16(i) }

// SImm extracts the immediate as a sign-extended value.
func (i Instr) SImm() int32 { return int32(int16(uint16(i))) }

// WithOp returns the instruction with the opcode replaced.
func (i Instr) WithOp(op Op) Instr { return Instr(uint32(i)&0x00FFFFFF | uint32(op)<<24) }

// WithRd returns the instruction with the rd field replaced.
func (i Instr) WithRd(rd int) Instr {
	return Instr(uint32(i)&^uint32(0xF<<20) | uint32(rd&0xF)<<20)
}

// WithRs returns the instruction with the rs field replaced.
func (i Instr) WithRs(rs int) Instr {
	return Instr(uint32(i)&^uint32(0xF<<16) | uint32(rs&0xF)<<16)
}

// WithImm returns the instruction with the immediate replaced.
func (i Instr) WithImm(imm uint16) Instr {
	return Instr(uint32(i)&^uint32(0xFFFF) | uint32(imm))
}

// String disassembles the instruction.
func (i Instr) String() string {
	op := i.Op()
	switch op {
	case OpNop, OpRet, OpHalt, OpFail:
		return op.String()
	case OpMovI, OpAddI, OpAndI, OpOrI, OpShlI, OpShrI, OpCmpI:
		return fmt.Sprintf("%s r%d, %d", op, i.Rd(), i.Imm())
	case OpMov, OpAdd, OpSub, OpAnd, OpOr, OpXor, OpDiv, OpCmp:
		return fmt.Sprintf("%s r%d, r%d", op, i.Rd(), i.Rs())
	case OpLd:
		return fmt.Sprintf("ld r%d, [r%d+%d]", i.Rd(), i.Rs(), i.Imm())
	case OpSt:
		return fmt.Sprintf("st [r%d+%d], r%d", i.Rd(), i.Imm(), i.Rs())
	case OpIn:
		return fmt.Sprintf("in r%d, [r%d+%d]", i.Rd(), i.Rs(), i.Imm())
	case OpOut:
		return fmt.Sprintf("out [r%d+%d], r%d", i.Rd(), i.Imm(), i.Rs())
	case OpJmp, OpJz, OpJnz, OpJlt, OpJge, OpCall:
		return fmt.Sprintf("%s %d", op, i.Imm())
	case OpAssert:
		return fmt.Sprintf("assert r%d", i.Rd())
	default:
		return fmt.Sprintf("%s (raw %#08x)", op, uint32(i))
	}
}

// Image is an executable ucode program: the "driver binary" the fault
// injector mutates. Entry points are named (one routine per driver
// operation). The entry table is immutable once assembled: clones share
// it, and outside the VM it is read only through EntryTable.
type Image struct {
	Code    []Instr
	entries map[string]int // routine name -> instruction index
}

// EntryTable returns a copy of the entry table; writing it changes no
// image.
func (im *Image) EntryTable() map[string]int { return maps.Clone(im.entries) }

// Clone returns a copy a driver instance may mutate, so that injected
// faults die with the instance (a restart loads a fresh image). The code
// is copied; the entry table, which nothing writes, is shared.
func (im *Image) Clone() *Image {
	return &Image{Code: slices.Clone(im.Code), entries: im.entries}
}
