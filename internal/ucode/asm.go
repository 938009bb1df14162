package ucode

import (
	"fmt"
	"strconv"
	"strings"
)

// Assemble translates ucode assembly text into an Image.
//
// Syntax, one instruction or label per line; ';' starts a comment:
//
//	.entry rxpath        ; declare the next label as a named entry point
//	rxpath:
//	    movi r1, 0x1000  ; immediates: decimal, 0x hex, or 'name' constants
//	    in   r2, [r1+4]
//	    cmpi r2, 0
//	    jz   done
//	    ld   r3, [r0+8]
//	    st   [r0+12], r3
//	    assert r3
//	done:
//	    halt
//
// Constants may be predefined via the consts map (register names are
// always r0..r15).
func Assemble(src string, consts map[string]uint32) (*Image, error) {
	type pending struct {
		instr int    // instruction index to patch
		label string // target label
		line  int
	}
	img := &Image{entries: make(map[string]int)}
	labels := make(map[string]int)
	var fixups []pending
	var entryNext []string

	lines := strings.Split(src, "\n")
	for ln, raw := range lines {
		line := raw
		if i := strings.IndexByte(line, ';'); i >= 0 {
			line = line[:i]
		}
		line = strings.TrimSpace(line)
		if line == "" {
			continue
		}
		lineNo := ln + 1

		if strings.HasPrefix(line, ".entry") {
			name := strings.TrimSpace(strings.TrimPrefix(line, ".entry"))
			if name == "" {
				return nil, fmt.Errorf("ucode: line %d: .entry needs a name", lineNo)
			}
			entryNext = append(entryNext, name)
			continue
		}
		if strings.HasSuffix(line, ":") {
			label := strings.TrimSuffix(line, ":")
			if _, dup := labels[label]; dup {
				return nil, fmt.Errorf("ucode: line %d: duplicate label %q", lineNo, label)
			}
			labels[label] = len(img.Code)
			for _, e := range entryNext {
				img.entries[e] = len(img.Code)
			}
			entryNext = nil
			continue
		}

		mnemonic, rest := line, ""
		if i := strings.IndexAny(line, " \t"); i >= 0 {
			mnemonic, rest = line[:i], strings.TrimSpace(line[i+1:])
		}
		var ops []string
		if rest != "" {
			for _, o := range strings.Split(rest, ",") {
				ops = append(ops, strings.TrimSpace(o))
			}
		}

		instr, labelRef, err := assembleOne(mnemonic, ops, consts)
		if err != nil {
			return nil, fmt.Errorf("ucode: line %d: %v", lineNo, err)
		}
		if labelRef != "" {
			fixups = append(fixups, pending{instr: len(img.Code), label: labelRef, line: lineNo})
		}
		img.Code = append(img.Code, instr)
	}
	if len(entryNext) > 0 {
		return nil, fmt.Errorf("ucode: trailing .entry without label")
	}
	for _, f := range fixups {
		target, ok := labels[f.label]
		if !ok {
			return nil, fmt.Errorf("ucode: line %d: undefined label %q", f.line, f.label)
		}
		if target > 0xFFFF {
			return nil, fmt.Errorf("ucode: line %d: label %q out of range", f.line, f.label)
		}
		img.Code[f.instr] = img.Code[f.instr].WithImm(uint16(target))
	}
	return img, nil
}

// MustAssemble is Assemble that panics on error; for compiled-in driver
// programs whose correctness is a build-time invariant.
func MustAssemble(src string, consts map[string]uint32) *Image {
	img, err := Assemble(src, consts)
	if err != nil {
		panic(err)
	}
	return img
}

var asmOps = map[string]struct {
	op    Op
	shape string // operand shape
}{
	"nop":    {OpNop, ""},
	"movi":   {OpMovI, "ri"},
	"mov":    {OpMov, "rr"},
	"add":    {OpAdd, "rr"},
	"addi":   {OpAddI, "ri"},
	"sub":    {OpSub, "rr"},
	"and":    {OpAnd, "rr"},
	"andi":   {OpAndI, "ri"},
	"or":     {OpOr, "rr"},
	"ori":    {OpOrI, "ri"},
	"xor":    {OpXor, "rr"},
	"shli":   {OpShlI, "ri"},
	"shri":   {OpShrI, "ri"},
	"div":    {OpDiv, "rr"},
	"ld":     {OpLd, "rm"},
	"st":     {OpSt, "mr"},
	"in":     {OpIn, "rm"},
	"out":    {OpOut, "mr"},
	"cmp":    {OpCmp, "rr"},
	"cmpi":   {OpCmpI, "ri"},
	"jmp":    {OpJmp, "l"},
	"jz":     {OpJz, "l"},
	"jnz":    {OpJnz, "l"},
	"jlt":    {OpJlt, "l"},
	"jge":    {OpJge, "l"},
	"call":   {OpCall, "l"},
	"ret":    {OpRet, ""},
	"assert": {OpAssert, "r"},
	"halt":   {OpHalt, ""},
	"fail":   {OpFail, ""},
}

func assembleOne(mnemonic string, ops []string, consts map[string]uint32) (Instr, string, error) {
	spec, ok := asmOps[strings.ToLower(mnemonic)]
	if !ok {
		return 0, "", fmt.Errorf("unknown mnemonic %q", mnemonic)
	}
	need := map[string]int{"": 0, "r": 1, "l": 1, "ri": 2, "rr": 2, "rm": 2, "mr": 2}[spec.shape]
	if len(ops) != need {
		return 0, "", fmt.Errorf("%s takes %d operand(s), got %d", mnemonic, need, len(ops))
	}
	switch spec.shape {
	case "":
		return Enc(spec.op, 0, 0, 0), "", nil
	case "r":
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, "", err
		}
		return Enc(spec.op, rd, 0, 0), "", nil
	case "l":
		// Jump/call target: a label or a bare number.
		if imm, err := parseImm(ops[0], consts); err == nil {
			return Enc(spec.op, 0, 0, imm), "", nil
		}
		return Enc(spec.op, 0, 0, 0), ops[0], nil
	case "ri":
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, "", err
		}
		imm, err := parseImm(ops[1], consts)
		if err != nil {
			return 0, "", err
		}
		return Enc(spec.op, rd, 0, imm), "", nil
	case "rr":
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, "", err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return 0, "", err
		}
		return Enc(spec.op, rd, rs, 0), "", nil
	case "rm": // ld/in: reg, [reg+imm]
		rd, err := parseReg(ops[0])
		if err != nil {
			return 0, "", err
		}
		rs, imm, err := parseMem(ops[1], consts)
		if err != nil {
			return 0, "", err
		}
		return Enc(spec.op, rd, rs, imm), "", nil
	case "mr": // st/out: [reg+imm], reg
		rd, imm, err := parseMem(ops[0], consts)
		if err != nil {
			return 0, "", err
		}
		rs, err := parseReg(ops[1])
		if err != nil {
			return 0, "", err
		}
		return Enc(spec.op, rd, rs, imm), "", nil
	}
	return 0, "", fmt.Errorf("bad shape %q", spec.shape)
}

func parseReg(s string) (int, error) {
	s = strings.ToLower(strings.TrimSpace(s))
	if !strings.HasPrefix(s, "r") {
		return 0, fmt.Errorf("bad register %q", s)
	}
	n, err := strconv.Atoi(s[1:])
	if err != nil || n < 0 || n >= NumRegs {
		return 0, fmt.Errorf("bad register %q", s)
	}
	return n, nil
}

func parseImm(s string, consts map[string]uint32) (uint16, error) {
	s = strings.TrimSpace(s)
	if consts != nil {
		if v, ok := consts[s]; ok {
			if v > 0xFFFF {
				return 0, fmt.Errorf("constant %q = %d exceeds 16 bits", s, v)
			}
			return uint16(v), nil
		}
	}
	v, err := strconv.ParseInt(s, 0, 64)
	if err != nil {
		return 0, fmt.Errorf("bad immediate %q", s)
	}
	if v < -0x8000 || v > 0xFFFF {
		return 0, fmt.Errorf("immediate %q out of 16-bit range", s)
	}
	return uint16(v), nil
}

// parseMem parses "[rN+imm]", "[rN]", or "[rN+name]".
func parseMem(s string, consts map[string]uint32) (reg int, imm uint16, err error) {
	s = strings.TrimSpace(s)
	if !strings.HasPrefix(s, "[") || !strings.HasSuffix(s, "]") {
		return 0, 0, fmt.Errorf("bad memory operand %q", s)
	}
	inner := s[1 : len(s)-1]
	regPart, immPart := inner, ""
	if i := strings.IndexByte(inner, '+'); i >= 0 {
		regPart, immPart = inner[:i], inner[i+1:]
	}
	reg, err = parseReg(regPart)
	if err != nil {
		return 0, 0, err
	}
	if immPart != "" {
		imm, err = parseImm(immPart, consts)
		if err != nil {
			return 0, 0, err
		}
	}
	return reg, imm, nil
}
