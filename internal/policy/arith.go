package policy

import (
	"fmt"
	"strconv"
	"strings"
)

// evalArith evaluates a $(( ... )) expression. Variables may appear bare
// (repetition) or with a dollar ($repetition); undefined variables read as
// zero, as in POSIX shells.
func (in *Interp) evalArith(expr string) (int64, error) {
	p := &arithParser{src: expr, in: in}
	v, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	p.skipSpace()
	if p.pos != len(p.src) {
		return 0, fmt.Errorf("arith: trailing %q", p.src[p.pos:])
	}
	return v, nil
}

type arithParser struct {
	src string
	pos int
	in  *Interp
}

func (p *arithParser) skipSpace() {
	for p.pos < len(p.src) && (p.src[p.pos] == ' ' || p.src[p.pos] == '\t' || p.src[p.pos] == '\n') {
		p.pos++
	}
}

func (p *arithParser) peekOp(ops ...string) string {
	p.skipSpace()
	for _, op := range ops {
		if strings.HasPrefix(p.src[p.pos:], op) {
			return op
		}
	}
	return ""
}

func (p *arithParser) take(op string) { p.pos += len(op) }

func (p *arithParser) parseTernary() (int64, error) {
	cond, err := p.parseBinary(0)
	if err != nil {
		return 0, err
	}
	if p.peekOp("?") == "" {
		return cond, nil
	}
	p.take("?")
	a, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	if p.peekOp(":") == "" {
		return 0, fmt.Errorf("arith: ?: missing :")
	}
	p.take(":")
	b, err := p.parseTernary()
	if err != nil {
		return 0, err
	}
	if cond != 0 {
		return a, nil
	}
	return b, nil
}

// Precedence levels, loosest first.
var arithLevels = [][]string{
	{"||"},
	{"&&"},
	{"|"},
	{"^"},
	{"&"},
	{"==", "!="},
	{"<=", ">=", "<<", ">>", "<", ">"}, // shifts share chars with compares; handled below
	{"+", "-"},
	{"*", "/", "%"},
}

func (p *arithParser) parseBinary(level int) (int64, error) {
	if level >= len(arithLevels) {
		return p.parseUnary()
	}
	left, err := p.parseBinary(level + 1)
	if err != nil {
		return 0, err
	}
	for {
		op := p.peekOp(arithLevels[level]...)
		if op == "" {
			return left, nil
		}
		// Disambiguate shifts vs. comparisons at the shared level.
		if level == 6 {
			if two := p.peekOp("<<", ">>", "<=", ">="); two != "" {
				op = two
			}
		}
		// Don't eat "||"/"&&" as "|"/"&".
		if (op == "|" && p.peekOp("||") != "") || (op == "&" && p.peekOp("&&") != "") {
			return left, nil
		}
		p.take(op)
		right, err := p.parseBinary(level + 1)
		if err != nil {
			return 0, err
		}
		left, err = applyArith(op, left, right)
		if err != nil {
			return 0, err
		}
	}
}

func applyArith(op string, a, b int64) (int64, error) {
	btoi := func(v bool) int64 {
		if v {
			return 1
		}
		return 0
	}
	switch op {
	case "||":
		return btoi(a != 0 || b != 0), nil
	case "&&":
		return btoi(a != 0 && b != 0), nil
	case "|":
		return a | b, nil
	case "^":
		return a ^ b, nil
	case "&":
		return a & b, nil
	case "==":
		return btoi(a == b), nil
	case "!=":
		return btoi(a != b), nil
	case "<":
		return btoi(a < b), nil
	case "<=":
		return btoi(a <= b), nil
	case ">":
		return btoi(a > b), nil
	case ">=":
		return btoi(a >= b), nil
	case "<<":
		if b < 0 || b > 63 {
			return 0, fmt.Errorf("arith: shift count %d", b)
		}
		return a << uint(b), nil
	case ">>":
		if b < 0 || b > 63 {
			return 0, fmt.Errorf("arith: shift count %d", b)
		}
		return a >> uint(b), nil
	case "+":
		return a + b, nil
	case "-":
		return a - b, nil
	case "*":
		return a * b, nil
	case "/":
		if b == 0 {
			return 0, fmt.Errorf("arith: division by zero")
		}
		return a / b, nil
	case "%":
		if b == 0 {
			return 0, fmt.Errorf("arith: modulo by zero")
		}
		return a % b, nil
	}
	return 0, fmt.Errorf("arith: bad operator %q", op)
}

func (p *arithParser) parseUnary() (int64, error) {
	p.skipSpace()
	if p.pos >= len(p.src) {
		return 0, fmt.Errorf("arith: unexpected end")
	}
	switch c := p.src[p.pos]; c {
	case '-':
		p.pos++
		v, err := p.parseUnary()
		return -v, err
	case '+':
		p.pos++
		return p.parseUnary()
	case '!':
		p.pos++
		v, err := p.parseUnary()
		if err != nil {
			return 0, err
		}
		if v == 0 {
			return 1, nil
		}
		return 0, nil
	case '~':
		p.pos++
		v, err := p.parseUnary()
		return ^v, err
	case '(':
		p.pos++
		v, err := p.parseTernary()
		if err != nil {
			return 0, err
		}
		p.skipSpace()
		if p.pos >= len(p.src) || p.src[p.pos] != ')' {
			return 0, fmt.Errorf("arith: missing )")
		}
		p.pos++
		return v, nil
	case '$':
		p.pos++
		return p.parseName()
	default:
		if c >= '0' && c <= '9' {
			start := p.pos
			for p.pos < len(p.src) && (isNameByte(p.src[p.pos])) {
				p.pos++
			}
			v, err := strconv.ParseInt(p.src[start:p.pos], 0, 64)
			if err != nil {
				return 0, fmt.Errorf("arith: bad number %q", p.src[start:p.pos])
			}
			return v, nil
		}
		if isNameByte(c) {
			return p.parseName()
		}
		return 0, fmt.Errorf("arith: unexpected %q", string(c))
	}
}

func (p *arithParser) parseName() (int64, error) {
	start := p.pos
	for p.pos < len(p.src) && isNameByte(p.src[p.pos]) {
		p.pos++
	}
	if p.pos == start && start > 0 && p.src[start-1] == '$' && p.pos < len(p.src) && strings.IndexByte("#?", p.src[p.pos]) >= 0 {
		p.pos++ // $# or $?
	}
	name := p.src[start:p.pos]
	if name == "" {
		return 0, fmt.Errorf("arith: empty variable name")
	}
	val := p.in.lookupVar(name)
	if val == "" {
		return 0, nil
	}
	v, err := strconv.ParseInt(strings.TrimSpace(val), 0, 64)
	if err != nil {
		return 0, fmt.Errorf("arith: variable %s=%q is not a number", name, val)
	}
	return v, nil
}
