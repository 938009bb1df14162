package policy

import (
	"fmt"
	"strings"
)

type parseError struct {
	line int
	msg  string
}

func (e *parseError) Error() string { return fmt.Sprintf("policy: line %d: %s", e.line, e.msg) }

type parser struct {
	toks []token
	docs []word
	pos  int
}

// Parse compiles a script into its AST. The result is reusable across
// executions.
func Parse(src string) (*Script, error) {
	lx, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: lx.toks, docs: lx.docs}
	list, err := p.parseList(nil)
	if err != nil {
		return nil, err
	}
	if p.peek().kind != tokEOF {
		return nil, &parseError{p.peek().line, fmt.Sprintf("unexpected %v", p.peek())}
	}
	return &Script{root: list, docs: lx.docs, src: src}, nil
}

// Fig2 is the paper's generic policy script (Fig. 2): exponential backoff
// (none for a dynamic update), a restart, and an alert mailed to -a's address.
const Fig2 = `
component=$1
reason=$2
repetition=$3
shift 3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
status=$?
while getopts a: option; do
	case $option in
	a)
		cat << END | mail -s "Failure Alert" "$OPTARG"
failure: $component, $reason, $repetition
restart status: $status
END
		;;
	esac
done
`

// MustParse is Parse that panics on error, for compiled-in policies.
func MustParse(src string) *Script {
	s, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return s
}

func (p *parser) peek() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != tokEOF {
		p.pos++
	}
	return t
}

func (p *parser) skipSeparators() {
	for {
		t := p.peek()
		if t.kind == tokNewline || (t.kind == tokOp && t.op == ";") {
			p.pos++
			continue
		}
		return
	}
}

// atReserved reports whether the next token is one of the given reserved
// words in command position.
func (p *parser) atReserved(words ...string) (string, bool) {
	t := p.peek()
	if t.kind != tokWord {
		return "", false
	}
	lit, ok := t.w.literal()
	if !ok {
		return "", false
	}
	for _, w := range words {
		if lit == w {
			return lit, true
		}
	}
	return "", false
}

func (p *parser) expectReserved(word string) error {
	p.skipSeparators()
	if _, ok := p.atReserved(word); !ok {
		return &parseError{p.peek().line, fmt.Sprintf("expected %q, got %v", word, p.peek())}
	}
	p.next()
	return nil
}

// parseList parses until EOF or any of the stop reserved words (not
// consumed).
func (p *parser) parseList(stops []string) (*listNode, error) {
	list := &listNode{}
	for {
		p.skipSeparators()
		t := p.peek()
		if t.kind == tokEOF {
			return list, nil
		}
		if t.kind == tokOp && (t.op == ")" || t.op == ";;") {
			return list, nil
		}
		if len(stops) > 0 {
			if _, ok := p.atReserved(stops...); ok {
				return list, nil
			}
		}
		item, err := p.parseAndOr(stops)
		if err != nil {
			return nil, err
		}
		list.items = append(list.items, item)
	}
}

func (p *parser) parseAndOr(stops []string) (node, error) {
	first, err := p.parsePipeline(stops)
	if err != nil {
		return nil, err
	}
	ao := &andOrNode{first: first}
	for {
		t := p.peek()
		if t.kind == tokOp && (t.op == "&&" || t.op == "||") {
			p.next()
			p.skipSeparators() // allow continuation on the next line
			next, err := p.parsePipeline(stops)
			if err != nil {
				return nil, err
			}
			ao.rest = append(ao.rest, andOrLink{op: t.op, next: next})
			continue
		}
		break
	}
	if len(ao.rest) == 0 {
		return ao.first, nil
	}
	return ao, nil
}

func (p *parser) parsePipeline(stops []string) (node, error) {
	first, err := p.parseCommand(stops)
	if err != nil {
		return nil, err
	}
	pipe := &pipeNode{cmds: []node{first}}
	for {
		t := p.peek()
		if t.kind == tokOp && t.op == "|" {
			p.next()
			p.skipSeparators()
			cmd, err := p.parseCommand(stops)
			if err != nil {
				return nil, err
			}
			pipe.cmds = append(pipe.cmds, cmd)
			continue
		}
		break
	}
	if len(pipe.cmds) == 1 {
		return first, nil
	}
	return pipe, nil
}

func (p *parser) parseCommand(stops []string) (node, error) {
	if word, ok := p.atReserved("if", "while", "for", "case"); ok {
		switch word {
		case "if":
			return p.parseIf()
		case "while":
			return p.parseWhile()
		case "for":
			return p.parseFor()
		case "case":
			return p.parseCase()
		}
	}
	return p.parseSimple()
}

func (p *parser) parseIf() (node, error) {
	line := p.peek().line
	p.next() // "if"
	n := &ifNode{}
	for {
		cond, err := p.parseList([]string{"then"})
		if err != nil {
			return nil, err
		}
		if err := p.expectReserved("then"); err != nil {
			return nil, err
		}
		body, err := p.parseList([]string{"elif", "else", "fi"})
		if err != nil {
			return nil, err
		}
		n.arms = append(n.arms, ifArm{cond: cond, body: body})
		p.skipSeparators()
		if kw, ok := p.atReserved("elif", "else", "fi"); ok {
			p.next()
			switch kw {
			case "elif":
				continue
			case "else":
				elseBody, err := p.parseList([]string{"fi"})
				if err != nil {
					return nil, err
				}
				n.elseBody = elseBody
				if err := p.expectReserved("fi"); err != nil {
					return nil, err
				}
				return n, nil
			case "fi":
				return n, nil
			}
		}
		return nil, &parseError{line, "if without fi"}
	}
}

func (p *parser) parseWhile() (node, error) {
	p.next() // "while"
	cond, err := p.parseList([]string{"do"})
	if err != nil {
		return nil, err
	}
	if err := p.expectReserved("do"); err != nil {
		return nil, err
	}
	body, err := p.parseList([]string{"done"})
	if err != nil {
		return nil, err
	}
	if err := p.expectReserved("done"); err != nil {
		return nil, err
	}
	return &whileNode{cond: cond, body: body}, nil
}

func (p *parser) parseFor() (node, error) {
	line := p.peek().line
	p.next() // "for"
	nameTok := p.next()
	name, ok := "", false
	if nameTok.kind == tokWord {
		name, ok = nameTok.w.literal()
	}
	if !ok || name == "" {
		return nil, &parseError{line, "for needs a variable name"}
	}
	if err := p.expectReserved("in"); err != nil {
		return nil, err
	}
	var words []word
	for p.peek().kind == tokWord {
		words = append(words, p.next().w)
	}
	if err := p.expectReserved("do"); err != nil {
		return nil, err
	}
	body, err := p.parseList([]string{"done"})
	if err != nil {
		return nil, err
	}
	if err := p.expectReserved("done"); err != nil {
		return nil, err
	}
	return &forNode{name: name, words: words, body: body}, nil
}

func (p *parser) parseCase() (node, error) {
	line := p.peek().line
	p.next() // "case"
	subjTok := p.next()
	if subjTok.kind != tokWord {
		return nil, &parseError{line, "case needs a subject word"}
	}
	if err := p.expectReserved("in"); err != nil {
		return nil, err
	}
	n := &caseNode{subject: subjTok.w}
	for {
		p.skipSeparators()
		if _, ok := p.atReserved("esac"); ok {
			p.next()
			return n, nil
		}
		if p.peek().kind == tokEOF {
			return nil, &parseError{line, "case without esac"}
		}
		// Optional '(' then patterns separated by '|', then ')'.
		if t := p.peek(); t.kind == tokOp && t.op == "(" {
			p.next()
		}
		var patterns []word
		for {
			t := p.next()
			if t.kind != tokWord {
				return nil, &parseError{t.line, "expected case pattern"}
			}
			patterns = append(patterns, t.w)
			sep := p.next()
			if sep.kind == tokOp && sep.op == "|" {
				continue
			}
			if sep.kind == tokOp && sep.op == ")" {
				break
			}
			return nil, &parseError{sep.line, fmt.Sprintf("expected | or ) in case pattern, got %v", sep)}
		}
		body, err := p.parseList([]string{"esac"})
		if err != nil {
			return nil, err
		}
		n.arms = append(n.arms, caseArm{patterns: patterns, body: body})
		// Arm terminator ';;' is optional before esac.
		p.skipSeparators()
		if t := p.peek(); t.kind == tokOp && t.op == ";;" {
			p.next()
		}
	}
}

func (p *parser) parseSimple() (node, error) {
	n := &simpleNode{heredoc: -1, line: p.peek().line}
	// Leading assignments: WORD of the shape name=value with literal name.
	for {
		t := p.peek()
		if t.kind != tokWord {
			break
		}
		if a, ok := splitAssign(t.w); ok && len(n.words) == 0 {
			n.assigns = append(n.assigns, a)
			p.next()
			continue
		}
		n.words = append(n.words, t.w)
		p.next()
	}
	// Optional heredoc.
	if t := p.peek(); t.kind == tokHeredoc {
		n.heredoc = t.doc
		p.next()
		// Words may follow a heredoc on the same line (rare); accept them.
		for p.peek().kind == tokWord {
			n.words = append(n.words, p.next().w)
		}
	}
	if len(n.assigns) == 0 && len(n.words) == 0 {
		return nil, &parseError{n.line, fmt.Sprintf("expected command, got %v", p.peek())}
	}
	return n, nil
}

// splitAssign recognizes name=value words. The name must be a literal
// prefix; the value keeps its parts.
func splitAssign(w word) (assign, bool) {
	if len(w) == 0 || w[0].kind != partLit || w[0].quoted {
		return assign{}, false
	}
	eq := strings.IndexByte(w[0].s, '=')
	if eq <= 0 {
		return assign{}, false
	}
	name := w[0].s[:eq]
	for i := 0; i < len(name); i++ {
		if !isNameByte(name[i]) || (i == 0 && name[i] >= '0' && name[i] <= '9') {
			return assign{}, false
		}
	}
	val := word{}
	if rest := w[0].s[eq+1:]; rest != "" {
		val = append(val, part{kind: partLit, s: rest})
	}
	val = append(val, w[1:]...)
	return assign{name: name, value: val}, true
}

// Script is a parsed policy script.
type Script struct {
	root *listNode
	docs []word
	src  string
}

// Source returns the script's source text.
func (s *Script) Source() string { return s.src }
