// Package policy implements the policy-script engine of the recovery
// procedure (paper §5.2): the subset of the POSIX shell that recovery
// policies use. Recovery policies are real scripts — the paper's Fig. 2
// generic script runs here nearly verbatim — with host-provided commands
// (`service`, `mail`, `log`, `reboot`) bound by the reincarnation server
// and `sleep` bound to virtual time.
//
// Supported: assignments, positional parameters, `$?` and `$#`, quoting,
// `$((...))` arithmetic, `if`/`elif`/`else`, `while`, `case` with glob
// patterns and `|`, pipelines, heredocs, and the builtins test/[, shift,
// exit, cat, sleep and getopts. Anything else (`for`, `&&`, `||`, `$@`,
// echo, true, ...) fails to parse or fails as an unknown command, and the
// reincarnation server falls back to a direct restart. Every expansion is
// bounded at maxExpansion bytes and every run at stepLimit commands.
package policy

import (
	"fmt"
	"strings"
)

type tokKind int

const (
	tokWord    tokKind = iota + 1
	tokOp              // | ; ( ) ;;
	tokNewline         // line break (separator)
	tokHeredoc         // << TAG; Doc holds the body index
	tokEOF
)

type token struct {
	kind tokKind
	op   string // for tokOp
	w    word   // for tokWord
	doc  int    // for tokHeredoc: index into lexer.docs
	line int
}

func (t token) String() string {
	switch t.kind {
	case tokWord:
		return fmt.Sprintf("word(%s)", t.w.debug())
	case tokOp:
		return fmt.Sprintf("op(%s)", t.op)
	case tokNewline:
		return "newline"
	case tokHeredoc:
		return "heredoc"
	case tokEOF:
		return "eof"
	}
	return "tok?"
}

// partKind distinguishes the pieces a word is assembled from.
type partKind int

const (
	partLit   partKind = iota + 1 // literal text
	partVar                       // $name / ${name} / $1 / $? / $#
	partArith                     // $(( expr ))
)

type part struct {
	kind   partKind
	s      string // literal text, variable name, or arithmetic source
	quoted bool   // inside quotes: exempt from field splitting
}

// word is a sequence of parts expanded at run time.
type word []part

func (w word) debug() string {
	var b strings.Builder
	for _, p := range w {
		switch p.kind {
		case partLit:
			b.WriteString(p.s)
		case partVar:
			b.WriteString("$" + p.s)
		case partArith:
			b.WriteString("$((" + p.s + "))")
		}
	}
	return b.String()
}

// literal reports whether the word is a single unquoted literal equal to s
// (used to recognize reserved words).
func (w word) literal() (string, bool) {
	if len(w) == 1 && w[0].kind == partLit && !w[0].quoted {
		return w[0].s, true
	}
	return "", false
}

type lexError struct {
	line int
	msg  string
}

func (e *lexError) Error() string { return fmt.Sprintf("policy: line %d: %s", e.line, e.msg) }

type lexer struct {
	lines []string
	toks  []token
	docs  []word // heredoc bodies (expandable)
}

// lex tokenizes the whole script eagerly, resolving heredocs.
func lex(src string) (*lexer, error) {
	lx := &lexer{lines: strings.Split(src, "\n")}
	for li := 0; li < len(lx.lines); li++ {
		line := lx.lines[li]
		var pendingTags []string // heredocs opened on this line, in order
		firstDoc := len(lx.docs)
		pos := 0
		lineNo := li + 1
		for pos < len(line) {
			c := line[pos]
			switch {
			case c == ' ' || c == '\t':
				pos++
			case c == '#':
				pos = len(line) // comment to end of line
			case c == '&' || strings.HasPrefix(line[pos:], "||"):
				op := line[pos : pos+1]
				if pos+1 < len(line) && line[pos+1] == c {
					op = line[pos : pos+2]
				}
				return nil, &lexError{lineNo, fmt.Sprintf("%q not supported", op)}
			case c == '|':
				lx.emitOp("|", lineNo)
				pos++
			case c == ';':
				if pos+1 < len(line) && line[pos+1] == ';' {
					lx.emitOp(";;", lineNo)
					pos += 2
				} else {
					lx.emitOp(";", lineNo)
					pos++
				}
			case c == '(':
				lx.emitOp("(", lineNo)
				pos++
			case c == ')':
				lx.emitOp(")", lineNo)
				pos++
			case c == '<':
				if pos+1 < len(line) && line[pos+1] == '<' {
					pos += 2
					// Lex the tag word.
					for pos < len(line) && (line[pos] == ' ' || line[pos] == '\t') {
						pos++
					}
					start := pos
					for pos < len(line) && !strings.ContainsRune(" \t|;#()", rune(line[pos])) {
						pos++
					}
					tag := strings.Trim(line[start:pos], `"'`)
					if tag == "" {
						return nil, &lexError{lineNo, "heredoc without tag"}
					}
					lx.toks = append(lx.toks, token{kind: tokHeredoc, doc: len(lx.docs), line: lineNo})
					lx.docs = append(lx.docs, nil)
					pendingTags = append(pendingTags, tag)
				} else {
					return nil, &lexError{lineNo, "input redirection not supported"}
				}
			default:
				w, n, err := lexWord(line[pos:], lineNo)
				if err != nil {
					return nil, err
				}
				lx.toks = append(lx.toks, token{kind: tokWord, w: w, line: lineNo})
				pos += n
			}
		}
		lx.toks = append(lx.toks, token{kind: tokNewline, line: lineNo})
		// Collect heredoc bodies following this line.
		for i, tag := range pendingTags {
			var body []string
			li++
			found := false
			for ; li < len(lx.lines); li++ {
				if strings.TrimRight(lx.lines[li], " \t") == tag {
					found = true
					break
				}
				body = append(body, lx.lines[li])
			}
			if !found {
				return nil, &lexError{lineNo, fmt.Sprintf("heredoc tag %q not terminated", tag)}
			}
			doc, err := lexDocBody(strings.Join(body, "\n")+"\n", lineNo)
			if err != nil {
				return nil, err
			}
			lx.docs[firstDoc+i] = doc
		}
	}
	lx.toks = append(lx.toks, token{kind: tokEOF, line: len(lx.lines)})
	return lx, nil
}

func (lx *lexer) emitOp(op string, line int) {
	lx.toks = append(lx.toks, token{kind: tokOp, op: op, line: line})
}

// wordBreak reports whether c terminates an unquoted word.
func wordBreak(c byte) bool {
	switch c {
	case ' ', '\t', '|', ';', '#', '(', ')', '&', '<':
		return true
	}
	return false
}

// lexWord scans one word starting at s[0]; returns the word and the bytes
// consumed.
func lexWord(s string, line int) (word, int, error) {
	var w word
	pos := 0
	appendLit := func(text string, quoted bool) {
		if text == "" {
			return
		}
		// Merge adjacent literals with the same quoting.
		if n := len(w); n > 0 && w[n-1].kind == partLit && w[n-1].quoted == quoted {
			w[n-1].s += text
			return
		}
		w = append(w, part{kind: partLit, s: text, quoted: quoted})
	}
	for pos < len(s) && !wordBreak(s[pos]) {
		switch c := s[pos]; c {
		case '\'':
			end := strings.IndexByte(s[pos+1:], '\'')
			if end < 0 {
				return nil, 0, &lexError{line, "unterminated single quote"}
			}
			text := s[pos+1 : pos+1+end]
			if text == "" {
				w = append(w, part{kind: partLit, s: "", quoted: true})
			}
			appendLit(text, true)
			pos += end + 2
		case '"':
			pos++
			start := pos
			empty := true
			for pos < len(s) && s[pos] != '"' {
				// A backslash escapes only $ " \ and `; before anything
				// else it stands for itself, as in sh.
				if s[pos] == '\\' && pos+1 < len(s) && strings.IndexByte("$\"\\`", s[pos+1]) >= 0 {
					appendLit(s[start:pos], true)
					appendLit(s[pos+1:pos+2], true)
					pos += 2
					start = pos
					empty = false
					continue
				}
				if s[pos] == '$' {
					appendLit(s[start:pos], true)
					p, n, err := lexDollar(s[pos:], line, true)
					if err != nil {
						return nil, 0, err
					}
					w = append(w, p)
					pos += n
					start = pos
					empty = false
					continue
				}
				pos++
			}
			if pos >= len(s) {
				return nil, 0, &lexError{line, "unterminated double quote"}
			}
			if s[start:pos] == "" && empty && len(w) == 0 {
				w = append(w, part{kind: partLit, s: "", quoted: true})
			}
			appendLit(s[start:pos], true)
			pos++ // closing quote
		case '\\':
			if pos+1 >= len(s) {
				return nil, 0, &lexError{line, "dangling backslash"}
			}
			appendLit(string(s[pos+1]), true)
			pos += 2
		case '$':
			p, n, err := lexDollar(s[pos:], line, false)
			if err != nil {
				return nil, 0, err
			}
			w = append(w, p)
			pos += n
		default:
			start := pos
			for pos < len(s) && !wordBreak(s[pos]) &&
				s[pos] != '\'' && s[pos] != '"' && s[pos] != '\\' && s[pos] != '$' {
				pos++
			}
			appendLit(s[start:pos], false)
		}
	}
	if len(w) == 0 {
		return nil, 0, &lexError{line, "empty word"}
	}
	return w, pos, nil
}

// lexDollar scans a $-expansion at s[0] == '$'.
func lexDollar(s string, line int, quoted bool) (part, int, error) {
	if len(s) < 2 {
		return part{kind: partLit, s: "$", quoted: quoted}, 1, nil
	}
	switch c := s[1]; {
	case c == '(':
		if strings.HasPrefix(s, "$((") {
			depth := 0
			for i := 3; i < len(s)-1; i++ {
				switch s[i] {
				case '(':
					depth++
				case ')':
					if depth == 0 && s[i+1] == ')' {
						return part{kind: partArith, s: s[3:i], quoted: quoted}, i + 2, nil
					}
					depth--
				}
			}
			return part{}, 0, &lexError{line, "unterminated $(( ))"}
		}
		return part{}, 0, &lexError{line, "command substitution not supported"}
	case c == '{':
		end := strings.IndexByte(s, '}')
		if end < 0 {
			return part{}, 0, &lexError{line, "unterminated ${ }"}
		}
		return part{kind: partVar, s: s[2:end], quoted: quoted}, end + 1, nil
	case c >= '0' && c <= '9':
		return part{kind: partVar, s: string(c), quoted: quoted}, 2, nil
	case c == '?' || c == '#':
		return part{kind: partVar, s: string(c), quoted: quoted}, 2, nil
	case c == '@' || c == '*':
		return part{}, 0, &lexError{line, fmt.Sprintf("$%c not supported", c)}
	case isNameByte(c) && !(c >= '0' && c <= '9'):
		end := 1
		for end < len(s) && isNameByte(s[end]) {
			end++
		}
		return part{kind: partVar, s: s[1:end], quoted: quoted}, end, nil
	default:
		return part{kind: partLit, s: "$", quoted: quoted}, 1, nil
	}
}

func isNameByte(c byte) bool {
	return c == '_' || c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9'
}

// lexDocBody turns a heredoc body into an expandable word ($ expansions
// honored, everything else literal).
func lexDocBody(body string, line int) (word, error) {
	var w word
	start := 0
	for i := 0; i < len(body); {
		if body[i] == '$' {
			if start < i {
				w = append(w, part{kind: partLit, s: body[start:i], quoted: true})
			}
			p, n, err := lexDollar(body[i:], line, true)
			if err != nil {
				return nil, err
			}
			w = append(w, p)
			i += n
			start = i
			continue
		}
		i++
	}
	if start < len(body) {
		w = append(w, part{kind: partLit, s: body[start:], quoted: true})
	}
	return w, nil
}
