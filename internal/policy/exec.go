package policy

import (
	"errors"
	"fmt"
	"sort"
	"strconv"
	"strings"
	"time"
)

// Command is a host-provided command (e.g. `service`, `mail`, `reboot`
// bound by the reincarnation server). It receives the expanded argv
// (argv[0] is the command name) and the piped-in stdin; it returns its
// stdout and exit status.
type Command func(argv []string, stdin string) (stdout string, status int)

// Interp executes parsed policy scripts. The zero value is not usable;
// call NewInterp.
type Interp struct {
	vars     map[string]string
	args     []string // positional parameters $1..
	status   int      // $?
	commands map[string]Command
	sleep    func(time.Duration)
	limit    int    // remaining execution steps (runaway guard)
	docsRef  []word // heredoc bodies of the script being run
	optind   int    // getopts cursor (1-based position in args)
	trace    Trace  // step-level hook, nil when tracing is off
}

// Trace is the step-level trace hook: it is called after every executed
// simple command with the fully-expanded argv and the command's exit
// status (decision tracing uses it to record a script's "why" trail).
type Trace func(argv []string, status int)

// Option configures an Interp.
type Option func(*Interp)

// WithCommand binds a host command.
func WithCommand(name string, fn Command) Option {
	return func(in *Interp) { in.commands[name] = fn }
}

// WithSleep binds the sleep builtin's clock (the reincarnation server
// binds virtual time). Default: sleeping is a no-op.
func WithSleep(fn func(time.Duration)) Option {
	return func(in *Interp) { in.sleep = fn }
}

// WithArgs sets the positional parameters.
func WithArgs(args ...string) Option {
	return func(in *Interp) { in.args = append([]string(nil), args...) }
}

// WithTrace installs the step-level trace hook.
func WithTrace(fn Trace) Option {
	return func(in *Interp) { in.trace = fn }
}

// VarState renders the interpreter's shell variables as a canonical
// space-separated "name=value" list in name order, so trace hooks can
// snapshot the arith/variable state deterministically.
func (in *Interp) VarState() string {
	names := make([]string, 0, len(in.vars))
	for n := range in.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for i, n := range names {
		if i > 0 {
			b.WriteByte(' ')
		}
		b.WriteString(n)
		b.WriteByte('=')
		b.WriteString(in.vars[n])
	}
	return b.String()
}

// stepLimit bounds total commands executed per run; a policy script that
// exceeds it is defective itself.
const stepLimit = 100_000

// maxExpansion bounds the bytes one word, assignment, case word or
// heredoc expands to: a loop that doubles a string fails here, with an
// error, instead of in the host's memory.
const maxExpansion = 64 << 10

var errExpansion = fmt.Errorf("policy: expansion exceeds %d bytes", maxExpansion)

// NewInterp creates an interpreter.
func NewInterp(opts ...Option) *Interp {
	in := &Interp{
		vars:     make(map[string]string),
		commands: make(map[string]Command),
		sleep:    func(time.Duration) {},
		limit:    stepLimit,
	}
	for _, o := range opts {
		o(in)
	}
	return in
}

// exitError unwinds the script on `exit N`.
type exitError struct{ status int }

func (e *exitError) Error() string { return fmt.Sprintf("exit %d", e.status) }

// Run executes a parsed script and returns its exit status.
func (in *Interp) Run(s *Script) (int, error) {
	in.docsRef = s.docs
	err := in.execList(s.root)
	var ex *exitError
	if errors.As(err, &ex) {
		in.status = ex.status
		return ex.status, nil
	}
	if err != nil {
		return 1, err
	}
	return in.status, nil
}

// RunSource parses and executes src.
func (in *Interp) RunSource(src string) (int, error) {
	s, err := Parse(src)
	if err != nil {
		return 1, err
	}
	return in.Run(s)
}

// Var returns the value of a variable after a run (tests, host queries).
func (in *Interp) Var(name string) string { return in.vars[name] }

func (in *Interp) step() error {
	in.limit--
	if in.limit <= 0 {
		return fmt.Errorf("policy: script exceeded %d steps", stepLimit)
	}
	return nil
}

func (in *Interp) lookupVar(name string) string {
	switch name {
	case "?":
		return strconv.Itoa(in.status)
	case "#":
		return strconv.Itoa(len(in.args))
	}
	if len(name) == 1 && name[0] >= '0' && name[0] <= '9' {
		idx := int(name[0] - '0')
		if idx == 0 {
			return "policy" // $0
		}
		if idx <= len(in.args) {
			return in.args[idx-1]
		}
		return ""
	}
	return in.vars[name]
}

// expandPart expands one part of a word.
func (in *Interp) expandPart(p part) (string, error) {
	switch p.kind {
	case partVar:
		return in.lookupVar(p.s), nil
	case partArith:
		v, err := in.evalArith(p.s)
		return strconv.FormatInt(v, 10), err
	}
	return p.s, nil
}

// expandWord expands a word into fields (IFS splitting applies to unquoted
// expansions).
func (in *Interp) expandWord(w word) ([]string, error) {
	type frag struct {
		s      string
		quoted bool
	}
	frags := make([]frag, 0, len(w))
	size := 0
	for _, p := range w {
		s, err := in.expandPart(p)
		if err != nil {
			return nil, err
		}
		if size += len(s); size > maxExpansion {
			return nil, errExpansion
		}
		frags = append(frags, frag{s, p.quoted})
	}
	// Assemble fields: quoted fragments never split; unquoted fragments
	// split on whitespace.
	var fields []string
	cur := ""
	started := false
	flush := func() {
		if started {
			fields = append(fields, cur)
			cur = ""
			started = false
		}
	}
	for _, f := range frags {
		if f.quoted {
			cur += f.s
			started = true
			continue
		}
		parts := strings.FieldsFunc(f.s, isIFS)
		if len(parts) == 0 {
			if f.s == "" {
				continue
			}
			// whitespace-only unquoted expansion: separator
			flush()
			continue
		}
		lead, trail := isIFS(rune(f.s[0])), isIFS(rune(f.s[len(f.s)-1]))
		for i, pt := range parts {
			if i == 0 && !lead {
				cur += pt
				started = true
			} else {
				flush()
				cur = pt
				started = true
			}
		}
		if trail {
			flush()
		}
	}
	flush()
	return fields, nil
}

// isIFS reports whether r separates fields: the default IFS is space,
// tab and newline.
func isIFS(r rune) bool { return r == ' ' || r == '\t' || r == '\n' }

// expandOne expands a word into exactly one string (no field splitting) —
// for assignments and case subjects.
func (in *Interp) expandOne(w word) (string, error) {
	var b strings.Builder
	for _, p := range w {
		s, err := in.expandPart(p)
		if err != nil {
			return "", err
		}
		if b.Len()+len(s) > maxExpansion {
			return "", errExpansion
		}
		b.WriteString(s)
	}
	return b.String(), nil
}

func (in *Interp) execList(l *listNode) error {
	for _, item := range l.items {
		if err := in.execNode(item, "", nil); err != nil {
			return err
		}
	}
	return nil
}

// execNode executes a node. stdin is the piped input; the node's output
// is collected in out, or discarded when out is nil (a script's own
// output goes nowhere: the reincarnation server gives it no terminal).
func (in *Interp) execNode(n node, stdin string, out *strings.Builder) error {
	if err := in.step(); err != nil {
		return err
	}
	switch n := n.(type) {
	case *listNode:
		return in.execList(n)
	case *pipeNode:
		data, before := stdin, in.status
		for i, cmd := range n.cmds {
			var buf strings.Builder
			sink := &buf
			if i == len(n.cmds)-1 {
				sink = out
			}
			in.status = before // as in sh, every command sees the $? from before the pipeline
			if err := in.execNode(cmd, data, sink); err != nil {
				return err
			}
			if i < len(n.cmds)-1 {
				data = buf.String()
			}
		}
		return nil
	case *simpleNode:
		return in.execSimple(n, stdin, out)
	case *ifNode:
		for _, arm := range n.arms {
			if err := in.execList(arm.cond); err != nil {
				return err
			}
			if in.status == 0 {
				return in.execList(arm.body)
			}
		}
		if n.elseBody != nil {
			return in.execList(n.elseBody)
		}
		in.status = 0
		return nil
	case *whileNode:
		status := 0 // the last body's, as in sh
		for {
			if err := in.execList(n.cond); err != nil {
				return err
			}
			if in.status != 0 {
				in.status = status
				return nil
			}
			if err := in.execList(n.body); err != nil {
				return err
			}
			status = in.status
		}
	case *caseNode:
		subj, err := in.expandOne(n.subject)
		if err != nil {
			return err
		}
		for _, arm := range n.arms {
			for _, pw := range arm.patterns {
				pat, err := in.expandOne(pw)
				if err != nil {
					return err
				}
				if globMatch(pat, subj) {
					if len(arm.body.items) == 0 {
						in.status = 0 // an empty arm succeeds
					}
					return in.execList(arm.body)
				}
			}
		}
		in.status = 0
		return nil
	}
	return fmt.Errorf("policy: unknown node %T", n)
}

func (in *Interp) execSimple(n *simpleNode, stdin string, out *strings.Builder) error {
	// Assignments.
	for _, a := range n.assigns {
		val, err := in.expandOne(a.value)
		if err != nil {
			return err
		}
		in.vars[a.name] = val
	}
	if len(n.words) == 0 {
		in.status = 0
		return nil
	}
	var argv []string
	for _, w := range n.words {
		fields, err := in.expandWord(w)
		if err != nil {
			return err
		}
		argv = append(argv, fields...)
	}
	if len(argv) == 0 {
		in.status = 0
		return nil
	}
	if n.heredoc >= 0 {
		doc, err := in.expandOne(in.docsRef[n.heredoc])
		if err != nil {
			return err
		}
		stdin = doc
	}
	stdout, status, err := in.invoke(argv, stdin)
	if err != nil {
		return err
	}
	in.status = status
	if in.trace != nil {
		in.trace(argv, status)
	}
	if out != nil {
		out.WriteString(stdout)
	}
	return nil
}

// globMatch implements shell pattern matching with * and ?.
func globMatch(pat, s string) bool {
	// Dynamic programming over pattern/string positions.
	pi, si := 0, 0
	star, starSi := -1, 0
	for si < len(s) {
		switch {
		case pi < len(pat) && (pat[pi] == '?' || pat[pi] == s[si]):
			pi++
			si++
		case pi < len(pat) && pat[pi] == '*':
			star, starSi = pi, si
			pi++
		case star >= 0:
			starSi++
			si = starSi
			pi = star + 1
		default:
			return false
		}
	}
	for pi < len(pat) && pat[pi] == '*' {
		pi++
	}
	return pi == len(pat)
}
