package policy

import (
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// invoke dispatches argv to a builtin or a host-bound command.
func (in *Interp) invoke(argv []string, stdin string) (stdout string, status int, err error) {
	name := argv[0]
	switch name {
	case "cat":
		// cat without file arguments echoes stdin (the heredoc case).
		return stdin, 0, nil
	case "exit":
		st := in.status
		if len(argv) > 1 {
			st, _ = strconv.Atoi(argv[1])
		}
		return "", 0, &exitError{status: st}
	case "shift":
		n := 1
		if len(argv) > 1 {
			v, convErr := strconv.Atoi(argv[1])
			if convErr != nil || v < 0 {
				return "", 1, fmt.Errorf("policy: shift: bad count %q", argv[1])
			}
			n = v
		}
		if n > len(in.args) {
			return "", 2, fmt.Errorf("policy: shift: count %d exceeds $# = %d", n, len(in.args))
		}
		in.args = in.args[n:]
		in.optind = 0 // positional params changed; restart option parsing
		return "", 0, nil
	case "test", "[":
		args := argv[1:]
		if name == "[" {
			if len(args) == 0 || args[len(args)-1] != "]" {
				return "", 2, fmt.Errorf("policy: [ without closing ]")
			}
			args = args[:len(args)-1]
		}
		ok, testErr := evalTest(args)
		if testErr != nil {
			return "", 2, testErr
		}
		if ok {
			return "", 0, nil
		}
		return "", 1, nil
	case "sleep":
		if len(argv) < 2 {
			return "", 1, fmt.Errorf("policy: sleep: missing duration")
		}
		secs, convErr := strconv.ParseFloat(argv[1], 64)
		if convErr != nil || !(secs >= 0 && secs < math.MaxInt64/float64(time.Second)) {
			return "", 1, fmt.Errorf("policy: sleep: bad duration %q", argv[1])
		}
		in.sleep(time.Duration(secs * float64(time.Second)))
		return "", 0, nil
	case "getopts":
		return in.getopts(argv[1:])
	}
	if fn, ok := in.commands[name]; ok {
		out, st := fn(argv, stdin)
		return out, st, nil
	}
	return "", 127, fmt.Errorf("policy: unknown command %q", name)
}

// getopts implements the POSIX getopts builtin over the positional
// parameters: `getopts a:b opt` sets opt (and OPTARG) per call and fails
// when options are exhausted.
func (in *Interp) getopts(args []string) (string, int, error) {
	if len(args) < 2 {
		return "", 2, fmt.Errorf("policy: getopts: usage: getopts optstring name")
	}
	optstring, varname := args[0], args[1]
	if in.optind == 0 {
		in.optind = 1
	}
	idx := in.optind - 1
	if idx >= len(in.args) {
		in.vars[varname] = "?"
		return "", 1, nil
	}
	arg := in.args[idx]
	if len(arg) < 2 || arg[0] != '-' || arg == "--" {
		in.vars[varname] = "?"
		return "", 1, nil
	}
	opt := arg[1]
	spec := strings.IndexByte(optstring, opt)
	if spec < 0 {
		in.vars[varname] = "?"
		delete(in.vars, "OPTARG")
		in.optind++
		return "", 0, nil // unknown option: opt='?', status 0 (keep looping)
	}
	in.vars[varname] = string(opt)
	if spec+1 < len(optstring) && optstring[spec+1] == ':' {
		// Option takes an argument: either the rest of this arg or the next.
		if len(arg) > 2 {
			in.vars["OPTARG"] = arg[2:]
			in.optind++
		} else {
			if idx+1 >= len(in.args) {
				// Missing argument: opt='?' and the loop goes on, as in sh.
				in.vars[varname] = "?"
				delete(in.vars, "OPTARG")
				in.optind++
				return "", 0, nil
			}
			in.vars["OPTARG"] = in.args[idx+1]
			in.optind += 2
		}
	} else {
		delete(in.vars, "OPTARG")
		in.optind++
	}
	return "", 0, nil
}

// evalTest implements the test/[ builtin's expression language: unary
// string tests, binary string/integer comparisons, and ! negation.
func evalTest(args []string) (bool, error) {
	if len(args) == 0 {
		return false, nil
	}
	if args[0] == "!" {
		ok, err := evalTest(args[1:])
		return !ok, err
	}
	switch len(args) {
	case 1:
		return args[0] != "", nil
	case 2:
		switch args[0] {
		case "-z":
			return args[1] == "", nil
		case "-n":
			return args[1] != "", nil
		}
		return false, fmt.Errorf("policy: test: bad unary %q", args[0])
	case 3:
		a, op, b := args[0], args[1], args[2]
		switch op {
		case "=", "==":
			return a == b, nil
		case "!=":
			return a != b, nil
		case "-eq", "-ne", "-lt", "-le", "-gt", "-ge":
			x, err1 := strconv.ParseInt(a, 10, 64)
			y, err2 := strconv.ParseInt(b, 10, 64)
			if err1 != nil || err2 != nil {
				return false, fmt.Errorf("policy: test: integer expected: %q %s %q", a, op, b)
			}
			switch op {
			case "-eq":
				return x == y, nil
			case "-ne":
				return x != y, nil
			case "-lt":
				return x < y, nil
			case "-le":
				return x <= y, nil
			case "-gt":
				return x > y, nil
			case "-ge":
				return x >= y, nil
			}
		}
		return false, fmt.Errorf("policy: test: bad operator %q", op)
	}
	return false, fmt.Errorf("policy: test: too many arguments")
}
