package policy

import (
	"strings"
	"testing"
	"time"
)

func run(t *testing.T, src string, opts ...Option) (*Interp, int) {
	t.Helper()
	in := NewInterp(opts...)
	status, err := in.RunSource(src)
	if err != nil {
		t.Fatalf("run: %v", err)
	}
	return in, status
}

func TestAssignmentAndExpansion(t *testing.T) {
	in, _ := run(t, `
x=hello
y=$x
z="$x world"
w='$x world'
`)
	if in.Var("y") != "hello" {
		t.Fatalf("y = %q", in.Var("y"))
	}
	if in.Var("z") != "hello world" {
		t.Fatalf("z = %q", in.Var("z"))
	}
	if in.Var("w") != "$x world" {
		t.Fatalf("w = %q (single quotes must not expand)", in.Var("w"))
	}
}

func TestPositionalParams(t *testing.T) {
	in, _ := run(t, `
a=$1
b=$2
n=$#
shift 1
c=$1
m=$#
`, WithArgs("one", "two", "three"))
	for k, want := range map[string]string{"a": "one", "b": "two", "n": "3", "c": "two", "m": "2"} {
		if got := in.Var(k); got != want {
			t.Errorf("%s = %q, want %q", k, got, want)
		}
	}
}

func TestEchoToStdout(t *testing.T) {
	var sb strings.Builder
	run(t, `echo hello world`, WithStdout(&sb))
	if sb.String() != "hello world\n" {
		t.Fatalf("stdout = %q", sb.String())
	}
}

// Inside double quotes a backslash escapes the next character: \n and \t
// are a newline and a tab, anything else stands for itself.
func TestDoubleQuoteEscapes(t *testing.T) {
	var sb strings.Builder
	run(t, `echo "a\tb\nc\"d\$e"`, WithStdout(&sb))
	if want := "a\tb\nc\"d$e\n"; sb.String() != want {
		t.Fatalf("stdout = %q, want %q", sb.String(), want)
	}
}

func TestStatusVariable(t *testing.T) {
	in, _ := run(t, `
false
a=$?
true
b=$?
`)
	if in.Var("a") != "1" || in.Var("b") != "0" {
		t.Fatalf("a=%q b=%q", in.Var("a"), in.Var("b"))
	}
}

func TestIfElse(t *testing.T) {
	in, _ := run(t, `
x=5
if [ $x -eq 5 ]; then
	r=five
elif [ $x -eq 6 ]; then
	r=six
else
	r=other
fi
`)
	if in.Var("r") != "five" {
		t.Fatalf("r = %q", in.Var("r"))
	}
}

func TestElifAndElse(t *testing.T) {
	src := `
if [ $x -eq 1 ]; then r=a
elif [ $x -eq 2 ]; then r=b
else r=c
fi
`
	for x, want := range map[string]string{"1": "a", "2": "b", "9": "c"} {
		in, _ := run(t, src, WithVar("x", x))
		if in.Var("r") != want {
			t.Errorf("x=%s: r=%q want %q", x, in.Var("r"), want)
		}
	}
}

func TestNegatedTest(t *testing.T) {
	// The Fig. 2 idiom: if [ ! $reason -eq 6 ].
	in, _ := run(t, `
reason=2
if [ ! $reason -eq 6 ]; then
	r=backoff
fi
`)
	if in.Var("r") != "backoff" {
		t.Fatalf("r = %q", in.Var("r"))
	}
	in, _ = run(t, `
reason=6
r=none
if [ ! $reason -eq 6 ]; then
	r=backoff
fi
`)
	if in.Var("r") != "none" {
		t.Fatalf("r = %q", in.Var("r"))
	}
}

func TestWhileLoop(t *testing.T) {
	in, _ := run(t, `
i=0
sum=0
while [ $i -lt 5 ]; do
	sum=$(($sum + $i))
	i=$(($i + 1))
done
`)
	if in.Var("sum") != "10" {
		t.Fatalf("sum = %q", in.Var("sum"))
	}
}

func TestForLoop(t *testing.T) {
	in, _ := run(t, `
acc=
for x in a b c; do
	acc=$acc$x
done
`)
	if in.Var("acc") != "abc" {
		t.Fatalf("acc = %q", in.Var("acc"))
	}
}

func TestCaseGlob(t *testing.T) {
	src := `
case $x in
	eth*) r=net ;;
	disk|sata) r=blk ;;
	?) r=single ;;
	*) r=other ;;
esac
`
	for x, want := range map[string]string{
		"eth0": "net", "ethernet": "net", "sata": "blk", "disk": "blk",
		"a": "single", "printer": "other",
	} {
		in, _ := run(t, src, WithVar("x", x))
		if in.Var("r") != want {
			t.Errorf("x=%q: r=%q, want %q", x, in.Var("r"), want)
		}
	}
}

func TestArithmetic(t *testing.T) {
	cases := map[string]string{
		`$((1 + 2 * 3))`:       "7",
		`$(( (1+2) * 3 ))`:     "9",
		`$((1 << 4))`:          "16",
		`$((16 >> 2))`:         "4",
		`$((7 % 3))`:           "1",
		`$((10 / 2))`:          "5",
		`$((5 > 3))`:           "1",
		`$((5 < 3))`:           "0",
		`$((!0))`:              "1",
		`$((~0))`:              "-1",
		`$((-4))`:              "-4",
		`$((1 ? 10 : 20))`:     "10",
		`$((0 ? 10 : 20))`:     "20",
		`$((3 & 6))`:           "2",
		`$((3 | 6))`:           "7",
		`$((3 ^ 6))`:           "5",
		`$((2 == 2 && 1 < 2))`: "1",
		`$((0 || 0))`:          "0",
	}
	for expr, want := range cases {
		in, _ := run(t, "x="+expr)
		if got := in.Var("x"); got != want {
			t.Errorf("%s = %q, want %q", expr, got, want)
		}
	}
}

func TestArithWithVariables(t *testing.T) {
	// Both $name and bare name forms, as in Fig. 2's
	// sleep $((1 << ($repetition - 1))).
	in, _ := run(t, `
repetition=4
a=$((1 << ($repetition - 1)))
b=$((repetition * 2))
`)
	if in.Var("a") != "8" || in.Var("b") != "8" {
		t.Fatalf("a=%q b=%q", in.Var("a"), in.Var("b"))
	}
}

func TestPipelines(t *testing.T) {
	var got string
	in := NewInterp(WithCommand("upper", func(argv []string, stdin string) (string, int) {
		return strings.ToUpper(stdin), 0
	}), WithCommand("sink", func(argv []string, stdin string) (string, int) {
		got = stdin
		return "", 0
	}))
	if _, err := in.RunSource(`echo hello | upper | sink`); err != nil {
		t.Fatal(err)
	}
	if got != "HELLO\n" {
		t.Fatalf("got %q", got)
	}
}

func TestAndOrChains(t *testing.T) {
	in, _ := run(t, `
true && a=yes
false && b=yes
false || c=yes
true || d=yes
`)
	if in.Var("a") != "yes" || in.Var("b") != "" || in.Var("c") != "yes" || in.Var("d") != "" {
		t.Fatalf("a=%q b=%q c=%q d=%q", in.Var("a"), in.Var("b"), in.Var("c"), in.Var("d"))
	}
}

func TestHeredoc(t *testing.T) {
	var got string
	in := NewInterp(WithCommand("sink", func(argv []string, stdin string) (string, int) {
		got = stdin
		return "", 0
	}))
	_, err := in.RunSource(`
name=world
cat << END | sink
hello $name
second line
END
`)
	if err != nil {
		t.Fatal(err)
	}
	if got != "hello world\nsecond line\n" {
		t.Fatalf("heredoc = %q", got)
	}
}

func TestGetopts(t *testing.T) {
	in, _ := run(t, `
aval=
bseen=
while getopts a:b option; do
	case $option in
	a) aval=$OPTARG ;;
	b) bseen=yes ;;
	esac
done
`, WithArgs("-b", "-a", "admin@example.com", "tail"))
	if in.Var("aval") != "admin@example.com" {
		t.Fatalf("aval = %q", in.Var("aval"))
	}
	if in.Var("bseen") != "yes" {
		t.Fatalf("bseen = %q", in.Var("bseen"))
	}
}

func TestGetoptsNoOptions(t *testing.T) {
	in, _ := run(t, `
hits=0
while getopts a: option; do
	hits=$(($hits + 1))
done
`, WithArgs("plain", "args"))
	if in.Var("hits") != "0" {
		t.Fatalf("hits = %q", in.Var("hits"))
	}
}

func TestExitStatus(t *testing.T) {
	in := NewInterp()
	status, err := in.RunSource(`
exit 3
x=never
`)
	if err != nil {
		t.Fatal(err)
	}
	if status != 3 {
		t.Fatalf("status = %d", status)
	}
	if in.Var("x") != "" {
		t.Fatal("execution continued after exit")
	}
}

func TestHostCommand(t *testing.T) {
	var calls [][]string
	in := NewInterp(WithCommand("service", func(argv []string, stdin string) (string, int) {
		calls = append(calls, argv)
		return "", 0
	}))
	if _, err := in.RunSource(`service restart eth0`); err != nil {
		t.Fatal(err)
	}
	if len(calls) != 1 || calls[0][1] != "restart" || calls[0][2] != "eth0" {
		t.Fatalf("calls = %v", calls)
	}
}

func TestUnknownCommandErrors(t *testing.T) {
	in := NewInterp()
	if _, err := in.RunSource(`frobnicate`); err == nil {
		t.Fatal("unknown command did not error")
	}
}

func TestSleepUsesHostClock(t *testing.T) {
	var slept time.Duration
	in := NewInterp(WithSleep(func(d time.Duration) { slept += d }))
	if _, err := in.RunSource(`sleep 2`); err != nil {
		t.Fatal(err)
	}
	if slept != 2*time.Second {
		t.Fatalf("slept %v", slept)
	}
}

func TestRunawayScriptStopped(t *testing.T) {
	in := NewInterp()
	_, err := in.RunSource(`
while true; do
	:
done
`)
	if err == nil || !strings.Contains(err.Error(), "steps") {
		t.Fatalf("err = %v, want step-limit error", err)
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		`if true; then echo hi`,  // missing fi
		`while true; do echo hi`, // missing done
		`case x in`,              // missing esac
		`echo "unterminated`,     // bad quote
		`echo 'unterminated`,     // bad quote
		`cat << EOF`,             // unterminated heredoc
		`echo $((1 + 2)`,         // unterminated arith is a lex error
		`for do done`,            // bad for
	}
	for _, src := range cases {
		_, err := Parse(src)
		if err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
			continue
		}
		// Lexer and parser errors both name the line they stopped at.
		if !strings.HasPrefix(err.Error(), "policy: line 1: ") {
			t.Errorf("Parse(%q) error %q does not name its line", src, err)
		}
	}
}

func TestGlobMatch(t *testing.T) {
	cases := []struct {
		pat, s string
		want   bool
	}{
		{"*", "anything", true},
		{"*", "", true},
		{"eth.*", "eth.rtl8139", true},
		{"eth.*", "disk.sata", false},
		{"a?c", "abc", true},
		{"a?c", "ac", false},
		{"*.log", "x.log", true},
		{"*.log", "x.logs", false},
		{"a*b*c", "aXbYc", true},
		{"a*b*c", "aXcYb", false},
		{"exact", "exact", true},
		{"exact", "exacT", false},
	}
	for _, tc := range cases {
		if got := globMatch(tc.pat, tc.s); got != tc.want {
			t.Errorf("globMatch(%q, %q) = %v, want %v", tc.pat, tc.s, got, tc.want)
		}
	}
}

// genericScript is the paper's Fig. 2 script, modulo mail's -s flag
// handling (our mail host command takes the subject as given).
const genericScript = `
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

func TestFig2GenericScriptRestartsWithBackoff(t *testing.T) {
	var slept []time.Duration
	var restarts []string
	in := NewInterp(
		WithSleep(func(d time.Duration) { slept = append(slept, d) }),
		WithCommand("service", func(argv []string, stdin string) (string, int) {
			restarts = append(restarts, strings.Join(argv[1:], " "))
			return "", 0
		}),
		WithCommand("mail", func(argv []string, stdin string) (string, int) {
			t.Errorf("mail sent without -a flag: %v", argv)
			return "", 0
		}),
		WithArgs("eth.rtl8139", "1", "3"),
	)
	if _, err := in.RunSource(genericScript); err != nil {
		t.Fatal(err)
	}
	// repetition 3 -> backoff 1 << 2 = 4 seconds.
	if len(slept) != 1 || slept[0] != 4*time.Second {
		t.Fatalf("slept = %v, want [4s]", slept)
	}
	if len(restarts) != 1 || restarts[0] != "restart eth.rtl8139" {
		t.Fatalf("restarts = %v", restarts)
	}
}

func TestFig2GenericScriptSkipsBackoffForUpdate(t *testing.T) {
	var slept []time.Duration
	in := NewInterp(
		WithSleep(func(d time.Duration) { slept = append(slept, d) }),
		WithCommand("service", func(argv []string, stdin string) (string, int) { return "", 0 }),
		WithArgs("disk.sata", "6", "1"), // reason 6 = dynamic update
	)
	if _, err := in.RunSource(genericScript); err != nil {
		t.Fatal(err)
	}
	if len(slept) != 0 {
		t.Fatalf("slept = %v, want none for dynamic update", slept)
	}
}

func TestFig2GenericScriptSendsAlert(t *testing.T) {
	var mailTo, mailBody, mailSubj string
	in := NewInterp(
		WithCommand("service", func(argv []string, stdin string) (string, int) { return "", 7 }),
		WithCommand("mail", func(argv []string, stdin string) (string, int) {
			// argv: mail -s "Failure Alert" addr
			for i, a := range argv {
				if a == "-s" && i+1 < len(argv) {
					mailSubj = argv[i+1]
				}
			}
			mailTo = argv[len(argv)-1]
			mailBody = stdin
			return "", 0
		}),
		WithArgs("eth.dp8390", "4", "1", "-a", "root@example.org"),
	)
	if _, err := in.RunSource(genericScript); err != nil {
		t.Fatal(err)
	}
	if mailTo != "root@example.org" {
		t.Fatalf("mail to = %q", mailTo)
	}
	if mailSubj != "Failure Alert" {
		t.Fatalf("subject = %q", mailSubj)
	}
	if !strings.Contains(mailBody, "failure: eth.dp8390, 4, 1") {
		t.Fatalf("body = %q", mailBody)
	}
	if !strings.Contains(mailBody, "restart status: 7") {
		t.Fatalf("body = %q", mailBody)
	}
}

func TestBackoffSequenceIsExponential(t *testing.T) {
	// Repeated failures 1..6 must sleep 1,2,4,8,16,32 seconds.
	for rep := 1; rep <= 6; rep++ {
		var slept time.Duration
		in := NewInterp(
			WithSleep(func(d time.Duration) { slept += d }),
			WithCommand("service", func(argv []string, stdin string) (string, int) { return "", 0 }),
			WithArgs("drv", "1", strings.TrimSpace(string(rune('0'+rep)))),
		)
		if _, err := in.RunSource(genericScript); err != nil {
			t.Fatal(err)
		}
		want := time.Duration(1<<(rep-1)) * time.Second
		if slept != want {
			t.Fatalf("rep %d: slept %v, want %v", rep, slept, want)
		}
	}
}

func TestScriptReuse(t *testing.T) {
	s := MustParse(`x=$(($1 * 2))`)
	for i := 1; i <= 3; i++ {
		in := NewInterp(WithArgs(strings.TrimSpace(string(rune('0' + i)))))
		if _, err := in.Run(s); err != nil {
			t.Fatal(err)
		}
		want := strings.TrimSpace(string(rune('0' + 2*i)))
		if in.Var("x") != want {
			t.Fatalf("run %d: x=%q want %q", i, in.Var("x"), want)
		}
	}
}

func TestEmptyAndCommentOnlyScript(t *testing.T) {
	_, status := run(t, "\n# just a comment\n\n")
	if status != 0 {
		t.Fatalf("status = %d", status)
	}
}

func TestQuotedEmptyArg(t *testing.T) {
	var argv []string
	in := NewInterp(WithCommand("probe", func(a []string, stdin string) (string, int) {
		argv = a
		return "", 0
	}))
	if _, err := in.RunSource(`probe "" second`); err != nil {
		t.Fatal(err)
	}
	if len(argv) != 3 || argv[1] != "" || argv[2] != "second" {
		t.Fatalf("argv = %q", argv)
	}
}

func TestFieldSplittingUnquoted(t *testing.T) {
	var argv []string
	in := NewInterp(WithCommand("probe", func(a []string, stdin string) (string, int) {
		argv = a
		return "", 0
	}), WithVar("v", "one two  three"))
	if _, err := in.RunSource(`probe $v "$v"`); err != nil {
		t.Fatal(err)
	}
	if len(argv) != 5 {
		t.Fatalf("argv = %q (want split + unsplit)", argv)
	}
	if argv[4] != "one two  three" {
		t.Fatalf("quoted arg = %q", argv[4])
	}
}
