package policy

import (
	"fmt"
	"math/rand"
	"os"
	"strings"
	"testing"
)

// scriptGen writes random scripts in the language this interpreter and
// sh share: no construct DESIGN §3 lists as a deviation, and variables
// used in arithmetic are always set (`$((1 + $n))` with n unset is an
// error in sh). Every while loop counts a counter of its own to at most
// three, so a script always ends.
type scriptGen struct {
	r     *rand.Rand
	b     strings.Builder
	depth int // nesting of if / while / case
	loops int // while-loop counters handed out
}

func (g *scriptGen) pick(choices ...string) string { return choices[g.r.Intn(len(choices))] }

// script is a whole script: the variables it computes on, then up to
// eight statements.
func (g *scriptGen) script() string {
	g.b.WriteString("n0=0\nn1=1\nn2=7\ns0='a b'\ns1=eth.rtl8139\ns2=\n")
	if g.r.Intn(4) == 0 {
		g.b.WriteString("while getopts ab: o; do\ncase $o in\na) log opt-a ;;\nb) log opt-b \"$OPTARG\" ;;\nesac\ndone\n")
	}
	for n := 1 + g.r.Intn(8); n > 0; n-- {
		g.stmt()
	}
	return g.b.String()
}

func (g *scriptGen) stmt() {
	k := g.r.Intn(14)
	if g.depth >= 2 && k >= 7 && k <= 9 {
		k = 0 // no deeper nesting
	}
	switch k {
	case 0, 1:
		fmt.Fprintf(&g.b, "n%d=$((%s))\n", g.r.Intn(3), g.arith(2))
	case 2:
		fmt.Fprintf(&g.b, "s%d=%s\n", g.r.Intn(3), g.pick(`"$s0 $n1"`, `'x  y'`, `"$1"`, `''`, `"$s1.$#"`, `abc`))
	case 3, 4:
		g.b.WriteString("log")
		for n := g.r.Intn(4); n > 0; n-- {
			g.b.WriteString(" " + g.word())
		}
		g.b.WriteString("\n")
	case 5:
		fmt.Fprintf(&g.b, "service restart %s\n", g.word())
	case 6:
		fmt.Fprintf(&g.b, "sleep %d\n", g.r.Intn(4))
	case 7:
		g.depth++
		fmt.Fprintf(&g.b, "if %s; then\n", g.cond())
		g.body()
		if g.r.Intn(2) == 0 {
			fmt.Fprintf(&g.b, "elif %s; then\n", g.cond())
			g.body()
		}
		if g.r.Intn(2) == 0 {
			g.b.WriteString("else\n")
			g.body()
		}
		g.b.WriteString("fi\n")
		g.depth--
	case 8:
		g.depth++
		c := fmt.Sprintf("c%d", g.loops)
		g.loops++
		fmt.Fprintf(&g.b, "%s=0\nwhile [ $%s -lt %d ]; do\n", c, c, g.r.Intn(4))
		g.body()
		fmt.Fprintf(&g.b, "%s=$((%s + 1))\ndone\n", c, c)
		g.depth--
	case 9:
		g.depth++
		fmt.Fprintf(&g.b, "case %s in\n", g.pick("$1", `"$s0"`, "$s1", "$n2", "$#", "eth0"))
		for n := 1 + g.r.Intn(3); n > 0; n-- {
			fmt.Fprintf(&g.b, "%s) ", g.pick("eth*", "?", `"a b"`, "7|1", "*.rtl8139", "d*|x", "*", "?*", "(e*"))
			if g.r.Intn(3) > 0 {
				g.stmt()
			}
			g.b.WriteString(";;\n")
		}
		g.b.WriteString("esac\n")
		g.depth--
	case 10, 11:
		fmt.Fprintf(&g.b, "cat << END | %smail %s\n%s and $s0, ${n2}\nEND\n",
			g.pick("", "cat | "), g.word(), g.pick("failure: $1", "'text' \"$?\"", "$s1 $# $((n1 + 2))"))
	case 12:
		g.b.WriteString(g.pick("shift\n", "shift 2\n", "log $?\n", "status=$?\n"))
	case 13:
		fmt.Fprintf(&g.b, "%s\n", g.pick("exit", "exit 0", "exit 3", "log end"))
	}
}

// body is one to three statements.
func (g *scriptGen) body() {
	for n := 1 + g.r.Intn(3); n > 0; n-- {
		g.stmt()
	}
}

// word is one command argument: literal, quoted or expanded.
func (g *scriptGen) word() string {
	switch g.r.Intn(8) {
	case 0:
		return g.pick("eth0", "disk.sata", "x-y", "12", "a@b")
	case 1:
		return fmt.Sprintf(`"$s%d"`, g.r.Intn(3))
	case 2:
		return fmt.Sprintf("$s%d", g.r.Intn(3)) // field-split, or gone when empty
	case 3:
		return fmt.Sprintf("$n%d", g.r.Intn(3))
	case 4:
		return g.pick("$1", "$2", "$3", "$4", "$#", "$?", "$0")
	case 5:
		return fmt.Sprintf(`"$((%s))"`, g.arith(1))
	case 6:
		return g.pick(`'$s0 literally'`, `"say \"hi\" \$1 \\ \q"`, `a\ b`, `""`, `"${s1}x"`, `${n0}1`)
	}
	return fmt.Sprintf(`"%s-$n1:$1"`, g.pick("mixed", "", "x y"))
}

// num is a test operand that is always an integer.
func (g *scriptGen) num() string {
	return g.pick("$n0", "$n1", "$n2", "$#", "$?", "3", "-2", fmt.Sprintf("$((%s))", g.arith(1)))
}

// cond is an if condition.
func (g *scriptGen) cond() string {
	switch g.r.Intn(7) {
	case 5:
		return fmt.Sprintf(`test "$s%d"`, g.r.Intn(3))
	case 6:
		return fmt.Sprintf("test %s -ne %s", g.num(), g.num())
	case 0:
		return fmt.Sprintf("[ %s %s %s ]", g.num(), g.pick("-eq", "-ne", "-lt", "-le", "-gt", "-ge"), g.num())
	case 1:
		str := func() string { return g.pick(`"$s0"`, `"$s1"`, `"$s2"`, `"$1"`, `"a b"`, `""`, "eth.rtl8139") }
		return fmt.Sprintf("[ %s %s %s ]", str(), g.pick("=", "!="), str())
	case 2:
		return fmt.Sprintf(`[ %s "$s%d" ]`, g.pick("-z", "-n"), g.r.Intn(3))
	case 3:
		return fmt.Sprintf("[ ! %s %s %s ]", g.num(), g.pick("-eq", "-lt"), g.num())
	}
	return "service restart " + g.word()
}

// arith is an arithmetic expression on small literals and the n
// variables: no unary operator, shifts and products by a literal only.
func (g *scriptGen) arith(depth int) string {
	if depth == 0 || g.r.Intn(3) == 0 {
		return g.pick("0", "1", "2", "5", "n0", "n1", "$n2", "$#")
	}
	l := g.arith(depth - 1)
	switch g.r.Intn(5) {
	case 0:
		return fmt.Sprintf("(%s %s %d)", l, g.pick("*", "<<", ">>", "/", "%"), 1+g.r.Intn(3))
	case 1:
		return fmt.Sprintf("(%s ? %s : %s)", l, g.arith(depth-1), g.arith(depth-1))
	}
	op := g.pick("+", "-", "<", "<=", "==", "!=", "&&", "||", "&", "|", "^")
	return fmt.Sprintf("(%s %s %s)", l, op, g.arith(depth-1))
}

// TestGeneratedScriptsAgreeWithSh holds 1,000 generated scripts, each
// run with one of a few argument lists, to /bin/sh the way
// TestScriptsAgreeWithSh holds the committed ones.
func TestGeneratedScriptsAgreeWithSh(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Fatalf("the differential test needs /bin/sh: %v", err)
	}
	argLists := [][]string{
		nil,
		{"eth.rtl8139", "1", "3"},
		{"eth.dp8390", "4", "1", "-a", "root@example.org"},
		{"-b", "-a", "x y", "tail"},
		{"-a", "-b"},
		{"-b"},
	}
	r := rand.New(rand.NewSource(1))
	n := 1000
	if testing.Short() {
		n = 100
	}
	for i := 0; i < n; i++ {
		g := &scriptGen{r: r}
		tc := shCase{src: g.script(), args: argLists[r.Intn(len(argLists))], service: r.Intn(3)}
		here, sh := runHere(tc), runSh(t, tc)
		if here != sh {
			t.Fatalf("script %d (args %q, service status %d):\n%s\nhere: status %d, stdout %q, transcript:\n%s\n/bin/sh: status %d, stdout %q, transcript:\n%s",
				i, tc.args, tc.service, tc.src, here.status, here.stdout, here.transcript, sh.status, sh.stdout, sh.transcript)
		}
	}
}
