package policy

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
	"time"
)

// backoff1s and backoff250ms are what the root package's backoffScript
// generates at a base of 1 s and of 250 ms.
const (
	backoff1s = `component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	case $repetition in
	1) sleep 1 ;;
	2) sleep 2 ;;
	3) sleep 4 ;;
	*) sleep 8 ;;
	esac
fi
service restart $component
`
	backoff250ms = `component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	case $repetition in
	1) sleep 0.25 ;;
	2) sleep 0.5 ;;
	3) sleep 1 ;;
	*) sleep 2 ;;
	esac
fi
service restart $component
`
)

// shCase is one script run under this interpreter and under /bin/sh.
type shCase struct {
	name    string
	src     string
	args    []string
	service int // exit status of the stubbed service command
}

// shCorpus holds Fig. 2, the generated backoff policy, and the scripts
// of this package's and internal/core's tests; a script that sets
// variables logs them, so the transcript shows them.
var shCorpus = []shCase{
	{"fig2", Fig2, []string{"eth.rtl8139", "1", "3"}, 0},
	{"fig2-alert", Fig2, []string{"eth.dp8390", "4", "1", "-a", "root@example.org"}, 7},
	{"fig2-update", Fig2, []string{"disk.sata", "6", "1", "-a", "root@example.org"}, 0},
	{"fig2-alert-without-address", Fig2, []string{"eth.dp8390", "1", "2", "-a"}, 0},
	{"backoff-1s-first", backoff1s, []string{"eth.rtl8139", "1", "1"}, 0},
	{"backoff-1s-fifth", backoff1s, []string{"eth.rtl8139", "4", "5"}, 1},
	{"backoff-250ms-third", backoff250ms, []string{"disk.sata", "2", "3"}, 0},
	{"backoff-250ms-update", backoff250ms, []string{"disk.sata", "6", "2"}, 0},
	{"core-backoff", `
component=$1
reason=$2
repetition=$3
if [ ! $reason -eq 6 ]; then
	sleep $((1 << ($repetition - 1)))
fi
service restart $component
`, []string{"drv", "1", "4"}, 0},
	{"core-alert", `
component=$1
reason=$2
repetition=$3
shift 3
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
`, []string{"drv", "1", "1", "-a", "operator@example.org"}, 0},
	{"core-reboot", `
repetition=$3
if [ $repetition -ge 3 ]; then
	reboot
	exit 0
fi
service restart $1
`, []string{"drv", "1", "3"}, 0},
	{"core-reboot-not-yet", `
repetition=$3
if [ $repetition -ge 3 ]; then
	reboot
	exit 0
fi
service restart $1
`, []string{"drv", "1", "2"}, 0},
	{"core-stop", `
if [ $3 -ge 3 ]; then
	service stop $1
	exit 0
fi
service restart $1
`, []string{"flaky", "1", "3"}, 0},
	{"core-update", "service update $1\nservice restart $1\nexit 0\n", []string{"drv", "1", "1"}, 1},
	{"slow-restart", "sleep 1\nservice restart $1\n", []string{"eth.rtl8139", "1", "1"}, 0},
	{"assignment-and-quoting", `
x=hello
y=$x
z="$x world"
w='$x world'
q="a\tb\nc\"d\$e\\f"
log "$y" "$z" "$w" "$q"
`, nil, 0},
	{"positional", `
a=$1
b=$2
n=$#
shift 1
c=$1
m=$#
log $a $b $n $c $m
`, []string{"one", "two", "three"}, 0},
	{"status-variable", "[ 1 -eq 2 ]\na=$?\n[ 1 -eq 1 ]\nb=$?\nlog $a $b\n", nil, 0},
	{"elif-else", `
x=$1
if [ $x -eq 1 ]; then r=a
elif [ $x -eq 2 ]; then r=b
else r=c
fi
log $r
`, []string{"2"}, 0},
	{"while-loop", `
i=0
sum=0
while [ $i -lt 5 ]; do
	sum=$(($sum + $i))
	i=$(($i + 1))
done
log $sum $i
`, nil, 0},
	{"while-status-is-the-last-body's", `
i=0
while [ $i -lt 2 ]; do
	i=$((i + 1))
	service restart drv
done
`, nil, 3},
	{"case-glob", `
while [ $# -gt 0 ]; do
	case $1 in
	eth*) log $1 net ;;
	disk|sata) log $1 blk ;;
	?) log $1 single ;;
	*) log $1 other ;;
	esac
	shift
done
`, []string{"eth0", "ethernet", "sata", "disk", "a", "printer"}, 0},
	{"arithmetic", `
log $((1 + 2 * 3)) $(( (1+2) * 3 )) $((1 << 4)) $((16 >> 2)) $((7 % 3)) $((10 / 2))
log $((5 > 3)) $((5 < 3)) $((!0)) $((~0)) $((-4)) $((1 ? 10 : 20)) $((0 ? 10 : 20))
log $((3 & 6)) $((3 | 6)) $((3 ^ 6)) $((2 == 2 && 1 < 2)) $((0 || 0))
repetition=4
log $((1 << ($repetition - 1))) $((repetition * 2))
`, nil, 0},
	{"heredoc-pipeline", `
name=world
cat << END | cat | mail ops
hello $name
second line
END
`, nil, 0},
	{"getopts", `
aval=
bseen=
while getopts a:b option; do
	case $option in
	a) aval=$OPTARG ;;
	b) bseen=yes ;;
	esac
done
log "$aval" "$bseen" $option
`, []string{"-b", "-a", "admin@example.com", "tail"}, 0},
	{"getopts-no-options", `
hits=0
while getopts a: option; do
	hits=$(($hits + 1))
done
log $hits
`, []string{"plain", "args"}, 0},
	{"exit-status", "exit 3\nlog never\n", nil, 0},
	{"quoted-empty-and-split-fields", `
v="one two  three"
log "" second $v "$v"
`, nil, 0},
	{"empty-case-arm", "[ 1 -eq 2 ]\ncase x in\nx) ;;\nesac\nlog $?\n", nil, 0},
	{"shift-past-arg-count", "service restart a\nshift 3\nservice restart b\n", []string{"x"}, 0},
	{"divide-by-zero", "service restart a\nx=$((1 / 0))\nservice restart b\n", nil, 0},
}

// shResult is what a run leaves: its output, its exit status and the
// transcript of the host commands it called.
type shResult struct {
	stdout     string
	status     int
	transcript string
}

// record is one transcript entry: every argument in brackets.
func record(argv []string) string {
	var b strings.Builder
	for _, a := range argv {
		fmt.Fprintf(&b, "[%s]", a)
	}
	return b.String() + "\n"
}

// runHere runs tc on this interpreter. A script error reads as status 2,
// the status with which sh ends a script on one (a bad shift, a bad
// arithmetic expression).
func runHere(tc shCase) shResult {
	var r shResult
	host := func(argv []string, stdin string) (string, int) {
		r.transcript += record(argv)
		switch argv[0] {
		case "service":
			return "", tc.service
		case "mail":
			r.transcript += stdin
		}
		return "", 0
	}
	opts := []Option{WithArgs(tc.args...), WithSleep(func(d time.Duration) {
		r.transcript += record([]string{"sleep", strconv.FormatFloat(d.Seconds(), 'g', -1, 64)})
	})}
	for _, name := range []string{"service", "mail", "log", "reboot"} {
		opts = append(opts, WithCommand(name, host))
	}
	status, err := NewInterp(opts...).RunSource(tc.src)
	if err != nil {
		status = 2
	}
	r.status = status
	return r
}

// runSh runs tc under /bin/sh, with the host commands and sleep as shell
// functions that append to a transcript file.
func runSh(t *testing.T, tc shCase) shResult {
	path := filepath.Join(t.TempDir(), "transcript")
	prelude := fmt.Sprintf(`
_rec() { for _a in "$@"; do printf '[%%s]' "$_a"; done >> '%[1]s'; printf '\n' >> '%[1]s'; }
service() { _rec service "$@"; return %[2]d; }
mail() { _rec mail "$@"; cat >> '%[1]s'; }
log() { _rec log "$@"; }
reboot() { _rec reboot "$@"; }
sleep() { _rec sleep "$@"; }
`, path, tc.service)
	cmd := exec.Command("/bin/sh", append([]string{"-c", prelude + tc.src, "policy"}, tc.args...)...)
	var stdout, stderr bytes.Buffer
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	var r shResult
	if err := cmd.Run(); err != nil {
		var exit *exec.ExitError
		if !errors.As(err, &exit) {
			t.Fatalf("/bin/sh: %v", err)
		}
		r.status = exit.ExitCode()
	}
	r.stdout = stdout.String()
	if stderr.Len() > 0 {
		t.Logf("/bin/sh stderr: %s", stderr.String())
	}
	transcript, err := os.ReadFile(path)
	if err != nil && !errors.Is(err, os.ErrNotExist) {
		t.Fatal(err)
	}
	r.transcript = string(transcript)
	return r
}

// TestScriptsAgreeWithSh runs every script of shCorpus here and under
// /bin/sh: output, exit status and host-command transcript must be the
// same. DESIGN §3 lists where the interpreter deliberately differs from
// sh; no script here goes there.
func TestScriptsAgreeWithSh(t *testing.T) {
	if _, err := os.Stat("/bin/sh"); err != nil {
		t.Fatalf("the differential test needs /bin/sh: %v", err)
	}
	for _, tc := range shCorpus {
		t.Run(tc.name, func(t *testing.T) {
			here, sh := runHere(tc), runSh(t, tc)
			if here != sh {
				t.Errorf("here: status %d, stdout %q, transcript:\n%s\n/bin/sh: status %d, stdout %q, transcript:\n%s",
					here.status, here.stdout, here.transcript, sh.status, sh.stdout, sh.transcript)
			}
		})
	}
}
