package policy

import (
	"reflect"
	"testing"
)

func TestWithTraceSeesEveryStep(t *testing.T) {
	type step struct {
		argv   []string
		status int
		vars   string
	}
	var steps []step
	var in *Interp
	in = NewInterp(
		WithArgs("eth", "4", "2"),
		WithTrace(func(argv []string, status int) {
			steps = append(steps, step{
				argv:   append([]string(nil), argv...),
				status: status,
				vars:   in.VarState(),
			})
		}),
		WithCommand("service", func(argv []string, stdin string) (string, int) {
			return "", 0
		}),
	)
	script := MustParse(`
component=$1
backoff=$((1 << ($3 - 1)))
sleep $backoff
service restart $component
[ 1 -eq 2 ]
`)
	if _, err := in.Run(script); err != nil {
		t.Fatal(err)
	}
	want := [][]string{
		{"sleep", "2"},
		{"service", "restart", "eth"},
		{"[", "1", "-eq", "2", "]"},
	}
	if len(steps) != len(want) {
		t.Fatalf("traced %d steps, want %d: %+v", len(steps), len(want), steps)
	}
	for i, w := range want {
		if !reflect.DeepEqual(steps[i].argv, w) {
			t.Fatalf("step %d argv = %v, want %v", i, steps[i].argv, w)
		}
	}
	if steps[2].status != 1 {
		t.Fatalf("a false test traced with status %d", steps[2].status)
	}
	// Variable state is canonical: sorted name order.
	if steps[0].vars != "backoff=2 component=eth" {
		t.Fatalf("vars = %q", steps[0].vars)
	}
}

func TestVarStateEmpty(t *testing.T) {
	if got := NewInterp().VarState(); got != "" {
		t.Fatalf("empty interp VarState = %q", got)
	}
}
