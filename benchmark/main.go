// Command benchmark is the repo's scoreboard: five workloads taken from
// the paper's evaluation, end-to-end metrics on two planes (what the
// host pays to simulate, and what the simulated OS delivers), per-layer
// metrics from a traced run and from probes of single layers. README.md
// in this directory is the manual.
//
//	go -C benchmark run . --workload wget_kill --seed 1 --seconds 10 --trace 0
//	go -C benchmark run .                      # every workload, table + out/result.json
//	go -C benchmark run . -compare a.json b.json
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

func main() {
	if arg := os.Getenv(unitEnv); arg != "" {
		os.Exit(childMain(arg))
	}
	code, err := run(os.Args[1:], os.Stdout)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
	}
	os.Exit(code)
}

func run(args []string, stdout io.Writer) (int, error) {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name; a comma list restricts a suite run (default all)")
	seed := fs.Int64("seed", 1, "input seed (7 is held out for claims)")
	seconds := fs.Float64("seconds", 0, "how long one run measures (default 10; 0.1 with -quick)")
	trace := fs.String("trace", "", "0 or 1: make one run of -workload and print its result line\n"+
		"(0 = end-to-end metrics, 1 = traced run and probes, per-layer metrics);\n"+
		"unset = suite: every workload, -rounds untraced runs and one traced")
	rounds := fs.Int("rounds", 0, "untraced runs per workload in a suite (default 3; 1 with -quick)")
	quick := fs.Bool("quick", false, "tiny sizes for smoke runs; results are stamped and never comparable with full ones")
	compare := fs.Bool("compare", false, "compare two suite results: -compare a.json b.json")
	out := fs.String("out", filepath.Join(outDir, "result.json"), "where a suite writes its result")
	if err := fs.Parse(args); err != nil {
		if errors.Is(err, flag.ErrHelp) {
			return 0, nil
		}
		return 2, nil
	}

	if *compare {
		if fs.NArg() != 2 {
			return 2, errors.New("usage: -compare a.json b.json")
		}
		return compareFiles(stdout, fs.Arg(0), fs.Arg(1))
	}
	if fs.NArg() != 0 {
		return 2, fmt.Errorf("unexpected argument %q", fs.Arg(0))
	}
	if *seconds < 0 || *rounds < 0 {
		return 2, errors.New("-seconds and -rounds must be positive")
	}
	if *seconds == 0 {
		*seconds = 10
		if *quick {
			*seconds = 0.1
		}
	}
	if *rounds == 0 {
		*rounds = 3
		if *quick {
			*rounds = 1
		}
	}

	if *trace != "" {
		if *trace != "0" && *trace != "1" {
			return 2, fmt.Errorf("-trace wants 0 or 1, got %q", *trace)
		}
		m, err := measureRun(runOpts{
			Workload: *workload, Seed: *seed, Seconds: *seconds, Traced: *trace == "1", Quick: *quick,
		})
		if err != nil {
			return 1, err
		}
		fmt.Fprintf(os.Stderr, "%s seed %d: %d units, work/s %.4g\n", *workload, *seed, m.Units, m.Rates)
		line, err := json.Marshal(m.Result)
		if err != nil {
			return 1, err
		}
		fmt.Fprintln(stdout, string(line))
		return 0, nil
	}

	names := workloadNames()
	if *workload != "" {
		names = strings.Split(*workload, ",")
	}
	res, err := runSuite(suiteOpts{
		Workloads: names, Seed: *seed, Seconds: *seconds, Rounds: *rounds, Quick: *quick,
	})
	if err != nil {
		return 1, err
	}
	res.render(stdout)
	if err := writeJSON(*out, res); err != nil {
		return 1, err
	}
	fmt.Fprintf(stdout, "wrote %s\n", *out)
	return 0, nil
}

// suiteOpts is a whole benchmark: for every workload, Rounds untraced
// runs and one traced run.
type suiteOpts struct {
	Workloads []string
	Seed      int64
	Seconds   float64
	Rounds    int
	Quick     bool
}

const suiteSchema = "resilientos-benchmark/1"

// suiteResult is what a suite writes and -compare reads. Two results
// are comparable only if Quick, Seed and Seconds agree.
type suiteResult struct {
	Schema    string          `json:"schema"`
	Quick     bool            `json:"quick"`
	Seed      int64           `json:"seed"`
	Seconds   float64         `json:"seconds"`
	GoVersion string          `json:"go_version"`
	NumCPU    int             `json:"num_cpu"`
	Workloads []suiteWorkload `json:"workloads"`
}

// suiteWorkload holds one workload's numbers: every end-to-end metric
// once per round, every per-layer metric once, and the operations
// attempted and failed over all its runs.
type suiteWorkload struct {
	Name      string               `json:"name"`
	Attempted int                  `json:"ops_attempted"`
	Failed    int                  `json:"ops_failed"`
	EndToEnd  map[string][]float64 `json:"end_to_end"`
	PerLayer  map[string]float64   `json:"per_layer"`
}

func runSuite(o suiteOpts) (*suiteResult, error) {
	res := &suiteResult{
		Schema: suiteSchema, Quick: o.Quick, Seed: o.Seed, Seconds: o.Seconds,
		GoVersion: runtime.Version(), NumCPU: runtime.NumCPU(),
	}
	for _, name := range o.Workloads {
		w := suiteWorkload{
			Name:     name,
			EndToEnd: make(map[string][]float64),
			PerLayer: make(map[string]float64),
		}
		ro := runOpts{Workload: name, Seed: o.Seed, Seconds: o.Seconds, Quick: o.Quick}
		for round := 0; round <= o.Rounds; round++ {
			ro.Traced = round == o.Rounds // the traced run comes last
			fmt.Fprintf(os.Stderr, "%s: run %d of %d\n", name, round+1, o.Rounds+1)
			m, err := measureRun(ro)
			if err != nil {
				return nil, err
			}
			w.Attempted += m.Result.Attempted
			w.Failed += m.Result.Failed
			for metric, v := range m.Result.Metrics {
				if ro.Traced {
					w.PerLayer[metric] = v.Value
				} else {
					w.EndToEnd[metric] = append(w.EndToEnd[metric], v.Value)
				}
			}
		}
		res.Workloads = append(res.Workloads, w)
	}
	return res, nil
}

// render prints every metric by name, with unit, direction, bound and
// sample count.
func (r *suiteResult) render(w io.Writer) {
	mode := "full"
	if r.Quick {
		mode = "QUICK (smoke only, not comparable)"
	}
	fmt.Fprintf(w, "resilientos benchmark: %s sizes, seed %d, %.0f s per run, %s, %d CPU\n",
		mode, r.Seed, r.Seconds, r.GoVersion, r.NumCPU)
	for _, wl := range r.Workloads {
		fmt.Fprintf(w, "\n%s  (operations: %d attempted, %d failed)\n", wl.Name, wl.Attempted, wl.Failed)
		fmt.Fprintf(w, "  %-32s %-7s %-7s %6s %3s %14s %14s %14s\n",
			"END TO END", "UNIT", "BETTER", "BOUND", "N", "MEDIAN", "MIN", "MAX")
		for _, spec := range endToEnd {
			v := wl.EndToEnd[spec.Name]
			lo, hi := minMax(v)
			fmt.Fprintf(w, "  %-32s %-7s %-7s %5.0f%% %3d %14.6g %14.6g %14.6g\n",
				spec.Name, spec.Unit, spec.Better, 100*spec.Bound, len(v), median(v), lo, hi)
		}
		fmt.Fprintf(w, "  %-32s %-7s %-7s %14s\n", "PER LAYER (traced run, probes)", "UNIT", "BETTER", "VALUE")
		for _, spec := range perLayer {
			fmt.Fprintf(w, "  %-32s %-7s %-7s %14.6g\n", spec.Name, spec.Unit, spec.Better, wl.PerLayer[spec.Name])
		}
	}
}
