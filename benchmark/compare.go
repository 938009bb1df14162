package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// Verdicts of one (metric, workload) pair, baseline a against change b.
const (
	verdictBetter     = "better"
	verdictNoWorse    = "no worse"
	verdictWorse      = "worse"
	verdictUnresolved = "unresolved" // spread wider than the bound
)

// judge applies a metric's bound to the rounds of two results. The
// change is worse when its median is worse than the baseline's by more
// than the bound. It is better when every one of its rounds beats every
// baseline round. Otherwise it is no worse, unless the rounds of either
// side spread wider than the bound: then the bound cannot tell, and the
// pair is unresolved. Exact metrics are functions of the seed, so their
// bound is zero.
func judge(spec metricSpec, a, b []float64) (verdict string, change float64) {
	sign := 1.0 // makes a positive change an improvement
	if spec.Better == "lower" {
		sign = -1
	}
	ma, mb := median(a), median(b)
	if ma != 0 {
		change = sign * (mb - ma) / ma
	}
	bound := compareBound(spec)
	if change < -bound {
		return verdictWorse, change
	}
	loA, hiA := minMax(a)
	loB, hiB := minMax(b)
	allBetter := loB > hiA
	if spec.Better == "lower" {
		allBetter = hiB < loA
	}
	if allBetter {
		return verdictBetter, change
	}
	if spread(a) > bound || spread(b) > bound {
		return verdictUnresolved, change
	}
	return verdictNoWorse, change
}

// compareBound is the bound -compare holds a metric to: both sides ran
// the same seed, so an exact metric may not move at all.
func compareBound(spec metricSpec) float64 {
	if spec.Exact {
		return 0
	}
	return spec.Bound
}

// spread is the distance between the extremes as a share of the median.
func spread(v []float64) float64 {
	lo, hi := minMax(v)
	if m := median(v); m != 0 {
		return (hi - lo) / m
	}
	return 0
}

func loadSuite(path string) (*suiteResult, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var r suiteResult
	if err := json.Unmarshal(b, &r); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if r.Schema != suiteSchema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, r.Schema, suiteSchema)
	}
	return &r, nil
}

// compareFiles prints one row per (end-to-end metric, workload) of two
// suite results and lists the exact per-layer values that moved. It
// returns exit code 1 when any pair is worse.
func compareFiles(w io.Writer, pathA, pathB string) (int, error) {
	a, err := loadSuite(pathA)
	if err != nil {
		return 2, err
	}
	b, err := loadSuite(pathB)
	if err != nil {
		return 2, err
	}
	if a.Quick || b.Quick {
		return 2, fmt.Errorf("quick results are for smoke runs and cannot be compared")
	}
	if a.Seed != b.Seed || a.Seconds != b.Seconds {
		return 2, fmt.Errorf("results differ in seed (%d, %d) or seconds (%g, %g); run both sides alike",
			a.Seed, b.Seed, a.Seconds, b.Seconds)
	}
	other := make(map[string]suiteWorkload, len(b.Workloads))
	for _, wl := range b.Workloads {
		other[wl.Name] = wl
	}

	worse := 0
	fmt.Fprintf(w, "%-16s %-18s %-7s %6s %14s %14s %8s  %s\n",
		"WORKLOAD", "METRIC", "BETTER", "BOUND", "A MEDIAN", "B MEDIAN", "CHANGE", "VERDICT")
	for _, wa := range a.Workloads {
		wb, ok := other[wa.Name]
		if !ok {
			continue
		}
		for _, spec := range endToEnd {
			verdict, change := judge(spec, wa.EndToEnd[spec.Name], wb.EndToEnd[spec.Name])
			if verdict == verdictWorse {
				worse++
			}
			fmt.Fprintf(w, "%-16s %-18s %-7s %5.0f%% %14.6g %14.6g %+7.2f%%  %s\n",
				wa.Name, spec.Name, spec.Better, 100*compareBound(spec),
				median(wa.EndToEnd[spec.Name]), median(wb.EndToEnd[spec.Name]), 100*change, verdict)
		}
		if wb.Failed > wa.Failed {
			worse++
			fmt.Fprintf(w, "%-16s operations failed: %d of %d, were %d of %d  %s\n",
				wa.Name, wb.Failed, wb.Attempted, wa.Failed, wa.Attempted, verdictWorse)
		}
		for _, spec := range perLayer {
			if va, vb := wa.PerLayer[spec.Name], wb.PerLayer[spec.Name]; spec.Exact && va != vb {
				fmt.Fprintf(w, "%-16s exact %s moved: %g -> %g\n", wa.Name, spec.Name, va, vb)
			}
		}
	}
	if worse > 0 {
		fmt.Fprintf(w, "%d worse\n", worse)
		return 1, nil
	}
	return 0, nil
}
