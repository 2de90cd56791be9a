package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
)

// runSet is one set of runs: per workload, per end-to-end metric, one value
// per run.
type runSet map[string]map[string][]float64

// runCompare is the tool for the agreement criterion: two sets of runs of the
// same code must each be steady (interquartile spread within the metric's
// bound, setup_s excepted) and agree (the second median no worse than the
// first by more than the bound).  With two files it compares saved sets;
// without, it measures both, one process per run as the driver does.
func runCompare(files []string, seed uint64, seconds, runs int, out string) error {
	var a, b runSet
	switch len(files) {
	case 0:
		var err error
		for i, set := range []*runSet{&a, &b} {
			fmt.Fprintf(os.Stderr, "benchmark: measuring set %d: %d runs of %d s per workload\n", i+1, runs, seconds)
			if *set, err = measureSet(seed, seconds, runs); err != nil {
				return err
			}
			if out != "" {
				if err := saveSet(fmt.Sprintf("%s.%d.json", out, i+1), *set); err != nil {
					return err
				}
			}
		}
	case 2:
		var err error
		if a, err = loadSet(files[0]); err != nil {
			return err
		}
		if b, err = loadSet(files[1]); err != nil {
			return err
		}
	default:
		return fmt.Errorf("-compare takes no files (measure two sets) or two saved sets, got %d", len(files))
	}
	return report(a, b)
}

// measureSet runs every workload runs times, run i with seed+i, interleaving
// the workloads so that slow drift of the machine spreads over all of them.
func measureSet(seed uint64, seconds, runs int) (runSet, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	set := runSet{}
	for i := 0; i < runs; i++ {
		for _, w := range workloads {
			cmd := exec.Command(self, "-workload", w.name, "-seed", strconv.FormatUint(seed+uint64(i), 10),
				"-seconds", strconv.Itoa(seconds), "-trace", "0")
			cmd.Stderr = os.Stderr
			stdout, err := cmd.Output()
			if err != nil {
				return nil, fmt.Errorf("%s seed %d: %w", w.name, seed+uint64(i), err)
			}
			lines := bytes.Split(bytes.TrimSpace(stdout), []byte("\n"))
			var res result
			if err := json.Unmarshal(lines[len(lines)-1], &res); err != nil {
				return nil, fmt.Errorf("%s seed %d: last line is not a result: %w", w.name, seed+uint64(i), err)
			}
			if !res.Correct || res.Failed > 0 {
				return nil, fmt.Errorf("%s seed %d: %d of %d operations failed", w.name, seed+uint64(i), res.Failed, res.Attempted)
			}
			if set[w.name] == nil {
				set[w.name] = map[string][]float64{}
			}
			for name, m := range res.Metrics {
				set[w.name][name] = append(set[w.name][name], m.Value)
			}
		}
	}
	return set, nil
}

func saveSet(path string, set runSet) error {
	data, err := json.MarshalIndent(set, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}

func loadSet(path string) (runSet, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var set runSet
	if err := json.Unmarshal(data, &set); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return set, nil
}

// verdict judges one (metric, workload) pair across two sets.
type verdict struct {
	medA, q1A, q3A, spreadA float64
	medB, q1B, q3B, spreadB float64
	worse                   float64 // how much worse the second median is, as a share of the first
	ok                      bool
}

func judge(d decl, a, b []float64) (verdict, error) {
	var v verdict
	var err error
	if v.q1A, v.q3A, err = quartiles(a); err != nil {
		return v, err
	}
	if v.q1B, v.q3B, err = quartiles(b); err != nil {
		return v, err
	}
	v.medA, v.medB = median(a), median(b)
	if v.medA == 0 || v.medB == 0 {
		return v, fmt.Errorf("median is 0")
	}
	v.spreadA, v.spreadB = (v.q3A-v.q1A)/v.medA, (v.q3B-v.q1B)/v.medB
	v.worse = (v.medB - v.medA) / v.medA
	if d.better == "higher" {
		v.worse = -v.worse
	}
	steady := d.name == "setup_s" || (v.spreadA <= d.bound && v.spreadB <= d.bound)
	v.ok = steady && v.worse <= d.bound
	return v, nil
}

// report prints, per (metric, workload), both medians, quartiles and spreads,
// the relative difference and the bound, and fails if any pair is outside it.
func report(a, b runSet) error {
	fmt.Printf("%-14s %-13s %12s %25s %7s %12s %25s %7s %8s %6s\n",
		"workload", "metric", "median 1", "quartiles 1", "spread", "median 2", "quartiles 2", "spread", "worse", "bound")
	bad := 0
	for _, w := range workloads {
		for _, d := range endToEnd {
			v, err := judge(d, a[w.name][d.name], b[w.name][d.name])
			if err != nil {
				return fmt.Errorf("%s %s: %w", w.name, d.name, err)
			}
			mark := ""
			if !v.ok {
				mark = "  OUTSIDE"
				bad++
			}
			fmt.Printf("%-14s %-13s %12.5g %25s %6.1f%% %12.5g %25s %6.1f%% %+7.1f%% %5.0f%%%s\n",
				w.name, d.name, v.medA, fmt.Sprintf("[%.5g, %.5g]", v.q1A, v.q3A), 100*v.spreadA,
				v.medB, fmt.Sprintf("[%.5g, %.5g]", v.q1B, v.q3B), 100*v.spreadB, 100*v.worse, 100*d.bound, mark)
		}
	}
	if bad > 0 {
		return fmt.Errorf("%d (metric, workload) pair(s) outside their bounds", bad)
	}
	return nil
}
