package bench

import (
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
)

// ReadSnapshot loads a BENCH_engine.json previously written by
// `urm-bench -json`.  Unknown fields are an error: a stale file still carrying
// a retired section would otherwise be half-read and pass the gate.
func ReadSnapshot(path string) (*EngineSnapshot, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	var snap EngineSnapshot
	if err := dec.Decode(&snap); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &snap, nil
}

// preparedSpeedupFloor and preparedSpeedupMinMethods gate the session API's
// amortization: re-executing a prepared query must be at least
// preparedSpeedupFloor× faster than a cold Evaluate for at least
// preparedSpeedupMinMethods of the five methods.  Not all five, because for
// execution-dominated methods (o-sharing's u-trace) the front half is
// legitimately a small share of the request.
const (
	preparedSpeedupFloor      = 1.3
	preparedSpeedupMinMethods = 3
)

// operatorSpeedupFloors raises the bar for the operators the vectorized batch
// pipeline rewrote: their live implementation must beat the naive reference by
// at least this factor, not merely match it.  Speedup ratios are used rather
// than absolute ns/op because both sides of a pair scale together with machine
// speed, making the ratio stable across runners.  Floors sit at roughly 60-70%
// of the speedups measured when the snapshot was committed (select 4.3x,
// project 1.5x, pipeline 6.5x, hashjoin 4.1x), leaving headroom for
// machine-to-machine variance.  Project's floor is low by design: a
// non-contiguous root projection must materialize a fresh value slab
// (~2.4 MB/op on the benchmark shape), so it is allocation-bandwidth-bound and
// the batch pipeline can only trim constant factors around that traffic.
// Project-join keeps 1 of a join's 14 columns (5.4x when it was added): a plan
// driver that builds the whole joined row again falls to the hashjoin pair's
// ratio less the projection, well under this floor.
// Operators not listed keep the generic 1.0 floor.
var operatorSpeedupFloors = map[string]float64{
	"select":       3.0,
	"project":      1.2,
	"pipeline":     4.0,
	"hashjoin":     2.5,
	"project-join": 3.0,
}

// CheckRegression validates an engine snapshot against the perf floor every
// change must preserve: each operator pair's live implementation must be at
// least as fast as its reference (speedup >= 1.0), and — when the snapshot
// carries prepared-pair measurements — prepared re-execution must beat cold
// evaluation by the prepared floor on enough methods.  It returns an error
// naming every measurement below its floor, so the CI bench-regression gate
// can fail with the full picture in one run.
func CheckRegression(snap *EngineSnapshot) error {
	if len(snap.Operators) == 0 {
		return fmt.Errorf("snapshot contains no operator measurements")
	}
	names := make([]string, 0, len(snap.Operators))
	for name := range snap.Operators {
		names = append(names, name)
	}
	sort.Strings(names)
	var bad []string
	for _, name := range names {
		floor := 1.0
		if f, ok := operatorSpeedupFloors[name]; ok {
			floor = f
		}
		if ob := snap.Operators[name]; ob.Speedup < floor {
			bad = append(bad, fmt.Sprintf("%s %.3fx (floor %.2fx)", name, ob.Speedup, floor))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("operator speedup below floor: %s", strings.Join(bad, ", "))
	}
	return checkPreparedSpeedups(snap)
}

// checkPreparedSpeedups applies the prepared-re-execution floor.  Snapshots
// without prepared measurements (none of the methods carries a pair) pass, so
// older snapshots stay valid.
func checkPreparedSpeedups(snap *EngineSnapshot) error {
	measured, fast := 0, 0
	var speeds []string
	names := make([]string, 0, len(snap.Methods))
	for name := range snap.Methods {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		mb := snap.Methods[name]
		if mb.PreparedSpeedup == 0 {
			continue
		}
		measured++
		if mb.PreparedSpeedup >= preparedSpeedupFloor {
			fast++
		}
		speeds = append(speeds, fmt.Sprintf("%s %.2fx", name, mb.PreparedSpeedup))
	}
	if measured == 0 {
		return nil
	}
	if fast < preparedSpeedupMinMethods {
		return fmt.Errorf("prepared re-execution >= %.1fx on %d/%d methods, need %d: %s",
			preparedSpeedupFloor, fast, measured, preparedSpeedupMinMethods, strings.Join(speeds, ", "))
	}
	return nil
}
