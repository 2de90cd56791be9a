package bench

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const committedSnapshot = "../../BENCH_engine.json"

// TestCommittedSnapshotPassesGate keeps BENCH_engine.json and the floors in
// regression.go from drifting apart between CI runs.
func TestCommittedSnapshotPassesGate(t *testing.T) {
	snap, err := ReadSnapshot(committedSnapshot)
	if err != nil {
		t.Fatal(err)
	}
	if err := CheckRegression(snap); err != nil {
		t.Fatal(err)
	}
}

// TestDoctoredSnapshotsFailByName starts each case from the committed
// snapshot, breaks one thing, round-trips it through a file and requires the
// gate to fail with an error naming what was broken.
func TestDoctoredSnapshotsFailByName(t *testing.T) {
	setSpeedup := func(s *EngineSnapshot, op string, x float64) {
		ob := s.Operators[op]
		ob.Speedup = x
		s.Operators[op] = ob
	}
	cases := []struct {
		name     string
		mutate   func(s *EngineSnapshot)
		extraKey string // top-level key injected into the written JSON
		want     string
	}{
		{name: "no operators", mutate: func(s *EngineSnapshot) { s.Operators = nil }, want: "no operator measurements"},
		{name: "generic pair below 1.0", mutate: func(s *EngineSnapshot) { setSpeedup(s, "distinct", 0.99) }, want: "distinct 0.990x (floor 1.00x)"},
		{name: "select below its raised floor", mutate: func(s *EngineSnapshot) { setSpeedup(s, "select", 2.9) }, want: "select 2.900x (floor 3.00x)"},
		{name: "prepared speedup on 2 of 5 methods", mutate: func(s *EngineSnapshot) {
			for _, m := range []string{"basic", "q-sharing", "o-sharing"} {
				mb := s.Methods[m]
				mb.PreparedSpeedup = 1.29
				s.Methods[m] = mb
			}
		}, want: "on 2/5 methods"},
		{name: "retired section", extraKey: "serve", want: `unknown field "serve"`},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			snap, err := ReadSnapshot(committedSnapshot)
			if err != nil {
				t.Fatal(err)
			}
			if c.mutate != nil {
				c.mutate(snap)
			}
			data, err := snap.JSON()
			if err != nil {
				t.Fatal(err)
			}
			if c.extraKey != "" {
				var top map[string]json.RawMessage
				if err := json.Unmarshal(data, &top); err != nil {
					t.Fatal(err)
				}
				top[c.extraKey] = json.RawMessage(`{}`)
				if data, err = json.Marshal(top); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "BENCH_engine.json")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			doctored, err := ReadSnapshot(path)
			if err == nil {
				err = CheckRegression(doctored)
			}
			if err == nil || !strings.Contains(err.Error(), c.want) {
				t.Fatalf("got error %v, want one containing %q", err, c.want)
			}
		})
	}
}
