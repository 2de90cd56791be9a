package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"testing"
	"time"
)

// benchmarkFile mirrors BENCHMARK.json.
type benchmarkFile struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []declJSON `json:"end_to_end"`
	PerLayer []declJSON `json:"per_layer"`
}

type declJSON struct {
	Name   string   `json:"name"`
	Unit   string   `json:"unit"`
	Better string   `json:"better"`
	Bound  *float64 `json:"bound,omitempty"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(data, &f); err != nil {
		t.Fatal(err)
	}
	return f
}

// BENCHMARK.json and the benchmark's own declarations must say the same.
func TestBenchmarkFileMatchesDeclarations(t *testing.T) {
	f := readBenchmarkFile(t)
	if f.RunSeconds != defaultSeconds {
		t.Errorf("run_seconds %d, the benchmark's default is %d", f.RunSeconds, defaultSeconds)
	}
	if len(f.Workloads) != len(workloads) {
		t.Fatalf("%d workloads declared, %d implemented", len(f.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if f.Workloads[i].Name != w.name || f.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %q (%q), the benchmark %q (%q)", i, f.Workloads[i].Name, f.Workloads[i].Why, w.name, w.why)
		}
		if len(w.why) > 200 {
			t.Errorf("workload %s: its why is %d characters, the driver reads at most 200", w.name, len(w.why))
		}
	}
	check := func(kind string, got []declJSON, want []decl, bounded bool) {
		if len(got) != len(want) {
			t.Errorf("%s: %d metrics declared, %d implemented", kind, len(got), len(want))
			return
		}
		for i, d := range want {
			g := got[i]
			if g.Name != d.name || g.Unit != d.unit || g.Better != d.better {
				t.Errorf("%s %d: BENCHMARK.json has %s/%s/%s, the benchmark %s/%s/%s", kind, i, g.Name, g.Unit, g.Better, d.name, d.unit, d.better)
			}
			if bounded && (g.Bound == nil || *g.Bound != d.bound) {
				t.Errorf("%s %s: bound differs from the benchmark's %v", kind, d.name, d.bound)
			}
			if !bounded && g.Bound != nil {
				t.Errorf("%s %s: per-layer metrics carry no bound", kind, d.name)
			}
		}
	}
	check("end_to_end", f.EndToEnd, endToEnd, true)
	check("per_layer", f.PerLayer, perLayer, false)
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// checkEmitted asserts that a run emitted exactly the declared metrics, each
// once (a map cannot hold a name twice) and with its declared unit.
func checkEmitted(t *testing.T, what string, res *result, want []decl) {
	t.Helper()
	if res.Failed != 0 || !res.Correct {
		t.Errorf("%s: %d of %d operations failed: %v", what, res.Failed, res.Attempted, res.errs)
	}
	if res.Attempted < 1 {
		t.Errorf("%s: nothing attempted", what)
	}
	declared := map[string]decl{}
	for _, d := range want {
		if !nameRE.MatchString(d.name) {
			t.Errorf("declared name %q is not a valid metric name", d.name)
		}
		if _, dup := declared[d.name]; dup {
			t.Errorf("metric %q declared twice", d.name)
		}
		declared[d.name] = d
		m, ok := res.Metrics[d.name]
		if !ok {
			t.Errorf("%s: declared metric %q not emitted", what, d.name)
			continue
		}
		if m.Unit != d.unit {
			t.Errorf("%s: %q emitted in %q, declared in %q", what, d.name, m.Unit, d.unit)
		}
	}
	for name := range res.Metrics {
		if _, ok := declared[name]; !ok {
			t.Errorf("%s: undeclared metric %q emitted", what, name)
		}
	}
}

// TestSmoke is -smoke under go test: every workload end to end and traced for
// about a second each.  It checks names, units, answers and the span file —
// not speed.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("drives every workload for about a second")
	}
	start := time.Now()
	p := smokePlan(t.TempDir())
	var ladder *result
	for _, w := range workloads {
		res, err := runEndToEnd(w, 42, p)
		if err != nil {
			t.Fatalf("%s end to end: %v", w.name, err)
		}
		checkEmitted(t, w.name+" end to end", res, endToEnd)
		for name, m := range res.Metrics {
			if m.Value <= 0 {
				t.Errorf("%s: end-to-end metric %s is %v; it must never be 0", w.name, name, m.Value)
			}
		}

		traced, err := runTraced(w, 42, p, ladder)
		if err != nil {
			t.Fatalf("%s traced: %v", w.name, err)
		}
		checkEmitted(t, w.name+" traced", traced, perLayer)
		switch w.name {
		case "cached_read":
			if got := traced.Metrics["server.cache_hit_share"].Value; got != 1 {
				t.Errorf("cached_read: server.cache_hit_share = %v, want 1", got)
			}
		case "cold_osharing", "cold_shared":
			if got := traced.Metrics["server.coalesced_share"].Value; got != 0 {
				t.Errorf("%s: server.coalesced_share = %v, want 0", w.name, got)
			}
			if got := traced.Metrics["server.cache_hit_share"].Value; got != 0 {
				t.Errorf("%s: server.cache_hit_share = %v, want 0", w.name, got)
			}
		}
		if ladder == nil {
			ladder = traced
			checkSpanFile(t, filepath.Join(p.dir, "spans-"+w.name+"-seed42.jsonl"))
		}
	}
	t.Logf("smoke took %v", time.Since(start).Round(time.Millisecond))
}

// checkSpanFile asserts the traced run's span file holds what the README says
// it holds: spans of one request share a trace id, every parent is a span of
// the same trace, every layer's self time is non-negative, and both the
// workload's request spans and the ladder's rungs are there.
func checkSpanFile(t *testing.T, path string) {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var spans []span
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var s span
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		spans = append(spans, s)
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	byID := map[uint64]span{}
	names := map[string]int{}
	for _, s := range spans {
		if _, dup := byID[s.ID]; dup {
			t.Errorf("span id %d used twice", s.ID)
		}
		byID[s.ID] = s
		names[s.Name]++
		if s.EndNS < s.StartNS {
			t.Errorf("span %d (%s) ends before it starts", s.ID, s.Name)
		}
	}
	for _, s := range spans {
		if s.Parent == 0 {
			continue
		}
		parent, ok := byID[s.Parent]
		if !ok {
			t.Errorf("span %d (%s): parent %d is not in the file", s.ID, s.Name, s.Parent)
		} else if parent.Trace != s.Trace {
			t.Errorf("span %d (%s) is in trace %d, its parent in trace %d", s.ID, s.Name, s.Trace, parent.Trace)
		}
	}
	for id, self := range selfTimes(spans) {
		if self < 0 {
			t.Errorf("span %d (%s): self time %d ns is negative", id, byID[id].Name, self)
		}
	}
	for _, name := range []string{"client.request", "server.handler", "http.roundtrip", "server.do_hit", "server.encode",
		"server.do_miss", "core.execute", "core.first_execute", "query.parse", "query.canonical"} {
		if names[name] == 0 {
			t.Errorf("no %q span in %s", name, path)
		}
	}
}
