package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/bench"
)

func TestListPrintsEveryExperiment(t *testing.T) {
	var out bytes.Buffer
	if err := run([]string{"-list"}, &out); err != nil {
		t.Fatal(err)
	}
	for _, e := range bench.Experiments() {
		if !strings.Contains(out.String(), e.ID) {
			t.Errorf("-list output lacks experiment %s", e.ID)
		}
	}
}

// retiredFlags each merged a section of the same name into the snapshot; the
// measurements moved to benchmark/.
var retiredFlags = []string{"-serve", "-store", "-shards", "-delta"}

// A retired flag must fail loudly, not be accepted and ignored.
func TestRetiredFlagsAreUsageErrors(t *testing.T) {
	for _, name := range retiredFlags {
		err := run([]string{name}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), "flag provided but not defined: "+name) {
			t.Errorf("%s: got %v, want an undefined-flag error", name, err)
		}
	}
}

func TestCheckRejectsRetiredSections(t *testing.T) {
	committed, err := os.ReadFile("../../BENCH_engine.json")
	if err != nil {
		t.Fatal(err)
	}
	write := func(data []byte) string {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, "BENCH_engine.json"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		return dir
	}
	if err := run([]string{"-check", "-out", write(committed)}, &bytes.Buffer{}); err != nil {
		t.Fatalf("committed snapshot: %v", err)
	}
	for _, name := range retiredFlags {
		section := strconv.Quote(name[1:])
		stale := bytes.Replace(committed, []byte(`"operators"`), []byte(section+`: {}, "operators"`), 1)
		err := run([]string{"-check", "-out", write(stale)}, &bytes.Buffer{})
		if err == nil || !strings.Contains(err.Error(), section) {
			t.Errorf("snapshot carrying a %s section: got %v, want an error naming it", section, err)
		}
	}
}
