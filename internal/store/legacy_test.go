package store

import (
	"io/fs"
	"math"
	"os"
	"path"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

// legacyDir is a data directory written by the store before every append was
// logged as a batch: its WALs hold single-row append-row records (type 2),
// which nothing writes any more, beside an append-rows batch and bumps.
// Scenario "test" has no snapshot; "snapped" has one, followed by a WAL tail
// of single-row records, a bump and another single-row record.  The aux blob
// "fixture" is there for LoadAux.
const legacyDir = "testdata/v1-append-row"

// loadDir copies a directory tree from the OS into a fresh MemFS under
// "data", so recovery can repair it without touching testdata.
func loadDir(t *testing.T, dir string) *MemFS {
	t.Helper()
	mem := NewMemFS()
	err := fs.WalkDir(os.DirFS(dir), ".", func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		data, err := os.ReadFile(path.Join(dir, p))
		if err != nil {
			return err
		}
		writeFile(t, mem, path.Join("data", p), data)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return mem
}

// legacyStates pins what legacyDir holds, scenario by scenario.
func legacyStates() (test, snapped *ScenarioState) {
	appendTo := func(st *ScenarioState, rel int, epoch uint64, rows ...engine.Tuple) {
		st.Relations[rel].Rows = append(st.Relations[rel].Rows, rows...)
		st.Epoch = epoch
	}
	// The store tests' mutation sequence: three single-row appends, a bump,
	// two more single-row appends.
	mutated := func(st *ScenarioState) *ScenarioState {
		appendTo(st, 0, 1, sRow("added-α", 2, 9))
		appendTo(st, 0, 2, sRow("added-two", 5, 2))
		appendTo(st, 1, 3, engine.Tuple{engine.F(math.Inf(-1))})
		st.Epoch, st.StaleFloor = 4, 4
		appendTo(st, 0, 5, sRow("", 2, 2))
		appendTo(st, 0, 6, sRow("post-bump", 0, 2))
		return st
	}

	test = mutated(testState(6))
	appendTo(test, 0, 7, sRow("batch-α", 2, 1), sRow("batch-two", 5, 2), sRow("", 0, 2))
	appendTo(test, 0, 8, sRow("after-batch", 2, 2))

	snapped = testState(4)
	snapped.Name = "snapped"
	mutated(snapped)
	appendTo(snapped, 1, 7, engine.Tuple{engine.F(math.Float64frombits(0x7ff8000000000001))}, engine.Tuple{engine.F(math.Copysign(0, -1))})
	appendTo(snapped, 0, 8, sRow("tail-one", 2, 0))
	appendTo(snapped, 1, 9, engine.Tuple{engine.F(1e-300)})
	snapped.Epoch, snapped.StaleFloor = 10, 10
	appendTo(snapped, 0, 11, sRow("post-bump-tail", 2, 1))
	return test, snapped
}

// TestRecoverLegacyDirectory pins that a data directory written before every
// append became a batch still recovers bit for bit under the same format
// version — the only test of the append-row decoder — and keeps accepting
// appends afterwards.
func TestRecoverLegacyDirectory(t *testing.T) {
	if FormatVersion != 1 {
		t.Fatalf("FormatVersion = %d; the v1 fixture needs a migration test", FormatVersion)
	}
	mem := loadDir(t, legacyDir)
	rec, err := openTestStore(t, mem).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 2 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, quarantined %v", len(rec.Scenarios), rec.Quarantined)
	}
	wantTest, wantSnapped := legacyStates()
	for i, c := range []struct {
		want     *ScenarioState
		replayed int
	}{
		{wantSnapped, 4}, // tail-one, the W row, the bump, post-bump-tail
		{wantTest, 8},    // five single rows, the bump, the batch, after-batch
	} {
		got := rec.Scenarios[i]
		stateEqual(t, c.want.Name, c.want, got.State)
		if got.Replayed != c.replayed {
			t.Fatalf("%s: replayed %d records, want %d", c.want.Name, got.Replayed, c.replayed)
		}
		sameAnswers(t, c.want.Name, evalState(t, c.want, core.MethodOSharing), evalState(t, got.State, core.MethodOSharing))
	}
	if data, err := mem.ReadFile(path.Join("data", versionFile)); err != nil || string(data) != "urm-store-v1\n" {
		t.Fatalf("VERSION = %q, %v; want it untouched", data, err)
	}
	if blob, err := openTestStore(t, mem).LoadAux("fixture"); err != nil || string(blob) != `{"written-by":"urm-store-v1"}` {
		t.Fatalf("LoadAux(fixture) = %q, %v", blob, err)
	}

	// Today's writer continues the old WAL.
	row := sRow("new-writer", 2, 0)
	if err := rec.Scenarios[1].Log.AppendRows("S", []engine.Tuple{row}, wantTest.Epoch+1); err != nil {
		t.Fatal(err)
	}
	wantTest.Relations[0].Rows = append(wantTest.Relations[0].Rows, row)
	wantTest.Epoch++
	rec2, err := openTestStore(t, mem).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Scenarios) != 2 {
		t.Fatalf("second recovery found %d scenarios", len(rec2.Scenarios))
	}
	stateEqual(t, "after a new append", wantTest, rec2.Scenarios[1].State)
}

// TestRegisterOverDropDebris: a scenario directory holding a snapshot but no
// WAL is the debris of an interrupted drop.  Registering the name again must
// discard it — otherwise the next recovery takes the dead snapshot as its
// base and skips the new registration and every append at or below the
// snapshot's epoch.
func TestRegisterOverDropDebris(t *testing.T) {
	mem := NewMemFS()
	st := openTestStore(t, mem)
	old := testState(10)
	log, err := st.Register(cloneState(old))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, old)
	if err := log.Snapshot(cloneState(old)); err != nil {
		t.Fatal(err)
	}
	log.Close()
	if err := mem.Remove(walPath()); err != nil {
		t.Fatal(err)
	}

	fresh := testState(2)
	log, err = st.Register(cloneState(fresh))
	if err != nil {
		t.Fatal(err)
	}
	row := sRow("fresh", 1, 1)
	if err := log.AppendRows("S", []engine.Tuple{row}, 1); err != nil {
		t.Fatal(err)
	}
	fresh.Relations[0].Rows = append(fresh.Relations[0].Rows, row)
	fresh.Epoch = 1

	rec, err := openTestStore(t, mem).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, quarantined %v", len(rec.Scenarios), rec.Quarantined)
	}
	stateEqual(t, "registered over debris", fresh, rec.Scenarios[0].State)
}
