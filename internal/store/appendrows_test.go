package store

import (
	"errors"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

// TestAppendRowsBatchRoundTrip pins the batched-append record: a batch is one
// WAL record and exactly one fsync however many rows it carries, it commits as
// a single epoch step, and recovery replays it bit-identically — including
// mixed with single appends and a bump.
func TestAppendRowsBatchRoundTrip(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(6)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}

	syncs := 0
	fs.SyncErr = func(path string) error { syncs++; return nil }
	batch := []engine.Tuple{sRow("batch-α", 2, 1), sRow("batch-two", 5, 2), sRow("", 0, 2), sRow("batch-four", 2, 2)}
	recordsBefore := log.Records()
	if err := log.AppendRows("S", batch, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}
	if syncs != 1 {
		t.Fatalf("batched append issued %d fsyncs, want 1", syncs)
	}
	if got := log.Records() - recordsBefore; got != 1 {
		t.Fatalf("batched append wrote %d WAL records, want 1", got)
	}
	fs.SyncErr = nil
	cur.Relations[0].Rows = append(cur.Relations[0].Rows, batch...)
	cur.Epoch++

	// A single append and a bump after the batch keep the epoch chain intact.
	if err := log.AppendRows("S", []engine.Tuple{sRow("single", 1, 1)}, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}
	cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("single", 1, 1))
	cur.Epoch++
	if err := log.Bump(cur.Epoch+1, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}
	cur.Epoch++
	cur.StaleFloor = cur.Epoch

	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	got := rec.Scenarios[0]
	stateEqual(t, "recovered", cur, got.State)
	if got.Replayed != 3 {
		t.Fatalf("replayed %d records, want 3 (batch, append, bump)", got.Replayed)
	}
	for _, m := range []core.Method{core.MethodBasic, core.MethodOSharing} {
		sameAnswers(t, m.String(), evalState(t, cur, m), evalState(t, got.State, m))
	}
}

// TestAppendRowsValidation pins the decode-side safety: a batch row with the
// wrong arity, or a batch at a non-successor epoch, quarantines the scenario
// instead of replaying a malformed state.
func TestAppendRowsValidation(t *testing.T) {
	t.Run("arity", func(t *testing.T) {
		fs := NewMemFS()
		st := openTestStore(t, fs)
		cur := testState(3)
		log, err := st.Register(cloneState(cur))
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendRows("S", []engine.Tuple{sRow("ok", 1, 1), {engine.I(1)}}, cur.Epoch+1); err != nil {
			t.Fatal(err)
		}
		rec, err := openTestStore(t, fs).Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Quarantined) != 1 {
			t.Fatalf("recovered %d quarantined, want 1 (arity mismatch inside a batch)", len(rec.Quarantined))
		}
		if !errors.Is(rec.Quarantined[0].Err, ErrCorrupt) {
			t.Fatalf("quarantine reason = %v, want ErrCorrupt", rec.Quarantined[0].Err)
		}
	})
	t.Run("epoch-jump", func(t *testing.T) {
		fs := NewMemFS()
		st := openTestStore(t, fs)
		cur := testState(3)
		log, err := st.Register(cloneState(cur))
		if err != nil {
			t.Fatal(err)
		}
		if err := log.AppendRows("S", []engine.Tuple{sRow("skip", 1, 1)}, cur.Epoch+5); err != nil {
			t.Fatal(err)
		}
		rec, err := openTestStore(t, fs).Recover()
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Quarantined) != 1 {
			t.Fatalf("recovered %d quarantined, want 1 (epoch jump)", len(rec.Quarantined))
		}
	})
}
