package store

import (
	"fmt"
	"math"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
)

// TestCrashAtEveryPoint is the generative crash-point test: it runs a fixed
// mutation sequence (register, appends, bump, snapshot, more appends, a
// second snapshot mid-growth) against a MemFS once to learn its total cost in
// fault units, then replays the sequence once per possible crash point —
// after every written byte and every metadata operation, including inside
// Open's version write, inside the register record, between a snapshot's
// rename and its WAL rotation, and mid-append.
//
// For every crash point it asserts recovery of the durable image yields
// exactly the state of the last acknowledged mutation — never a torn suffix,
// never a lost acked write, never a quarantine — and, for each distinct
// recovered epoch, that query answers over the recovered state are
// bit-identical to the never-crashed reference.
func TestCrashAtEveryPoint(t *testing.T) {
	// committed[epoch] is the reference state after the mutation that
	// produced that epoch; answers[epoch] is lazily evaluated from it.
	committed := map[uint64]*ScenarioState{}
	answers := map[uint64]*core.Result{}

	// run executes the sequence until the first error (the crash), tracking
	// the highest epoch whose mutation was acknowledged.  registered reports
	// whether the initial registration was acked.
	run := func(fs *MemFS) (ackedEpoch uint64, registered bool) {
		st, err := Open("data", Options{FS: fs, Fsync: true, SnapshotEvery: -1})
		if err != nil {
			return 0, false
		}
		cur := testState(6)
		log, err := st.Register(cloneState(cur))
		if err != nil {
			return 0, false
		}
		registered = true
		record := func() {
			if committed[cur.Epoch] == nil {
				committed[cur.Epoch] = cloneState(cur)
			}
		}
		record()

		wRow := engine.Tuple{engine.F(math.NaN())}
		ops := []func() error{
			func() error { return log.AppendRows("S", []engine.Tuple{sRow("crash-α", 2, 9)}, cur.Epoch+1) },
			func() error { return log.AppendRows("W", []engine.Tuple{wRow}, cur.Epoch+1) },
			func() error { return log.Bump(cur.Epoch+1, cur.Epoch+1) },
			func() error { return log.Snapshot(cloneState(cur)) },
			func() error { return log.AppendRows("S", []engine.Tuple{sRow("post-snap", 5, 2)}, cur.Epoch+1) },
			func() error { return log.AppendRows("S", []engine.Tuple{sRow("k01", 2, 2)}, cur.Epoch+1) },
			func() error { return log.Snapshot(cloneState(cur)) },
			func() error { return log.AppendRows("S", []engine.Tuple{sRow("final", 2, 0)}, cur.Epoch+1) },
		}
		apply := []func(){
			func() { cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("crash-α", 2, 9)); cur.Epoch++ },
			func() { cur.Relations[1].Rows = append(cur.Relations[1].Rows, wRow); cur.Epoch++ },
			func() { cur.Epoch++; cur.StaleFloor = cur.Epoch },
			func() {}, // snapshot changes no state
			func() { cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("post-snap", 5, 2)); cur.Epoch++ },
			func() { cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("k01", 2, 2)); cur.Epoch++ },
			func() {},
			func() { cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("final", 2, 0)); cur.Epoch++ },
		}
		for i, op := range ops {
			if err := op(); err != nil {
				return cur.Epoch, true
			}
			apply[i]()
			record()
		}
		return cur.Epoch, true
	}

	// Reference run: no crash scheduled.  Its unit count bounds the sweep.
	ref := NewMemFS()
	finalEpoch, ok := run(ref)
	if !ok || ref.Crashed() {
		t.Fatal("reference run failed")
	}
	total := ref.Used()
	if total < 100 {
		t.Fatalf("reference run consumed only %d units; harness is not exercising the store", total)
	}

	for c := int64(0); c <= total; c++ {
		fs := NewMemFS()
		fs.CrashAfter(c)
		ackedEpoch, registered := run(fs)
		crashed := fs.Crashed()
		if !crashed && c < total {
			t.Fatalf("crash budget %d/%d never tripped", c, total)
		}

		st, err := Open("data", Options{FS: fs.Clone(), Fsync: true, SnapshotEvery: -1})
		if err != nil {
			t.Fatalf("crash %d: reopening durable image: %v", c, err)
		}
		rec, err := st.Recover()
		if err != nil {
			t.Fatalf("crash %d: recover: %v", c, err)
		}
		if len(rec.Quarantined) != 0 {
			t.Fatalf("crash %d: quarantined %v — a clean crash must never look like corruption", c, rec.Quarantined)
		}
		if len(rec.Scenarios) == 0 {
			if registered {
				t.Fatalf("crash %d: acked registration lost", c)
			}
			continue
		}
		if len(rec.Scenarios) != 1 {
			t.Fatalf("crash %d: recovered %d scenarios", c, len(rec.Scenarios))
		}
		got := rec.Scenarios[0].State
		if !registered {
			t.Fatalf("crash %d: scenario recovered before registration was acked (epoch %d)", c, got.Epoch)
		}
		// With fsync on, the durable state is exactly the acknowledged
		// prefix: the in-flight record is torn away, nothing acked is lost.
		if got.Epoch != ackedEpoch {
			t.Fatalf("crash %d: recovered epoch %d, acked %d", c, got.Epoch, ackedEpoch)
		}
		want := committed[got.Epoch]
		if want == nil {
			t.Fatalf("crash %d: recovered epoch %d was never a committed state", c, got.Epoch)
		}
		stateEqual(t, fmt.Sprintf("crash %d", c), want, got)

		// Answers over the recovered state must be bit-identical to the
		// reference.  One evaluation per distinct epoch: stateEqual above
		// already proves later repeats evaluate identically.
		if answers[got.Epoch] == nil {
			answers[got.Epoch] = evalState(t, want, core.MethodOSharing)
			sameAnswers(t, fmt.Sprintf("crash %d answers", c), answers[got.Epoch], evalState(t, got, core.MethodOSharing))
		}
	}
	if answers[finalEpoch] == nil {
		t.Fatal("the crash sweep never reached the final committed state")
	}
}
