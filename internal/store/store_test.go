package store

import (
	"errors"
	"fmt"
	"math"
	"path"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// The test scenario mirrors internal/server's fixture — source S(x, y, z),
// target T(a, b), two mappings disagreeing on b — plus a relation W(f) of
// floats that no query touches, there purely to prove the codec preserves
// bit patterns (NaN, signed zero) across a recovery.

func testState(nrows int) *ScenarioState {
	target := schema.NewSchema("Target")
	target.MustAddRelation(&schema.RelationSchema{Name: "T", Columns: []schema.Column{
		{Name: "a"}, {Name: "b", Type: schema.TypeInt},
	}})
	sAttr := func(name string) schema.Attribute { return schema.Attribute{Relation: "S", Name: name} }
	tAttr := func(name string) schema.Attribute { return schema.Attribute{Relation: "T", Name: name} }
	maps := schema.MappingSet{
		schema.MustNewMapping("m1", []schema.Correspondence{
			{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
			{Source: sAttr("y"), Target: tAttr("b"), Score: 0.8},
		}, 0.6),
		schema.MustNewMapping("m2", []schema.Correspondence{
			{Source: sAttr("x"), Target: tAttr("a"), Score: 0.9},
			{Source: sAttr("z"), Target: tAttr("b"), Score: 0.7},
		}, 0.4),
	}
	s := RelationState{Name: "S", Columns: []string{"x", "y", "z"}}
	for i := 0; i < nrows; i++ {
		s.Rows = append(s.Rows, engine.Tuple{
			engine.S(fmt.Sprintf("k%02d", i%5)),
			engine.I(int64(i % 7)),
			engine.I(int64(i % 3)),
		})
	}
	w := RelationState{Name: "W", Columns: []string{"f"}, Rows: []engine.Tuple{
		{engine.F(math.NaN())},
		{engine.F(math.Copysign(0, -1))},
		{engine.F(1.5)},
	}}
	return &ScenarioState{
		Name:      "test",
		Label:     "Test",
		Target:    target,
		Mappings:  maps,
		Relations: []RelationState{s, w},
	}
}

func sRow(x string, y, z int64) engine.Tuple {
	return engine.Tuple{engine.S(x), engine.I(y), engine.I(z)}
}

// cloneState deep-copies a scenario state so mutations of one copy cannot
// leak into another (tuples are shared; they are immutable by contract).
func cloneState(st *ScenarioState) *ScenarioState {
	out := &ScenarioState{
		Name:       st.Name,
		Label:      st.Label,
		Epoch:      st.Epoch,
		StaleFloor: st.StaleFloor,
		Target:     st.Target.Clone(),
		Mappings:   st.Mappings.Clone(),
	}
	for _, rel := range st.Relations {
		out.Relations = append(out.Relations, RelationState{
			Name:    rel.Name,
			Columns: append([]string(nil), rel.Columns...),
			Rows:    append([]engine.Tuple(nil), rel.Rows...),
		})
	}
	return out
}

func valueBitsEqual(a, b engine.Value) bool {
	if a.Kind != b.Kind {
		return false
	}
	switch a.Kind {
	case engine.KindString:
		return a.Str == b.Str
	case engine.KindInt:
		return a.Int == b.Int
	case engine.KindFloat:
		return math.Float64bits(a.Float) == math.Float64bits(b.Float)
	default:
		return true
	}
}

// stateEqual asserts the two states are identical down to float bit patterns.
func stateEqual(t *testing.T, label string, want, got *ScenarioState) {
	t.Helper()
	if got.Name != want.Name || got.Label != want.Label {
		t.Fatalf("%s: name/label %q/%q, want %q/%q", label, got.Name, got.Label, want.Name, want.Label)
	}
	if got.Epoch != want.Epoch || got.StaleFloor != want.StaleFloor {
		t.Fatalf("%s: epoch/floor %d/%d, want %d/%d", label, got.Epoch, got.StaleFloor, want.Epoch, want.StaleFloor)
	}
	if got.Target.String() != want.Target.String() {
		t.Fatalf("%s: target %s, want %s", label, got.Target, want.Target)
	}
	if len(got.Mappings) != len(want.Mappings) {
		t.Fatalf("%s: %d mappings, want %d", label, len(got.Mappings), len(want.Mappings))
	}
	for i := range want.Mappings {
		w, g := want.Mappings[i], got.Mappings[i]
		if g.ID != w.ID || math.Float64bits(g.Prob) != math.Float64bits(w.Prob) || g.Signature() != w.Signature() {
			t.Fatalf("%s: mapping %d = %v, want %v", label, i, g, w)
		}
	}
	if len(got.Relations) != len(want.Relations) {
		t.Fatalf("%s: %d relations, want %d", label, len(got.Relations), len(want.Relations))
	}
	for i := range want.Relations {
		w, g := want.Relations[i], got.Relations[i]
		if g.Name != w.Name || len(g.Columns) != len(w.Columns) {
			t.Fatalf("%s: relation %d = %s(%v), want %s(%v)", label, i, g.Name, g.Columns, w.Name, w.Columns)
		}
		for j := range w.Columns {
			if g.Columns[j] != w.Columns[j] {
				t.Fatalf("%s: relation %s columns %v, want %v", label, w.Name, g.Columns, w.Columns)
			}
		}
		if len(g.Rows) != len(w.Rows) {
			t.Fatalf("%s: relation %s has %d rows, want %d", label, w.Name, len(g.Rows), len(w.Rows))
		}
		for j := range w.Rows {
			if len(g.Rows[j]) != len(w.Rows[j]) {
				t.Fatalf("%s: relation %s row %d arity %d, want %d", label, w.Name, j, len(g.Rows[j]), len(w.Rows[j]))
			}
			for k := range w.Rows[j] {
				if !valueBitsEqual(g.Rows[j][k], w.Rows[j][k]) {
					t.Fatalf("%s: relation %s row %d col %d = %v, want %v", label, w.Name, j, k, g.Rows[j][k], w.Rows[j][k])
				}
			}
		}
	}
}

// instanceOf materializes the state's relations as an engine instance.
func instanceOf(st *ScenarioState) *engine.Instance {
	db := engine.NewInstance(st.Name)
	for _, rs := range st.Relations {
		rel := engine.NewRelation(rs.Name, rs.Columns)
		rel.Rows = append([]engine.Tuple(nil), rs.Rows...)
		db.AddRelation(rel)
	}
	return db
}

const testQuery = "SELECT a FROM T WHERE b = 2"

// evalState evaluates the fixture query over the state.
func evalState(t *testing.T, st *ScenarioState, method core.Method) *core.Result {
	t.Helper()
	q, err := query.Parse("q", st.Target, testQuery)
	if err != nil {
		t.Fatal(err)
	}
	res, err := core.NewEvaluator(instanceOf(st), st.Mappings).Evaluate(q, core.Options{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	return res
}

// sameAnswers asserts bit-identical results.
func sameAnswers(t *testing.T, label string, want, got *core.Result) {
	t.Helper()
	if len(want.Answers) != len(got.Answers) {
		t.Fatalf("%s: %d answers, want %d", label, len(got.Answers), len(want.Answers))
	}
	for i := range want.Answers {
		w, g := want.Answers[i], got.Answers[i]
		if !w.Tuple.EqualKey(g.Tuple) || w.Prob != g.Prob {
			t.Fatalf("%s: answer %d = %v@%v, want %v@%v", label, i, g.Tuple, g.Prob, w.Tuple, w.Prob)
		}
	}
	if want.EmptyProb != got.EmptyProb {
		t.Fatalf("%s: empty prob %v, want %v", label, got.EmptyProb, want.EmptyProb)
	}
}

// openTestStore opens a store over the FS with fsync on and auto-snapshots
// off (tests trigger snapshots explicitly).
func openTestStore(t *testing.T, fsys FS) *Store {
	t.Helper()
	st, err := Open("data", Options{FS: fsys, Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// mutate runs a canonical mutation sequence against both the log and the
// in-memory state: three appends, a bump, two more appends.
func mutate(t *testing.T, log *Log, cur *ScenarioState) {
	t.Helper()
	appendRow := func(rel string, row engine.Tuple) {
		t.Helper()
		epoch := cur.Epoch + 1
		if err := log.AppendRows(rel, []engine.Tuple{row}, epoch); err != nil {
			t.Fatal(err)
		}
		for i := range cur.Relations {
			if cur.Relations[i].Name == rel {
				cur.Relations[i].Rows = append(cur.Relations[i].Rows, row)
			}
		}
		cur.Epoch = epoch
	}
	appendRow("S", sRow("added-α", 2, 9))
	appendRow("S", sRow("added-two", 5, 2))
	appendRow("W", engine.Tuple{engine.F(math.Inf(-1))})
	epoch := cur.Epoch + 1
	if err := log.Bump(epoch, epoch); err != nil {
		t.Fatal(err)
	}
	cur.Epoch, cur.StaleFloor = epoch, epoch
	appendRow("S", sRow("", 2, 2))
	appendRow("S", sRow("post-bump", 0, 2))
}

func walPath() string  { return path.Join("data", "scenarios", "test", walFile) }
func snapPath() string { return path.Join("data", "scenarios", "test", snapFile) }

func TestRegisterRecoverRoundTrip(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(10)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)

	// A fresh store over the same FS sees exactly the mutated state.
	st2 := openTestStore(t, fs)
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Quarantined) != 0 || len(rec.Scenarios) != 1 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	got := rec.Scenarios[0]
	stateEqual(t, "recovered", cur, got.State)
	if got.Replayed != 6 {
		t.Fatalf("replayed %d records, want 6 (five appends and a bump)", got.Replayed)
	}
	for _, m := range []core.Method{core.MethodBasic, core.MethodOSharing} {
		sameAnswers(t, m.String(), evalState(t, cur, m), evalState(t, got.State, m))
	}

	// The recovered log accepts appends that survive another recovery.
	if err := got.Log.AppendRows("S", []engine.Tuple{sRow("post-recovery", 2, 0)}, got.State.Epoch+1); err != nil {
		t.Fatal(err)
	}
	rec2, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if n := len(rec2.Scenarios); n != 1 {
		t.Fatalf("second recovery found %d scenarios", n)
	}
	if e := rec2.Scenarios[0].State.Epoch; e != cur.Epoch+1 {
		t.Fatalf("epoch after post-recovery append = %d, want %d", e, cur.Epoch+1)
	}
}

func TestSnapshotTruncatesWAL(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(50)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)
	grown := fs.FileSize(walPath())
	if err := log.Snapshot(cloneState(cur)); err != nil {
		t.Fatal(err)
	}
	if got := fs.FileSize(walPath()); got != len(walMagic) {
		t.Fatalf("WAL is %d bytes after snapshot, want bare %d-byte header (was %d)", got, len(walMagic), grown)
	}
	if fs.FileSize(snapPath()) <= 0 {
		t.Fatal("no snapshot file written")
	}
	if log.Records() != 0 {
		t.Fatalf("log reports %d records after snapshot", log.Records())
	}

	// Appends after the snapshot land in the fresh WAL and recovery folds
	// snapshot + tail together.
	if err := log.AppendRows("S", []engine.Tuple{sRow("tail", 2, 1)}, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}
	cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("tail", 2, 1))
	cur.Epoch++
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	stateEqual(t, "snapshot+tail", cur, rec.Scenarios[0].State)
	if rec.Scenarios[0].Replayed != 1 {
		t.Fatalf("replayed %d records, want 1 (the tail append)", rec.Scenarios[0].Replayed)
	}
}

func TestTornTailKeepsCommittedPrefix(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(10)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)
	prefix := cloneState(cur)
	if err := log.AppendRows("S", []engine.Tuple{sRow("doomed", 1, 1)}, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: cut three bytes off the file, as a crash mid-
	// append would.
	size := fs.FileSize(walPath())
	if err := fs.Truncate(walPath(), int64(size-3)); err != nil {
		t.Fatal(err)
	}

	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	stateEqual(t, "torn tail", prefix, rec.Scenarios[0].State)

	// The torn bytes are physically gone: the next append must not leave a
	// corrupt sandwich in the middle of the file.
	if err := rec.Scenarios[0].Log.AppendRows("S", []engine.Tuple{sRow("after-tear", 2, 2)}, prefix.Epoch+1); err != nil {
		t.Fatal(err)
	}
	rec2, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec2.Scenarios) != 1 || len(rec2.Quarantined) != 0 {
		t.Fatalf("post-repair recovery: %d scenarios, %d quarantined", len(rec2.Scenarios), len(rec2.Quarantined))
	}
	if e := rec2.Scenarios[0].State.Epoch; e != prefix.Epoch+1 {
		t.Fatalf("epoch after post-repair append = %d, want %d", e, prefix.Epoch+1)
	}
}

func TestCorruptRecordQuarantines(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(10)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)

	// Flip one payload byte in the middle of the file: a full-length record
	// that fails its checksum, which no crash can produce.
	if err := fs.Corrupt(walPath(), fs.FileSize(walPath())/2, 0xFF); err != nil {
		t.Fatal(err)
	}
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 0 || len(rec.Quarantined) != 1 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	q := rec.Quarantined[0]
	if q.Name != "test" || !errors.Is(q.Err, ErrCorrupt) {
		t.Fatalf("quarantined %q with %v, want test with ErrCorrupt", q.Name, q.Err)
	}
	// The files are left in place for forensics.
	if fs.FileSize(walPath()) < 0 {
		t.Fatal("quarantine removed the WAL")
	}
}

func TestCorruptSnapshotQuarantines(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(10)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)
	if err := log.Snapshot(cloneState(cur)); err != nil {
		t.Fatal(err)
	}
	if err := fs.Corrupt(snapPath(), fs.FileSize(snapPath())-1, 0x01); err != nil {
		t.Fatal(err)
	}
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 0 || len(rec.Quarantined) != 1 || !errors.Is(rec.Quarantined[0].Err, ErrCorrupt) {
		t.Fatalf("recovered %d scenarios, quarantined %v", len(rec.Scenarios), rec.Quarantined)
	}
}

func TestNewerFormatRefused(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("data"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(path.Join("data", versionFile))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintf(f, "%s%d\n", versionPrefix, FormatVersion+1)
	f.Close()
	if _, err := Open("data", Options{FS: fs}); !errors.Is(err, ErrNewerFormat) {
		t.Fatalf("Open = %v, want ErrNewerFormat", err)
	}
}

func TestGarbageVersionIsCorrupt(t *testing.T) {
	fs := NewMemFS()
	if err := fs.MkdirAll("data"); err != nil {
		t.Fatal(err)
	}
	f, err := fs.Create(path.Join("data", versionFile))
	if err != nil {
		t.Fatal(err)
	}
	fmt.Fprintln(f, "not-a-store")
	f.Close()
	if _, err := Open("data", Options{FS: fs}); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("Open = %v, want ErrCorrupt", err)
	}
}

func TestFsyncFailureIsSticky(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(5)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRows("S", []engine.Tuple{sRow("ok", 1, 1)}, 1); err != nil {
		t.Fatal(err)
	}
	fail := errors.New("disk on fire")
	fs.SyncErr = func(string) error { return fail }
	if err := log.AppendRows("S", []engine.Tuple{sRow("lost", 2, 2)}, 2); !errors.Is(err, fail) {
		t.Fatalf("append with failing fsync = %v, want wrapped %v", err, fail)
	}
	// The failure is sticky even after fsync recovers: the tail may hold a
	// partial record, and appending past it would corrupt the log.
	fs.SyncErr = nil
	if err := log.AppendRows("S", []engine.Tuple{sRow("refused", 3, 3)}, 2); err == nil {
		t.Fatal("append after fsync failure succeeded; sticky error expected")
	}
	if err := log.Err(); err == nil {
		t.Fatal("Err() is nil after fsync failure")
	}
	if n := st.PersistErrors(); n != 1 {
		t.Fatalf("PersistErrors = %d, want 1", n)
	}
	// Recovery still yields the committed prefix: the record whose fsync
	// failed is present (write-through model) and checksummed, so it may or
	// may not survive a real crash — here it does, and that is a legal
	// superset of the acknowledged prefix.
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	if e := rec.Scenarios[0].State.Epoch; e < 1 || e > 2 {
		t.Fatalf("recovered epoch %d, want 1 or 2", e)
	}
}

func TestShortReadRecoversPrefix(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(10)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	prefix := cloneState(cur)
	if err := log.AppendRows("S", []engine.Tuple{sRow("tail-row", 1, 1)}, 1); err != nil {
		t.Fatal(err)
	}
	fs.ReadHook = func(p string, data []byte) []byte {
		if p == walPath() && len(data) > 5 {
			return data[:len(data)-5] // the device serves a short read of the tail
		}
		return data
	}
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	stateEqual(t, "short read", prefix, rec.Scenarios[0].State)
}

func TestDropIsDurableAgainstCrash(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	cur := testState(5)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)

	// Crash budget: the drop record fits, the directory removal does not —
	// the worst case, where surviving files could resurrect the scenario.
	dropRecordBytes := int64(8 + 1) // frame header + one type byte
	fs.CrashAfter(dropRecordBytes)
	if err := log.Drop(); err == nil {
		t.Fatal("Drop succeeded through a crash")
	}
	rec, err := openTestStore(t, fs.Clone()).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("dropped scenario resurrected: %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
}

func TestDropRemovesScenario(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	log, err := st.Register(cloneState(testState(5)))
	if err != nil {
		t.Fatal(err)
	}
	if err := log.Drop(); err != nil {
		t.Fatal(err)
	}
	rec, err := openTestStore(t, fs).Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 0 || len(rec.Quarantined) != 0 {
		t.Fatalf("after drop: %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
}

func TestRegisterRefusesExistingData(t *testing.T) {
	fs := NewMemFS()
	st := openTestStore(t, fs)
	if _, err := st.Register(cloneState(testState(3))); err != nil {
		t.Fatal(err)
	}
	if _, err := st.Register(cloneState(testState(3))); err == nil {
		t.Fatal("second Register over live on-disk data succeeded")
	}
}

func TestOSFSRoundTrip(t *testing.T) {
	dir := t.TempDir()
	st, err := Open(dir, Options{Fsync: true, SnapshotEvery: -1})
	if err != nil {
		t.Fatal(err)
	}
	cur := testState(20)
	log, err := st.Register(cloneState(cur))
	if err != nil {
		t.Fatal(err)
	}
	mutate(t, log, cur)
	if err := log.Snapshot(cloneState(cur)); err != nil {
		t.Fatal(err)
	}
	if err := log.AppendRows("S", []engine.Tuple{sRow("on-disk", 2, 0)}, cur.Epoch+1); err != nil {
		t.Fatal(err)
	}
	cur.Relations[0].Rows = append(cur.Relations[0].Rows, sRow("on-disk", 2, 0))
	cur.Epoch++
	if err := log.Close(); err != nil {
		t.Fatal(err)
	}

	st2, err := Open(dir, Options{Fsync: true})
	if err != nil {
		t.Fatal(err)
	}
	rec, err := st2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Scenarios) != 1 || len(rec.Quarantined) != 0 {
		t.Fatalf("recovered %d scenarios, %d quarantined", len(rec.Scenarios), len(rec.Quarantined))
	}
	stateEqual(t, "osfs", cur, rec.Scenarios[0].State)
	sameAnswers(t, "osfs answers", evalState(t, cur, core.MethodOSharing), evalState(t, rec.Scenarios[0].State, core.MethodOSharing))
}
