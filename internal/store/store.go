package store

import (
	"errors"
	"fmt"
	"io/fs"
	"net/url"
	"path"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"

	"github.com/probdb/urm/internal/engine"
)

// Sentinel errors.
var (
	// ErrCorrupt marks data that is structurally damaged beyond the torn-tail
	// pattern a crash can produce: a checksum mismatch on a whole record, an
	// impossible length, a payload that does not decode.  Recovery quarantines
	// the affected scenario rather than guessing.
	ErrCorrupt = errors.New("store: corrupt data")
	// ErrNewerFormat means the data directory was written by a newer store
	// version; opening it read-write could destroy data this build cannot
	// parse, so Open refuses.
	ErrNewerFormat = errors.New("store: data directory uses a newer format version")
)

// FormatVersion is the on-disk format this build reads and writes, recorded
// in <dir>/VERSION as "urm-store-v<N>".
const FormatVersion = 1

const (
	versionFile   = "VERSION"
	versionPrefix = "urm-store-v"
	walFile       = "wal.log"
	snapFile      = "snapshot.snap"
	snapTmpFile   = "snapshot.tmp"
)

// Options tunes Open.
type Options struct {
	// FS overrides the filesystem; nil uses the real one.  Tests inject MemFS.
	FS FS
	// Fsync syncs the WAL after every mutation record.  Off, durability of
	// appends is at the OS's discretion — recovery still yields a committed
	// prefix, just possibly a shorter one.  Registration, snapshots and drops
	// are always synced regardless; they are rare and anchor everything else.
	Fsync bool
	// SnapshotEvery is how many WAL records accumulate before the next
	// mutation triggers a snapshot that truncates the log.  0 means the
	// default (256); negative disables automatic snapshots.
	SnapshotEvery int
}

const defaultSnapshotEvery = 256

// Store is one open data directory.  It hands out one Log per scenario;
// Store itself is safe for concurrent use, each Log serializes internally.
type Store struct {
	fs            FS
	dir           string
	fsync         bool
	snapshotEvery int

	persistErrors atomic.Int64
}

// Open opens (creating if needed) the data directory and verifies its format
// version.  A directory written by a newer version fails with ErrNewerFormat;
// an unparseable VERSION file fails with ErrCorrupt.
func Open(dir string, opts Options) (*Store, error) {
	fsys := opts.FS
	if fsys == nil {
		fsys = OSFS()
	}
	every := opts.SnapshotEvery
	if every == 0 {
		every = defaultSnapshotEvery
	}
	st := &Store{fs: fsys, dir: dir, fsync: opts.Fsync, snapshotEvery: every}
	if err := fsys.MkdirAll(dir); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	if err := st.checkVersion(); err != nil {
		return nil, err
	}
	if err := fsys.MkdirAll(st.scenariosDir()); err != nil {
		return nil, fmt.Errorf("store: open %s: %w", dir, err)
	}
	return st, nil
}

// checkVersion reads <dir>/VERSION, writing it (through replaceFile) when
// the directory is fresh.  A missing VERSION with existing scenario data can
// only come from a crash before the very first version write, i.e. before any
// scenario data existed — so rewriting is safe.
func (st *Store) checkVersion() error {
	data, err := st.fs.ReadFile(path.Join(st.dir, versionFile))
	if errors.Is(err, fs.ErrNotExist) {
		version := fmt.Sprintf("%s%d\n", versionPrefix, FormatVersion)
		if err := st.replaceFile(st.dir, versionFile, versionFile+".tmp", []byte(version)); err != nil {
			return fmt.Errorf("store: write version: %w", err)
		}
		return nil
	}
	if err != nil {
		return fmt.Errorf("store: read version: %w", err)
	}
	s := strings.TrimSpace(string(data))
	rest, ok := strings.CutPrefix(s, versionPrefix)
	if !ok {
		return fmt.Errorf("%w: VERSION file %q", ErrCorrupt, s)
	}
	v, err := strconv.Atoi(rest)
	if err != nil || v < 1 {
		return fmt.Errorf("%w: VERSION file %q", ErrCorrupt, s)
	}
	if v > FormatVersion {
		return fmt.Errorf("%w: directory is %q, this build reads up to %q%d", ErrNewerFormat, s, versionPrefix, FormatVersion)
	}
	return nil
}

// replaceFile atomically replaces dir/name with data: write dir/tmp, fsync,
// close, rename over dir/name, sync dir.  A crash anywhere leaves either the
// old file or the new one, never a torn mix; a failure removes the tmp file.
// Snapshots, aux blobs and VERSION are all written through it.
func (st *Store) replaceFile(dir, name, tmp string, data []byte) error {
	tmp = path.Join(dir, tmp)
	f, err := st.fs.Create(tmp)
	if err != nil {
		return err
	}
	_, err = f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = st.fs.Rename(tmp, path.Join(dir, name))
	}
	if err != nil {
		_ = st.fs.Remove(tmp)
		return err
	}
	return st.fs.SyncDir(dir)
}

// Dir returns the data directory the store was opened with.
func (st *Store) Dir() string { return st.dir }

// Fsync reports whether per-record fsync is on.
func (st *Store) Fsync() bool { return st.fsync }

// SnapshotEvery returns the snapshot cadence in WAL records (<0 disabled).
func (st *Store) SnapshotEvery() int { return st.snapshotEvery }

// PersistErrors returns the count of persistence failures (failed appends,
// fsyncs, snapshots, drops) since the store was opened.  A non-zero count
// means some scenario logs have gone sticky-broken and stopped accepting
// mutations; served answers remain correct.
func (st *Store) PersistErrors() int64 { return st.persistErrors.Load() }

func (st *Store) scenariosDir() string { return path.Join(st.dir, "scenarios") }

func (st *Store) scenarioDir(name string) string {
	return path.Join(st.scenariosDir(), url.PathEscape(name))
}

// Register durably creates a scenario: a fresh WAL whose first record is the
// full initial state.  The record and the directory entries are fsynced
// before Register returns regardless of the fsync option — a registration
// that has been acknowledged must survive any crash.  It fails if the
// scenario already has a WAL on disk (recover or drop it first).
func (st *Store) Register(state *ScenarioState) (*Log, error) {
	if state == nil || state.Name == "" {
		return nil, fmt.Errorf("store: register: empty scenario state")
	}
	sdir := st.scenarioDir(state.Name)
	fail := func(err error) (*Log, error) {
		return nil, fmt.Errorf("store: register %s: %w", state.Name, err)
	}
	if _, err := st.fs.ReadFile(path.Join(sdir, walFile)); err == nil {
		return fail(errors.New("scenario already present on disk"))
	} else if !errors.Is(err, fs.ErrNotExist) {
		return fail(err)
	}
	// Without a WAL the directory holds no committed state, only the debris
	// of an interrupted drop or registration — recovery discards it too.  A
	// snapshot left in it must not become the base of the new WAL's replay.
	if err := st.fs.RemoveAll(sdir); err != nil {
		return fail(err)
	}
	if err := st.fs.MkdirAll(sdir); err != nil {
		return fail(err)
	}
	w, err := st.createWAL(path.Join(sdir, walFile), append([]byte(walMagic), frame(encodeState(recRegister, state))...))
	if err != nil {
		return fail(err)
	}
	err = st.fs.SyncDir(sdir)
	if err == nil {
		err = st.fs.SyncDir(st.scenariosDir())
	}
	if err != nil {
		w.Close()
		return fail(err)
	}
	return &Log{st: st, name: state.Name, dir: sdir, w: w, records: 1}, nil
}

// createWAL creates (or truncates) the WAL file at p holding data, fsynced,
// and returns it open for appending.
func (st *Store) createWAL(p string, data []byte) (File, error) {
	w, err := st.fs.Create(p)
	if err != nil {
		return nil, err
	}
	if _, err = w.Write(data); err == nil {
		err = w.Sync()
	}
	if err != nil {
		w.Close()
		return nil, err
	}
	return w, nil
}

// Log is the open WAL of one scenario.  All methods serialize on an internal
// mutex; a failed append or fsync is sticky — the file may hold a partial
// record at that point, and appending past it would turn a clean torn tail
// into checksum corruption.
type Log struct {
	st   *Store
	name string
	dir  string

	mu      sync.Mutex
	w       File
	records int   // records in the current WAL file
	err     error // sticky persistence failure
	closed  bool
}

// Name returns the scenario name the log belongs to.
func (l *Log) Name() string { return l.name }

// Err returns the sticky persistence failure, if any.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// Records returns the number of records in the current WAL file.
func (l *Log) Records() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.records
}

// ShouldSnapshot reports whether the WAL has grown past the snapshot cadence.
func (l *Log) ShouldSnapshot() bool {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.st.snapshotEvery > 0 && l.records > l.st.snapshotEvery
}

// AppendRows logs a whole batch of rows for one relation that committed as a
// single epoch step: one WAL record, one write, one fsync — the durability
// cost of the batch is that of a single row.
func (l *Log) AppendRows(relation string, rows []engine.Tuple, epoch uint64) error {
	return l.append(encodeAppendRows(epoch, relation, rows))
}

// Bump logs an epoch bump.
func (l *Log) Bump(epoch, staleFloor uint64) error {
	return l.append(encodeBump(epoch, staleFloor))
}

func (l *Log) append(payload []byte) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	if _, err := l.w.Write(frame(payload)); err != nil {
		l.failLocked(err)
		return l.err
	}
	if l.st.fsync {
		if err := l.w.Sync(); err != nil {
			l.failLocked(err)
			return l.err
		}
	}
	l.records++
	return nil
}

func (l *Log) usableLocked() error {
	if l.err != nil {
		return l.err
	}
	if l.closed || l.w == nil {
		return fmt.Errorf("store: scenario %s: log closed", l.name)
	}
	return nil
}

func (l *Log) failLocked(err error) {
	l.err = fmt.Errorf("store: scenario %s: %w", l.name, err)
	l.st.persistErrors.Add(1)
}

// Snapshot durably writes the full state and truncates the WAL.  The
// snapshot file is replaced atomically (replaceFile), so a crash anywhere
// leaves either the old or the new snapshot intact; replay of a stale WAL on
// top of a newer snapshot is idempotent because every record carries its
// epoch.  A failure before the rename leaves the log usable (the WAL still
// covers everything); a failure while rotating the WAL afterwards is sticky.
func (l *Log) Snapshot(state *ScenarioState) error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if err := l.usableLocked(); err != nil {
		return err
	}
	data := append([]byte(snapMagic), frame(encodeState(recSnapshot, state))...)
	if err := l.st.replaceFile(l.dir, snapFile, snapTmpFile, data); err != nil {
		l.st.persistErrors.Add(1)
		return fmt.Errorf("store: scenario %s: snapshot: %w", l.name, err)
	}
	// The snapshot is durable; start a fresh WAL.  From here on, failure is
	// sticky: a half-rotated WAL must not take further appends.
	if err := l.resetWALLocked(); err != nil {
		l.failLocked(err)
		return l.err
	}
	l.records = 0
	return nil
}

// resetWALLocked truncates the WAL to a bare header.  Callers hold l.mu.
func (l *Log) resetWALLocked() error {
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
	var err error
	l.w, err = l.st.createWAL(path.Join(l.dir, walFile), []byte(walMagic))
	return err
}

// Drop durably deletes the scenario: a drop record is fsynced into the WAL
// first, so a crash during the subsequent directory removal cannot resurrect
// the scenario from whichever files survived.
func (l *Log) Drop() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.closed {
		return fmt.Errorf("store: scenario %s: log closed", l.name)
	}
	if l.err == nil && l.w != nil {
		buf := frame([]byte{recDrop})
		if _, err := l.w.Write(buf); err == nil {
			_ = l.w.Sync()
		}
	}
	if l.w != nil {
		l.w.Close()
		l.w = nil
	}
	l.closed = true
	if err := l.st.fs.RemoveAll(l.dir); err != nil {
		l.st.persistErrors.Add(1)
		return fmt.Errorf("store: scenario %s: drop: %w", l.name, err)
	}
	return l.st.fs.SyncDir(l.st.scenariosDir())
}

// Close releases the WAL file handle; further mutations fail.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.closed = true
	if l.w != nil {
		err := l.w.Close()
		l.w = nil
		return err
	}
	return nil
}

// RecoveredScenario is one scenario rebuilt from disk, with its log reopened
// for appending.
type RecoveredScenario struct {
	State *ScenarioState
	Log   *Log
	// Replayed counts the WAL records applied on top of the base state
	// (snapshot or register record).
	Replayed int
}

// QuarantinedScenario is one scenario whose on-disk state recovery could not
// trust.  Its files are left untouched for forensics; the serving layer
// answers 503 for it.
type QuarantinedScenario struct {
	Name string
	Err  error
}

// Recovery is the outcome of Store.Recover.
type Recovery struct {
	Scenarios   []*RecoveredScenario
	Quarantined []QuarantinedScenario
	// ReplayedRecords sums Replayed over all recovered scenarios.
	ReplayedRecords int
}

// errGarbage marks a scenario directory with no committed state: an
// interrupted registration or an interrupted drop.  Recovery removes it.
var errGarbage = errors.New("no committed state")

// Recover scans the data directory and rebuilds every scenario: snapshot (if
// any) plus WAL tail.  A torn tail — the unique signature of a crash mid-
// append — is truncated away, keeping the committed prefix.  Anything else
// that fails validation (checksum mismatch, undecodable payload, epoch gaps)
// quarantines that one scenario; the rest recover normally.  Directories
// holding no committed state (a registration or drop that never completed)
// are removed.
func (st *Store) Recover() (*Recovery, error) {
	names, err := st.fs.ReadDir(st.scenariosDir())
	if err != nil {
		return nil, fmt.Errorf("store: recover: %w", err)
	}
	rec := &Recovery{}
	for _, dirName := range names {
		sdir := path.Join(st.scenariosDir(), dirName)
		name := dirName
		if u, err := url.PathUnescape(dirName); err == nil {
			name = u
		}
		rs, err := st.recoverScenario(name, sdir)
		switch {
		case errors.Is(err, errGarbage):
			_ = st.fs.RemoveAll(sdir)
			_ = st.fs.SyncDir(st.scenariosDir())
		case err != nil:
			rec.Quarantined = append(rec.Quarantined, QuarantinedScenario{Name: name, Err: err})
		default:
			rec.Scenarios = append(rec.Scenarios, rs)
			rec.ReplayedRecords += rs.Replayed
		}
	}
	return rec, nil
}

// recoverScenario rebuilds one scenario directory.  It returns errGarbage
// when the directory holds no committed state, or an ErrCorrupt-wrapped error
// when the state cannot be trusted (the caller quarantines).
func (st *Store) recoverScenario(name, sdir string) (*RecoveredScenario, error) {
	// A leftover snapshot.tmp is an interrupted snapshot write; the WAL still
	// covers its contents.
	_ = st.fs.Remove(path.Join(sdir, snapTmpFile))

	var base *ScenarioState
	snapData, err := st.fs.ReadFile(path.Join(sdir, snapFile))
	switch {
	case err == nil:
		base, err = decodeStateFile(snapData)
		if err != nil {
			return nil, fmt.Errorf("snapshot: %w", err)
		}
	case !errors.Is(err, fs.ErrNotExist):
		return nil, fmt.Errorf("snapshot: %w", err)
	}

	walPath := path.Join(sdir, walFile)
	walData, err := st.fs.ReadFile(walPath)
	if errors.Is(err, fs.ErrNotExist) {
		// No WAL at all.  Every committed scenario has one (rotation
		// truncates in place, never removes), so this directory is the debris
		// of an interrupted drop or registration — even if a snapshot
		// survived, the fsynced drop record preceding the removal says it is
		// dead.
		return nil, errGarbage
	} else if err != nil {
		return nil, fmt.Errorf("wal: %w", err)
	}

	r := &replayer{base: base}
	walRecords := 0
	tornAt := -1 // byte offset to truncate the WAL to; -1 = intact
	// A WAL shorter than its magic is a crash while writing the very header
	// (fresh registration or WAL rotation).  With a snapshot the state is
	// fully covered; without one, nothing was ever committed.
	rewriteHeader := len(walData) < len(walMagic)
	if !rewriteHeader {
		if string(walData[:len(walMagic)]) != walMagic {
			return nil, fmt.Errorf("wal: %w: bad magic %q", ErrCorrupt, walData[:len(walMagic)])
		}
		s := &walScan{data: walData, off: len(walMagic)}
	scan:
		for {
			payload, status := s.next()
			switch status {
			case scanEnd:
				break scan
			case scanTorn:
				tornAt = s.off
				break scan
			case scanCorrupt:
				return nil, fmt.Errorf("wal: %w", s.err)
			}
			walRecords++
			rec, err := decodeRecord(payload)
			if err == nil {
				err = r.apply(rec)
			}
			if err != nil {
				return nil, fmt.Errorf("wal: %w", err)
			}
		}
	}
	base = r.base
	if base == nil {
		return nil, errGarbage
	}
	if base.Name != name {
		return nil, fmt.Errorf("wal: %w: directory for %q holds state of %q", ErrCorrupt, name, base.Name)
	}

	// Repair the tail, then reopen for appending.
	log := &Log{st: st, name: base.Name, dir: sdir, records: walRecords}
	if rewriteHeader {
		if err := log.resetWALLocked(); err != nil {
			return nil, fmt.Errorf("wal: reopen: %w", err)
		}
	} else {
		if tornAt >= 0 {
			if err := st.fs.Truncate(walPath, int64(tornAt)); err != nil {
				return nil, fmt.Errorf("wal: truncating torn tail: %w", err)
			}
		}
		w, err := st.fs.OpenAppend(walPath)
		if err != nil {
			return nil, fmt.Errorf("wal: reopen: %w", err)
		}
		log.w = w
	}
	return &RecoveredScenario{State: base, Log: log, Replayed: r.replayed}, nil
}

// replayer folds decoded WAL records into the state recovered so far.  Every
// replay check lives in apply, once for all record types.
type replayer struct {
	base     *ScenarioState // the snapshot, or nil until the register record
	replayed int            // records applied on top of base
}

// apply folds one record into the state.  A mutation needs a registered base;
// one at or below the base's epoch is already folded in (a WAL predating its
// snapshot: crash between snapshot rename and WAL rotation); any other must be
// the base's direct successor, on a known relation, with rows of its arity.
// A drop record returns errGarbage.
func (r *replayer) apply(rec walRecord) error {
	switch {
	case rec.typ == recDrop:
		return errGarbage
	case rec.typ == recSnapshot:
		return fmt.Errorf("%w: snapshot record in the WAL", ErrCorrupt)
	case rec.typ == recRegister && r.base == nil:
		r.base = rec.state
		return nil
	case rec.typ == recRegister:
		if rec.state.Epoch > r.base.Epoch {
			return fmt.Errorf("%w: register record epoch %d above snapshot epoch %d", ErrCorrupt, rec.state.Epoch, r.base.Epoch)
		}
		return nil
	case r.base == nil:
		return fmt.Errorf("%w: record type %d before register", ErrCorrupt, rec.typ)
	case rec.epoch <= r.base.Epoch:
		return nil
	case rec.epoch != r.base.Epoch+1:
		return fmt.Errorf("%w: epoch jumps %d -> %d", ErrCorrupt, r.base.Epoch, rec.epoch)
	}
	if rec.typ == recBump {
		r.base.StaleFloor = max(r.base.StaleFloor, rec.floor)
	} else {
		i := slices.IndexFunc(r.base.Relations, func(rel RelationState) bool { return rel.Name == rec.relation })
		if i < 0 {
			return fmt.Errorf("%w: append to unknown relation %q", ErrCorrupt, rec.relation)
		}
		rel := &r.base.Relations[i]
		for _, row := range rec.rows {
			if len(row) != len(rel.Columns) {
				return fmt.Errorf("%w: relation %s row arity %d, want %d", ErrCorrupt, rel.Name, len(row), len(rel.Columns))
			}
		}
		rel.Rows = append(rel.Rows, rec.rows...)
	}
	r.base.Epoch = rec.epoch
	r.replayed++
	return nil
}

// decodeStateFile parses a snapshot file: one frame (readFrameFile) holding
// one snapshot record.
func decodeStateFile(data []byte) (*ScenarioState, error) {
	payload, err := readFrameFile(data, snapMagic)
	if err != nil {
		return nil, err
	}
	rec, err := decodeRecord(payload)
	if err != nil {
		return nil, err
	}
	if rec.typ != recSnapshot {
		return nil, fmt.Errorf("%w: record type %d in a snapshot file", ErrCorrupt, rec.typ)
	}
	return rec.state, nil
}
