// Package server is the query service layer: a registry of named scenarios, a
// byte-budgeted answer cache with singleflight semantics, and an HTTP JSON API
// with admission control.  It turns the library — one evaluation per call, one
// caller per process — into a long-lived system that amortizes work across
// requests and users, the same axis the paper amortizes across mappings.
//
// The sharing story stacks three layers deep:
//
//   - within one evaluation, the methods share work across mappings
//     (q-sharing / o-sharing, internal/core);
//   - across evaluations of one instance, the base-relation index subsystem
//     shares per-column hash indexes (internal/engine); registration warms
//     them so first queries do not pay construction;
//   - across requests, the answer cache shares whole results: N concurrent
//     identical requests cost exactly one evaluation (singleflight), repeated
//     requests cost none.
package server

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
	"github.com/probdb/urm/internal/store"
)

// Scenario is one registered, named evaluation environment: a source instance,
// a target schema and a possible-mapping set, plus a monotonically increasing
// epoch.  Query results are cached under (scenario, epoch, ...); any mutation
// of the underlying data must bump the epoch, which makes every cached answer
// for the old epoch unreachable.
//
// Mutate only through AppendRows (AppendRow is a batch of one), or Bump after
// out-of-band changes.  The engine's contract makes relation data immutable
// while an evaluation reads it, so AppendRows excludes in-flight evaluations:
// Evaluate holds mu as a reader, AppendRows as a writer.  The epoch bump then
// keeps *cached* answers honest; the lock keeps the memory safe.
type Scenario struct {
	name   string
	target *schema.Schema
	label  string
	db     *engine.Instance
	maps   schema.MappingSet

	epoch atomic.Uint64
	// staleFloor is the oldest epoch whose cached answers may still be served
	// as *stale* under overload.  AppendRows leaves it alone — an append-only
	// change keeps every earlier answer a correct answer over a prefix of the
	// data — while Bump raises it to the new epoch, because an out-of-band
	// mutation may have rewritten history and old answers with it.
	staleFloor atomic.Uint64
	// mu is the evaluation/mutation lock: evaluations (many, long) share it
	// as readers, AppendRows (rare, microseconds) takes it exclusively.
	// Writer acquisition is bounded by the request deadlines of the
	// in-flight evaluations ahead of it.
	mu sync.RWMutex

	// prepMu guards the prepared-query cache: compiled front halves keyed by
	// raw request text and by canonical SQL, both scoped to the stale floor
	// they were built under (appends keep them, a Bump rebuilds them).  A hit
	// on the raw text skips even the parse; a hit on the canonical form (a
	// differently spelled but equivalent text) skips reformulation and plan
	// compilation.
	prepMu  sync.Mutex
	prepped map[string]*preparedEntry // raw query text -> entry
	byCanon map[string]*preparedEntry // canonical SQL -> entry

	// obs receives mutation notifications (appends, bumps) after they commit
	// in memory; the server uses it to drive the delta maintainer and the
	// mutation metrics.  Atomic because SetObserver may race in-flight appends.
	obs atomic.Pointer[Observer]

	// persistMu makes {in-memory mutation, epoch bump, WAL record} one atomic
	// unit with respect to snapshot capture.  Without it, a snapshot running
	// between AppendRows' epoch bump and its WAL append could capture the new
	// rows under the new epoch while their own WAL record lands in the
	// rotated (truncated) log — or, worse, rows could be logged under the
	// pre-bump epoch and skipped by replay.  Lock order: persistMu before mu;
	// evaluations take only mu (read) and are never blocked by persistence.
	persistMu sync.Mutex
	// log is the scenario's durable WAL, nil when the registry has no store.
	log *store.Log

	warmBuilds int
}

// Observer receives scenario mutation notifications after the in-memory
// change committed (and before persistence, whose failures do not undo the
// change).  Implementations must be fast and non-blocking: appends call
// OnAppend while no locks are held, but on the mutation path.
type Observer interface {
	// OnAppend reports rows appended to a scenario and how many shared
	// indexes were extended in place to cover them.
	OnAppend(scenario string, rows, extendedIndexes int)
	// OnBump reports an explicit epoch invalidation.
	OnBump(scenario string)
}

func (s *Scenario) notifyAppend(rows, extended int) {
	if p := s.obs.Load(); p != nil {
		(*p).OnAppend(s.name, rows, extended)
	}
}

// preparedEntry is one compiled query: the front half (reformulations, plans,
// partitions) of every evaluation method, valid for one (scenario, stale
// floor).  The front half reads no rows, so appends leave it valid.
type preparedEntry struct {
	floor     uint64
	canonical string
	prep      *core.Prepared
}

// preparedCacheCap bounds the prepared-query cache.  The cache is a
// performance aid, not an accounting system: when an ad-hoc workload pushes
// past the cap, both maps are flushed wholesale rather than maintaining LRU
// chains on the hot path.  Re-preparing a flushed text costs microseconds;
// its next evaluation under each method rebuilds that method's front half,
// about a millisecond at h = 100 on the served fixture.
const preparedCacheCap = 1024

// Name returns the registry key of the scenario.
func (s *Scenario) Name() string { return s.name }

// TargetLabel returns the human-readable target schema label ("Excel", ...).
func (s *Scenario) TargetLabel() string { return s.label }

// Target returns the target schema queries are parsed against.
func (s *Scenario) Target() *schema.Schema { return s.target }

// DB returns the source instance.
func (s *Scenario) DB() *engine.Instance { return s.db }

// Mappings returns the possible-mapping set.
func (s *Scenario) Mappings() schema.MappingSet { return s.maps }

// Epoch returns the current epoch.  Cached answers are keyed by it.
func (s *Scenario) Epoch() uint64 { return s.epoch.Load() }

// Bump advances the epoch, invalidating every cached answer for the scenario.
// Call it after any out-of-band mutation of the instance or mapping set.  The
// stale-serve floor rises with it: answers from before an out-of-band change
// must never reappear, not even flagged stale.
//
// With a store attached the bump is logged; a persistence failure does not
// block the bump (the in-memory invalidation must win) but is sticky on the
// log — check PersistErr or the store_persist_errors metric.
func (s *Scenario) Bump() uint64 {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	e := s.epoch.Add(1)
	s.staleFloor.Store(e)
	if p := s.obs.Load(); p != nil {
		(*p).OnBump(s.name)
	}
	if s.log != nil {
		if err := s.log.Bump(e, e); err == nil {
			s.maybeSnapshotLocked()
		}
	}
	return e
}

// PersistErr returns the scenario's sticky persistence failure, if any.  A
// non-nil value means some acknowledged-in-memory mutation after the failure
// point is not durable; served answers remain correct for this process's
// lifetime.
func (s *Scenario) PersistErr() error {
	if s.log == nil {
		return nil
	}
	return s.log.Err()
}

// StaleFloor returns the oldest epoch eligible for stale-answer degradation.
// Epochs below it were invalidated by Bump (destructive change); epochs at or
// above it differ from the present only by appends.
func (s *Scenario) StaleFloor() uint64 { return s.staleFloor.Load() }

// AppendRow appends one tuple: a batch of one (AppendRows).
func (s *Scenario) AppendRow(relation string, t engine.Tuple) error {
	return s.AppendRows(relation, []engine.Tuple{t})
}

// AppendRows appends a whole batch of tuples to the named base relation as
// one atomic mutation: one evaluation-lock acquisition, one epoch bump, one
// WAL record, one fsync — the durability cost of the batch is that of a
// single row, which is what makes append-heavy workloads affordable (fsync
// dominates single-row appends by nearly two orders of magnitude).
//
// It waits for in-flight evaluations to finish (and blocks new ones for the
// microseconds the append takes), because engine relations must not mutate
// under a running scan.  Shared per-column indexes are extended in place to
// cover the new rows, so the batch invalidates neither the indexes nor —
// through the delta maintainer — maintained cached answers; the epoch bump
// handles the answer cache.  With a store attached, the batch is logged under
// the epoch its in-memory append committed at, and the whole {append, bump,
// log} sequence happens under persistMu so a concurrent snapshot sees either
// none or all of it.  A persistence failure is returned (and sticky): the
// rows are live in memory but will not survive a restart.
func (s *Scenario) AppendRows(relation string, rows []engine.Tuple) error {
	if len(rows) == 0 {
		return fmt.Errorf("scenario %s: empty append batch", s.name)
	}
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	s.mu.Lock()
	rel := s.db.Relation(relation)
	if rel == nil {
		s.mu.Unlock()
		return fmt.Errorf("scenario %s: unknown relation %q", s.name, relation)
	}
	oldLen, oldVer := len(rel.Rows), rel.Version()
	if err := rel.AppendAll(rows); err != nil {
		s.mu.Unlock()
		return err
	}
	epoch := s.epoch.Add(1)
	extended := 0
	if cache := s.db.Indexes(); cache != nil {
		extended = cache.AppendInPlace(context.Background(), rel, oldLen, oldVer)
	}
	s.mu.Unlock()
	s.notifyAppend(len(rows), extended)
	if s.log == nil {
		return nil
	}
	if err := s.log.AppendRows(relation, rows, epoch); err != nil {
		return fmt.Errorf("scenario %s: rows live in memory but not persisted: %w", s.name, err)
	}
	s.maybeSnapshotLocked()
	return nil
}

// View runs f under the scenario's evaluation lock as a reader, passing the
// instance and the epoch the locked state corresponds to.  The delta
// maintainer's passes run through here: holding the read lock for
// the whole pass keeps the relation data, the epoch, and the maintained
// states' covered row counts mutually consistent.
func (s *Scenario) View(f func(db *engine.Instance, epoch uint64) error) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	return f(s.db, s.epoch.Load())
}

// maybeSnapshotLocked snapshots when the WAL has outgrown its cadence.
// Callers hold persistMu.  A snapshot failure is not fatal here: the WAL
// still covers the full state, and the store counts the error.
func (s *Scenario) maybeSnapshotLocked() {
	if s.log.ShouldSnapshot() {
		_ = s.log.Snapshot(s.captureStateLocked())
	}
}

// SnapshotNow forces a durable snapshot (and WAL truncation) immediately.
func (s *Scenario) SnapshotNow() error {
	s.persistMu.Lock()
	defer s.persistMu.Unlock()
	if s.log == nil {
		return nil
	}
	return s.log.Snapshot(s.captureStateLocked())
}

// captureStateLocked builds the durable image of the scenario.  Callers hold
// persistMu, which excludes every mutation; the brief read lock additionally
// orders the row-slice reads against the memory model.  Tuples are shared,
// not copied — they are immutable by the engine's contract.
func (s *Scenario) captureStateLocked() *store.ScenarioState {
	st := &store.ScenarioState{
		Name:       s.name,
		Label:      s.label,
		Epoch:      s.epoch.Load(),
		StaleFloor: s.staleFloor.Load(),
		Target:     s.target,
		Mappings:   s.maps,
	}
	s.mu.RLock()
	defer s.mu.RUnlock()
	for _, name := range s.db.RelationNames() {
		rel := s.db.Relation(name)
		st.Relations = append(st.Relations, store.RelationState{
			Name:    rel.Name,
			Columns: append([]string(nil), rel.Columns...),
			Rows:    append([]engine.Tuple(nil), rel.Rows...),
		})
	}
	return st
}

// Prepare returns the compiled form of the query text, parsing, reformulating
// through every mapping and compiling plans only on first sight of the text.
// reused reports whether a cached entry was served (by raw text, skipping even
// the parse, or by canonical SQL).  Entries are scoped to the stale floor: an
// append leaves the front half valid (it reads no rows), while entries from
// before a Bump are rebuilt, so a prepared execution never mixes plans with a
// mapping set or schema an out-of-band change left behind.  A Prepare racing a
// bump keys under the floor it read.
func (s *Scenario) Prepare(text string) (prep *core.Prepared, canonical string, reused bool, err error) {
	floor := s.StaleFloor()
	s.prepMu.Lock()
	if e, ok := s.prepped[text]; ok && e.floor == floor {
		s.prepMu.Unlock()
		return e.prep, e.canonical, true, nil
	}
	s.prepMu.Unlock()

	// Parse outside the lock; the per-method reformulation inside
	// core.Prepared is lazy, so building the entry itself is cheap.
	q, err := query.Parse("q", s.target, text)
	if err != nil {
		return nil, "", false, err
	}
	canonical = q.Fingerprint()

	s.prepMu.Lock()
	defer s.prepMu.Unlock()
	if e, ok := s.byCanon[canonical]; ok && e.floor == floor {
		s.rememberLocked(text, e)
		return e.prep, e.canonical, true, nil
	}
	p, err := core.NewEvaluator(s.db, s.maps).Prepare(q)
	if err != nil {
		return nil, "", false, err
	}
	e := &preparedEntry{floor: floor, canonical: canonical, prep: p}
	s.rememberLocked(text, e)
	return e.prep, e.canonical, false, nil
}

// rememberLocked stores the entry under both keys, flushing the cache
// wholesale at the cap.  Callers hold prepMu.
func (s *Scenario) rememberLocked(text string, e *preparedEntry) {
	if s.prepped == nil || len(s.prepped) >= preparedCacheCap {
		s.prepped = make(map[string]*preparedEntry)
		s.byCanon = make(map[string]*preparedEntry)
	}
	s.prepped[text] = e
	s.byCanon[e.canonical] = e
}

// Evaluate runs a prepared query under the scenario's evaluation lock, held
// as a reader once for the whole call, so AppendRows cannot mutate relation
// data mid-scan.  With maintain set it first tries core.Prepared.Maintain,
// which runs the full evaluation keeping each group's distinct tuples and
// returns that state for the answer cache to keep beside the result.  A plan
// Maintain refuses (core.ErrNotDeltaMaintainable: aggregates, self-joins,
// top-k), like every call without maintain, is evaluated the ordinary way —
// answers taken into the aggregator or top-k's bounds, nothing kept — and
// returns no state.  Answers are bit-identical either way.
func (s *Scenario) Evaluate(ctx context.Context, prep *core.Prepared, opts core.Options, maintain bool) (*core.Result, *core.DeltaState, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if maintain {
		start := time.Now()
		st, err := prep.Maintain(opts.Context(ctx), opts)
		switch {
		case err == nil:
			res := st.Result()
			// An evaluation that ends past its deadline fails rather than
			// answering late, whether or not the deadline's timer has fired
			// (exec.Expired).
			if err := exec.Expired(ctx); err != nil {
				return nil, nil, err
			}
			res.TotalTime = time.Since(start)
			return res, st, nil
		case !errors.Is(err, core.ErrNotDeltaMaintainable):
			return nil, nil, err
		}
	}
	res, err := prep.ExecuteContext(ctx, opts)
	return res, nil, err
}

// Parse parses an ad-hoc query against the scenario's target schema.
func (s *Scenario) Parse(name, text string) (*query.Query, error) {
	return query.Parse(name, s.target, text)
}

// WarmIndexBuilds reports how many base-relation indexes registration built.
func (s *Scenario) WarmIndexBuilds() int { return s.warmBuilds }

// NumRows returns the total row count of the source instance.
func (s *Scenario) NumRows() int { return s.db.NumRows() }

// Registry holds the scenarios a server can answer queries against.  It is
// safe for concurrent use; registration is expected at startup but allowed at
// any time.  With a store attached (NewRegistryWithStore), registrations and
// mutations are written through to disk and Recover rebuilds the registry
// after a restart.
type Registry struct {
	// recoveries and replayed count the scenarios recovered from disk and the
	// WAL records replayed on top of their snapshots; first, so the atomic
	// adds are 64-bit aligned.
	recoveries, replayed int64

	mu          sync.RWMutex
	scenarios   map[string]*Scenario
	quarantined map[string]error // scenario name -> why recovery refused it
	// dropped holds the last epoch of every dropped scenario name, so a
	// scenario registered again under it starts above: no answer cached for
	// the dropped one, not even by an evaluation still in flight, can match
	// the new one's keys.
	dropped map[string]uint64

	st *store.Store

	// obs is propagated to every scenario (existing and future) by
	// SetObserver; guarded by mu.
	obs Observer
}

// SetObserver installs the mutation observer on the registry and every
// registered scenario; scenarios registered or recovered later inherit it.
// Passing nil clears it.
func (r *Registry) SetObserver(o Observer) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.obs = o
	for _, s := range r.scenarios {
		if o == nil {
			s.obs.Store(nil)
		} else {
			s.obs.Store(&o)
		}
	}
}

// NewRegistry returns an empty, memory-only registry.
func NewRegistry() *Registry {
	return &Registry{scenarios: make(map[string]*Scenario), quarantined: make(map[string]error), dropped: make(map[string]uint64)}
}

// NewRegistryWithStore returns a registry whose registrations and mutations
// persist to the store.  Call Recover before serving to load what disk holds.
func NewRegistryWithStore(st *store.Store) *Registry {
	r := NewRegistry()
	r.st = st
	return r
}

// Store returns the attached store, or nil for a memory-only registry.
func (r *Registry) Store() *store.Store { return r.st }

// RegisterOptions tunes Register.
type RegisterOptions struct {
	// TargetLabel is a display label for the target schema; defaults to the
	// schema's own name.
	TargetLabel string
	// WarmIndexes eagerly builds every base-relation index at registration so
	// no request pays first-build latency.  Registration is the right time to
	// pay: it is one-off, off the request path, and the paper's workload shape
	// guarantees the indexes get used by every reformulated query.
	WarmIndexes bool
}

// Register adds a scenario under the given name.  The name must be unused;
// the instance and mappings must be non-nil and valid.  A name registered
// again after Drop starts above the dropped scenario's epoch.
func (r *Registry) Register(ctx context.Context, name string, target *schema.Schema, db *engine.Instance, maps schema.MappingSet, opts RegisterOptions) (*Scenario, error) {
	if name == "" {
		return nil, fmt.Errorf("register: empty scenario name")
	}
	if target == nil {
		return nil, fmt.Errorf("register %s: nil target schema", name)
	}
	if db == nil {
		return nil, fmt.Errorf("register %s: nil instance", name)
	}
	if len(maps) == 0 {
		return nil, fmt.Errorf("register %s: empty mapping set", name)
	}
	if err := maps.Validate(); err != nil {
		return nil, fmt.Errorf("register %s: invalid mapping set: %w", name, err)
	}
	label := opts.TargetLabel
	if label == "" {
		label = target.Name
	}
	s := &Scenario{name: name, target: target, label: label, db: db, maps: maps}
	if err := s.warm(ctx, opts); err != nil {
		return nil, fmt.Errorf("register %s: %w", name, err)
	}
	r.mu.RLock()
	_, dup := r.scenarios[name]
	qerr := r.quarantined[name]
	last, wasDropped := r.dropped[name]
	r.mu.RUnlock()
	if dup {
		return nil, fmt.Errorf("register: scenario %q already registered", name)
	}
	if qerr != nil {
		// Registering over a quarantined name would truncate the damaged
		// files an operator may still want to inspect — refuse until the
		// scenario's directory is cleared out of band.
		return nil, fmt.Errorf("register: scenario %q is quarantined (%v): clear its data directory first", name, qerr)
	}
	if wasDropped {
		// The name continues above the dropped scenario's epoch and stale
		// floor, so none of its cached answers can match the new one's keys.
		s.epoch.Store(last + 1)
		s.staleFloor.Store(last + 1)
	}
	if r.st != nil {
		log, err := r.st.Register(s.captureStateLocked())
		if err != nil {
			return nil, fmt.Errorf("register %s: persisting: %w", name, err)
		}
		s.log = log
	}
	if err := r.install(s); err != nil {
		if s.log != nil {
			_ = s.log.Drop()
		}
		return nil, fmt.Errorf("register: %w", err)
	}
	return s, nil
}

// warm builds every base-relation index of the scenario's instance when the
// options ask for it, at registration and at recovery alike.
func (s *Scenario) warm(ctx context.Context, opts RegisterOptions) error {
	cache := s.db.Indexes()
	if !opts.WarmIndexes || cache == nil {
		return nil
	}
	built, err := cache.Warm(ctx, engine.NewStats())
	if err != nil {
		return fmt.Errorf("warming indexes: %w", err)
	}
	s.warmBuilds = built
	return nil
}

// install makes the scenario servable under its name, handing it the
// registry's observer, unless the name is taken.
func (r *Registry) install(s *Scenario) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	if _, dup := r.scenarios[s.name]; dup {
		return fmt.Errorf("scenario %q already registered", s.name)
	}
	if r.obs != nil {
		o := r.obs
		s.obs.Store(&o)
	}
	r.scenarios[s.name] = s
	return nil
}

// Drop removes a scenario from the registry and, with a store attached,
// durably deletes its on-disk state.
func (r *Registry) Drop(name string) error {
	r.mu.Lock()
	s, ok := r.scenarios[name]
	if ok {
		delete(r.scenarios, name)
		r.dropped[name] = s.Epoch()
	}
	r.mu.Unlock()
	if !ok {
		return fmt.Errorf("drop: unknown scenario %q", name)
	}
	if s.log != nil {
		return s.log.Drop()
	}
	return nil
}

// RecoveryStats summarizes one Recover call.
type RecoveryStats struct {
	// Scenarios is how many scenarios were rebuilt from disk.
	Scenarios int
	// ReplayedRecords is how many WAL records were applied on top of
	// snapshots and register records.
	ReplayedRecords int
	// Quarantined lists scenarios whose on-disk state could not be trusted,
	// sorted by name.  They answer 503 until an operator intervenes.
	Quarantined []string
	// Elapsed is wall-clock recovery time, index warming included.
	Elapsed time.Duration
}

// Recover loads every scenario the store holds: snapshot plus WAL tail,
// index warm-up (when opts.WarmIndexes), quarantine bookkeeping for anything
// corrupt.  Call it once, before serving; on a memory-only registry it is a
// no-op.  Scenario-level damage never fails Recover — it quarantines; only
// store-wide problems (unreadable directory, context cancellation during
// warming) are returned as errors.
func (r *Registry) Recover(ctx context.Context, opts RegisterOptions) (*RecoveryStats, error) {
	stats := &RecoveryStats{}
	if r.st == nil {
		return stats, nil
	}
	start := time.Now()
	rec, err := r.st.Recover()
	if err != nil {
		return nil, err
	}
	quarantined := rec.Quarantined
	for _, rs := range rec.Scenarios {
		s, err := scenarioFromState(rs.State, rs.Log)
		if err != nil {
			quarantined = append(quarantined, store.QuarantinedScenario{Name: rs.State.Name, Err: err})
			continue
		}
		if err := s.warm(ctx, opts); err != nil {
			return nil, fmt.Errorf("recover %s: %w", s.name, err)
		}
		if err := r.install(s); err != nil {
			return nil, fmt.Errorf("recover: %w", err)
		}
		stats.Scenarios++
		stats.ReplayedRecords += rs.Replayed
	}
	r.mu.Lock()
	for _, q := range quarantined {
		r.quarantined[q.Name] = q.Err
		stats.Quarantined = append(stats.Quarantined, q.Name)
	}
	r.mu.Unlock()
	sort.Strings(stats.Quarantined)
	atomic.AddInt64(&r.recoveries, int64(stats.Scenarios))
	atomic.AddInt64(&r.replayed, int64(stats.ReplayedRecords))
	stats.Elapsed = time.Since(start)
	return stats, nil
}

// scenarioFromState rebuilds a servable scenario from its durable image.
// Structural damage was already caught by the store's checksums and decoders;
// this guards the semantic contracts (valid mapping set, non-empty target)
// that registration would have enforced.
func scenarioFromState(st *store.ScenarioState, log *store.Log) (*Scenario, error) {
	if st.Target == nil || len(st.Target.Relations) == 0 {
		return nil, fmt.Errorf("%w: empty target schema", store.ErrCorrupt)
	}
	if err := st.Mappings.Validate(); err != nil {
		return nil, fmt.Errorf("%w: invalid mapping set: %v", store.ErrCorrupt, err)
	}
	db := engine.NewInstance(st.Name)
	for _, rs := range st.Relations {
		rel := engine.NewRelation(rs.Name, rs.Columns)
		rel.Rows = rs.Rows
		db.AddRelation(rel)
	}
	s := &Scenario{name: st.Name, target: st.Target, label: st.Label, db: db, maps: st.Mappings, log: log}
	s.epoch.Store(st.Epoch)
	s.staleFloor.Store(st.StaleFloor)
	return s, nil
}

// QuarantineReason returns why the named scenario is quarantined, if it is.
func (r *Registry) QuarantineReason(name string) (error, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	err, ok := r.quarantined[name]
	return err, ok
}

// QuarantinedNames returns the quarantined scenario names, sorted.
func (r *Registry) QuarantinedNames() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.quarantined))
	for name := range r.quarantined {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Recoveries returns the number of scenarios recovered from disk.
func (r *Registry) Recoveries() int64 { return atomic.LoadInt64(&r.recoveries) }

// ReplayedRecords returns the number of WAL records replayed during recovery.
func (r *Registry) ReplayedRecords() int64 { return atomic.LoadInt64(&r.replayed) }

// Get returns the named scenario.
func (r *Registry) Get(name string) (*Scenario, bool) {
	r.mu.RLock()
	defer r.mu.RUnlock()
	s, ok := r.scenarios[name]
	return s, ok
}

// Names returns the registered scenario names, sorted.
func (r *Registry) Names() []string {
	r.mu.RLock()
	defer r.mu.RUnlock()
	out := make([]string, 0, len(r.scenarios))
	for name := range r.scenarios {
		out = append(out, name)
	}
	sort.Strings(out)
	return out
}

// Len returns the number of registered scenarios.
func (r *Registry) Len() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	return len(r.scenarios)
}
