// Package delta is the incremental-maintenance reconciler: a converge-after-
// change queue that keeps cached answer distributions current under appends
// instead of invalidating them.  The serving layer enrolls a (scenario, query,
// method, strategy) entry after a successful delta-maintainable evaluation;
// every append marks the scenario dirty; a single maintenance goroutine
// coalesces bursts of marks into one delta pass per enrolled entry (the delta
// evaluation in internal/core/delta.go) and publishes each refreshed answer
// through a callback.  A Bump or Drop purges the scenario's entries — those
// events mean "something the delta cannot describe happened", and the fallback
// is the old epoch-invalidation behavior.
package delta

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// Scenario is the slice of the serving layer's scenario the maintainer needs:
// an identity, the stale floor (to refuse publishing across a concurrent
// Bump), and a read-locked view of the instance.  View must hold whatever lock
// excludes appends for the duration of f, and pass the epoch the instance
// state corresponds to.
type Scenario interface {
	Name() string
	StaleFloor() uint64
	View(f func(db *engine.Instance, epoch uint64) error) error
}

// PublishFunc receives one refreshed answer: the scenario and entry identity,
// the re-aggregated result, and the epoch whose cache key it belongs under.
type PublishFunc func(scenario, query string, method core.Method, strategy core.Strategy, res *core.Result, epoch uint64)

// Config tunes a Maintainer.
type Config struct {
	// MaxEntries caps enrolled entries per scenario; Enroll refuses past it
	// (the entry's answers then age out by epoch invalidation, exactly as if
	// it had never been maintainable).  0 means the default (256).
	MaxEntries int
	// Parallelism is the worker parallelism of each delta pass.
	Parallelism int
	// Publish is called for every refreshed entry.  Required.
	Publish PublishFunc
}

const defaultMaxEntries = 256

// entryKey identifies one maintained answer within a scenario.
type entryKey struct {
	query    string
	method   core.Method
	strategy core.Strategy
}

// entry is one enrolled (query, method, strategy) with its maintained state.
// publishedEpoch is the epoch whose cache already holds this entry's current
// answer, so convergence republishes only when the epoch moved.
type entry struct {
	key            entryKey
	state          *core.DeltaState
	publishedEpoch uint64
}

// scenState is one scenario's enrollment table.  convergeMu serializes
// convergence passes per scenario — DeltaState is not safe for concurrent
// use, and the background loop and a synchronous Converge caller must not
// apply deltas to the same entries at once.
type scenState struct {
	sc         Scenario
	convergeMu sync.Mutex
	entries    map[entryKey]*entry
}

// Maintainer is the reconciler.  One background goroutine drains a dirty set
// of scenario names; marks arriving while a scenario converges simply leave it
// dirty again, so a burst of appends coalesces into however few passes the
// loop gets around to — each pass folds in everything appended so far.
type Maintainer struct {
	cfg Config

	mu    sync.Mutex
	scens map[string]*scenState
	dirty map[string]bool

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once

	dropped atomic.Int64 // entries dropped because ApplyDelta failed
}

// New creates a stopped maintainer; call Start to begin background
// convergence (tests may drive Converge directly instead).
func New(cfg Config) *Maintainer {
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = defaultMaxEntries
	}
	return &Maintainer{
		cfg:   cfg,
		scens: make(map[string]*scenState),
		dirty: make(map[string]bool),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
}

// Start launches the background convergence goroutine.
func (m *Maintainer) Start() {
	go m.loop()
}

// Stop halts background convergence and waits for the in-flight pass (if any)
// to finish.  Idempotent.
func (m *Maintainer) Stop() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

func (m *Maintainer) loop() {
	defer close(m.done)
	for {
		select {
		case <-m.stop:
			return
		case <-m.wake:
		}
		for {
			select {
			case <-m.stop:
				return
			default:
			}
			name, ok := m.takeDirty()
			if !ok {
				break
			}
			m.Converge(name)
		}
	}
}

// takeDirty pops one dirty scenario name, if any.
func (m *Maintainer) takeDirty() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.dirty {
		delete(m.dirty, name)
		return name, true
	}
	return "", false
}

// Enroll registers one maintained entry: the state of a just-completed full
// evaluation, already published under publishedEpoch by the normal cache
// path.  It reports false when the per-scenario cap refuses the entry.
// Re-enrolling an existing key replaces its state.
func (m *Maintainer) Enroll(sc Scenario, query string, method core.Method, strategy core.Strategy, st *core.DeltaState, publishedEpoch uint64) bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	ss := m.scens[sc.Name()]
	if ss == nil {
		ss = &scenState{sc: sc, entries: make(map[entryKey]*entry)}
		m.scens[sc.Name()] = ss
	}
	k := entryKey{query: query, method: method, strategy: strategy}
	if _, ok := ss.entries[k]; !ok && len(ss.entries) >= m.cfg.MaxEntries {
		return false
	}
	ss.entries[k] = &entry{key: k, state: st, publishedEpoch: publishedEpoch}
	return true
}

// MarkDirty queues the scenario for convergence.  Cheap and non-blocking;
// every append calls it.
func (m *Maintainer) MarkDirty(name string) {
	m.mu.Lock()
	known := m.scens[name] != nil
	if known {
		m.dirty[name] = true
	}
	m.mu.Unlock()
	if !known {
		return
	}
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// Purge drops every entry of the scenario — called on Bump (the delta cannot
// describe what changed) and Drop (nothing left to maintain).
func (m *Maintainer) Purge(name string) {
	m.mu.Lock()
	defer m.mu.Unlock()
	delete(m.scens, name)
	delete(m.dirty, name)
}

// Entries returns the number of enrolled entries for the scenario.
func (m *Maintainer) Entries(name string) int {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss := m.scens[name]; ss != nil {
		return len(ss.entries)
	}
	return 0
}

// Dropped returns the count of entries dropped because their delta failed: a
// relation shrank or vanished without a Bump.  A nil maintainer dropped none.
func (m *Maintainer) Dropped() int64 {
	if m == nil {
		return 0
	}
	return m.dropped.Load()
}

// Converge runs one delta pass for every entry of the scenario, publishing
// each refreshed answer at the viewed epoch.  It is the synchronous form of
// what the background loop does and returns the number of entries published.
//
// The whole pass runs under the scenario's read lock (View), so appends are
// excluded and the instance, the viewed epoch, and the states' covered
// lengths stay mutually consistent.  A Bump is NOT excluded — it only touches
// epoch metadata — so before publishing, the stale floor is checked against
// the viewed epoch: a concurrent Bump raises the floor to an epoch above the
// view, the publish is skipped and the scenario purged (requeue-on-conflict).
func (m *Maintainer) Converge(name string) int {
	m.mu.Lock()
	ss := m.scens[name]
	m.mu.Unlock()
	if ss == nil {
		return 0
	}
	ss.convergeMu.Lock()
	defer ss.convergeMu.Unlock()
	m.mu.Lock()
	sc := ss.sc
	entries := make([]*entry, 0, len(ss.entries))
	for _, e := range ss.entries {
		entries = append(entries, e)
	}
	m.mu.Unlock()

	published := 0
	_ = sc.View(func(db *engine.Instance, epoch uint64) error {
		ec := exec.NewContext(context.Background(), m.cfg.Parallelism)
		for _, e := range entries {
			if _, err := e.state.ApplyDelta(ec, db); err != nil {
				m.dropEntry(name, e.key)
				m.dropped.Add(1)
				continue
			}
			if e.publishedEpoch == epoch {
				continue // nothing new since the last publish
			}
			if sc.StaleFloor() >= epoch {
				// A Bump raced this pass: the viewed epoch is already below
				// the stale floor, so its answers must never be served fresh.
				m.Purge(name)
				return nil
			}
			res := e.state.Result()
			m.cfg.Publish(name, e.key.query, e.key.method, e.key.strategy, res, epoch)
			e.publishedEpoch = epoch
			published++
		}
		return nil
	})
	return published
}

// dropEntry removes one entry, leaving the rest of the scenario enrolled.
func (m *Maintainer) dropEntry(name string, k entryKey) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if ss := m.scens[name]; ss != nil {
		delete(ss.entries, k)
		if len(ss.entries) == 0 {
			delete(m.scens, name)
		}
	}
}
