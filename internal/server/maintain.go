package server

import (
	"context"
	"sync"
	"sync/atomic"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// maintainer keeps the answer cache's maintained answers current under
// appends instead of letting each append make them miss.  It keeps no table
// of its own: a maintained answer is a cached answer that carries the delta
// state it was computed from (CachedAnswer.State), so the cache's byte budget
// bounds answers and states together, and an answer the LRU evicts is no
// longer maintained.  Every append marks its scenario dirty; one background
// goroutine drains the dirty set, and a burst of marks coalesces into however
// few passes the loop gets around to — each pass folds in everything appended
// so far.
type maintainer struct {
	srv *Server

	mu    sync.Mutex
	dirty map[string]bool

	// passMu serializes passes, the loop's and ConvergeDelta's alike: a
	// DeltaState is not safe for concurrent use.
	passMu sync.Mutex

	wake chan struct{}
	stop chan struct{}
	done chan struct{}
	once sync.Once
}

// startMaintainer launches the background loop of the server's maintainer.
func startMaintainer(srv *Server) *maintainer {
	m := &maintainer{
		srv:   srv,
		dirty: make(map[string]bool),
		wake:  make(chan struct{}, 1),
		stop:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go m.loop()
	return m
}

// markDirty queues the scenario for a pass.  Cheap and non-blocking; every
// append calls it.
func (m *maintainer) markDirty(scenario string) {
	m.mu.Lock()
	m.dirty[scenario] = true
	m.mu.Unlock()
	select {
	case m.wake <- struct{}{}:
	default:
	}
}

// halt stops the background loop and waits for the pass in flight, if any.
// Idempotent.
func (m *maintainer) halt() {
	m.once.Do(func() { close(m.stop) })
	<-m.done
}

func (m *maintainer) loop() {
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
			if sc, ok := m.srv.registry.Get(name); ok {
				m.pass(sc, sc.StaleFloor())
			}
		}
	}
}

// takeDirty pops one dirty scenario name, if any.
func (m *maintainer) takeDirty() (string, bool) {
	m.mu.Lock()
	defer m.mu.Unlock()
	for name := range m.dirty {
		delete(m.dirty, name)
		return name, true
	}
	return "", false
}

// pass applies the delta to every cached answer of the scenario that carries
// a state at or above floor — the stale floor, read as the pass starts — and
// republishes each refreshed answer at the viewed epoch.  It returns the
// number of answers republished.
//
// The whole pass runs under the scenario's read lock (View), so appends are
// excluded and the instance, the viewed epoch and the states' covered lengths
// stay mutually consistent.  A Bump is NOT excluded — it only touches epoch
// metadata — so before each publish the stale floor is checked against the
// viewed epoch: a Bump that raced the pass raised it to the viewed epoch or
// above, and the pass publishes nothing more.  Answers below the floor are
// left alone: no request can read them again, and the next evaluation of the
// same question replaces them.
func (m *maintainer) pass(sc *Scenario, floor uint64) int {
	m.passMu.Lock()
	defer m.passMu.Unlock()
	entries := m.srv.cache.maintainedEntries(sc.Name(), floor)
	if len(entries) == 0 {
		return 0
	}
	published := 0
	_ = sc.View(func(db *engine.Instance, epoch uint64) error {
		ec := exec.NewContext(context.Background(), m.srv.cfg.Parallelism)
		for _, e := range entries {
			st := e.ans.State
			if _, err := st.ApplyDelta(ec, db); err != nil {
				// Something other than an append changed a relation the state
				// covers: the answer cannot be trusted past its own epoch.
				m.srv.cache.drop(e)
				atomic.AddInt64(&m.srv.counters.DeltaDropped, 1)
				continue
			}
			if e.key.Epoch == epoch {
				continue // nothing appended since this answer was cached
			}
			if sc.StaleFloor() >= epoch {
				return nil // a Bump raced this pass
			}
			if m.srv.cache.republish(e, epoch, &CachedAnswer{Result: st.Result(), State: st}) {
				atomic.AddInt64(&m.srv.counters.DeltaApplied, 1)
				published++
			}
		}
		return nil
	})
	return published
}
