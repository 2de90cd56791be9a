package server

import (
	"encoding/json"
	"errors"
	"fmt"
	"slices"
	"sort"
	"strconv"
	"sync"
	"time"

	"github.com/probdb/urm/internal/qos"
	"github.com/probdb/urm/internal/store"
)

// LeaseConfig tunes a LeaseTable.
type LeaseConfig struct {
	// Shards is the shard count the table tracks ownership for.
	Shards int
	// Interval is the heartbeat cadence nodes are expected to keep (default
	// 2s).  The coordinator hands it back in every lease response so nodes
	// and coordinator agree without separate configuration.
	Interval time.Duration
	// MissedIntervals is how many consecutive heartbeats a node may miss
	// before its lease expires (default 3): the TTL is Interval×MissedIntervals.
	MissedIntervals int
	// Clock is the injected time source (nil = wall clock).
	Clock qos.Clock
	// Store, when non-nil, persists the table as the "leases" aux blob after
	// every change, so a restarted coordinator resumes with the ownership it
	// had — leases keep aging from their persisted last-seen times rather
	// than resetting, and shards stay routable across a coordinator restart
	// without waiting for a full heartbeat round.
	Store *store.Store
}

func (c LeaseConfig) withDefaults() LeaseConfig {
	if c.Interval <= 0 {
		c.Interval = 2 * time.Second
	}
	if c.MissedIntervals <= 0 {
		c.MissedIntervals = 3
	}
	if c.Clock == nil {
		c.Clock = qos.Wall()
	}
	return c
}

// LeaseOwner identifies the node currently owning a shard.
type LeaseOwner struct {
	Node string `json:"node"`
	Addr string `json:"addr"`
}

// leaseNode is one node's lease state.  The JSON tags are the aux-blob
// persistence format.
type leaseNode struct {
	Name       string `json:"node"`
	Addr       string `json:"addr"`
	Shards     []int  `json:"shards"`
	LastSeenNS int64  `json:"last_seen_unix_ns"`
	// Acquired is the node's position in lease seniority: among live nodes
	// claiming the same shard, the one with the smallest Acquired owns it.
	// A node whose lease expired re-acquires at the back of the line, so a
	// promoted standby keeps ownership when the old owner comes back.
	Acquired uint64 `json:"acquired"`
}

// leaseTableState is the persisted form of the table.
type leaseTableState struct {
	Seq   uint64       `json:"seq"`
	Nodes []*leaseNode `json:"nodes"`
}

// LeaseTable tracks lease-based shard ownership from node heartbeats.  A
// node's lease on the shards it claims lives for Interval×MissedIntervals
// past its last heartbeat; when several live nodes claim one shard, the most
// senior lease (earliest acquisition) owns it and the others are standbys
// that take over the moment the owner's lease expires.  Expiry is passive —
// computed against the clock at read time — so there is no background
// goroutine to leak and a FakeClock drives every transition in tests.
type LeaseTable struct {
	cfg LeaseConfig

	mu            sync.Mutex
	nodes         map[string]*leaseNode
	seq           uint64
	persistErrors int64
}

// NewLeaseTable builds a lease table, restoring persisted state when the
// config carries a store.  A corrupt lease blob is discarded rather than
// refusing to start: the table is fully reconstructible from one heartbeat
// round, and the next persist replaces the damaged blob.
func NewLeaseTable(cfg LeaseConfig) (*LeaseTable, error) {
	cfg = cfg.withDefaults()
	if cfg.Shards < 1 {
		return nil, fmt.Errorf("lease table: shard count %d < 1", cfg.Shards)
	}
	lt := &LeaseTable{cfg: cfg, nodes: make(map[string]*leaseNode)}
	if cfg.Store != nil {
		data, err := cfg.Store.LoadAux("leases")
		switch {
		case errors.Is(err, store.ErrAuxNotFound), errors.Is(err, store.ErrCorrupt):
			// Nothing persisted (or nothing usable): start empty.
		case err != nil:
			return nil, err
		default:
			var st leaseTableState
			if jerr := json.Unmarshal(data, &st); jerr == nil {
				lt.seq = st.Seq
				for _, n := range st.Nodes {
					if n.Name != "" {
						lt.nodes[n.Name] = n
					}
				}
			}
		}
	}
	return lt, nil
}

// Interval returns the configured heartbeat interval.
func (lt *LeaseTable) Interval() time.Duration { return lt.cfg.Interval }

// TTL returns how long a lease lives past its last heartbeat.
func (lt *LeaseTable) TTL() time.Duration {
	return lt.cfg.Interval * time.Duration(lt.cfg.MissedIntervals)
}

// Heartbeat records one node heartbeat: the node claims the given shards and
// its lease is renewed from the table's clock.  A node heartbeating after its
// lease expired rejoins at the back of the seniority line, so it does not
// snatch shards back from a standby that was promoted in the meantime.
func (lt *LeaseTable) Heartbeat(node, addr string, shards []int) error {
	if node == "" {
		return fmt.Errorf("lease table: empty node name")
	}
	if addr == "" {
		return fmt.Errorf("lease table: node %q: empty address", node)
	}
	for _, sh := range shards {
		if sh < 0 || sh >= lt.cfg.Shards {
			return fmt.Errorf("lease table: node %q claims shard %d, valid range [0,%d)", node, sh, lt.cfg.Shards)
		}
	}
	now := lt.cfg.Clock.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	n := lt.nodes[node]
	if n == nil {
		lt.seq++
		n = &leaseNode{Name: node, Acquired: lt.seq}
		lt.nodes[node] = n
	} else if lt.expiredLocked(n, now) {
		lt.seq++
		n.Acquired = lt.seq
	}
	n.Addr = addr
	n.Shards = append(n.Shards[:0], shards...)
	n.LastSeenNS = now.UnixNano()
	lt.persistLocked()
	return nil
}

func (lt *LeaseTable) expiredLocked(n *leaseNode, now time.Time) bool {
	return now.Sub(time.Unix(0, n.LastSeenNS)) > lt.TTL()
}

func (lt *LeaseTable) persistLocked() {
	if lt.cfg.Store == nil {
		return
	}
	st := leaseTableState{Seq: lt.seq, Nodes: make([]*leaseNode, 0, len(lt.nodes))}
	for _, n := range lt.nodes {
		st.Nodes = append(st.Nodes, n)
	}
	sort.Slice(st.Nodes, func(i, j int) bool { return st.Nodes[i].Acquired < st.Nodes[j].Acquired })
	data, err := json.Marshal(st)
	if err == nil {
		err = lt.cfg.Store.SaveAux("leases", data)
	}
	if err != nil {
		lt.persistErrors++
	}
}

// PersistErrors reports how many lease-table changes failed to reach disk.
func (lt *LeaseTable) PersistErrors() int64 {
	lt.mu.Lock()
	defer lt.mu.Unlock()
	return lt.persistErrors
}

// Owner resolves the node currently owning a shard: the live claimant with
// the most senior lease.  ok is false while no live node claims the shard.
func (lt *LeaseTable) Owner(shardIndex int) (LeaseOwner, bool) {
	now := lt.cfg.Clock.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	best := lt.ownerLocked(shardIndex, now)
	if best == nil {
		return LeaseOwner{}, false
	}
	return LeaseOwner{Node: best.Name, Addr: best.Addr}, true
}

func (lt *LeaseTable) ownerLocked(shardIndex int, now time.Time) *leaseNode {
	var best *leaseNode
	for _, n := range lt.nodes {
		if lt.expiredLocked(n, now) {
			continue
		}
		if slices.Contains(n.Shards, shardIndex) && (best == nil || n.Acquired < best.Acquired) {
			best = n
		}
	}
	return best
}

// Owners resolves every shard's current owner; shards with no live claimant
// are absent from the map.
func (lt *LeaseTable) Owners() map[int]LeaseOwner {
	now := lt.cfg.Clock.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	out := make(map[int]LeaseOwner, lt.cfg.Shards)
	for sh := 0; sh < lt.cfg.Shards; sh++ {
		if n := lt.ownerLocked(sh, now); n != nil {
			out[sh] = LeaseOwner{Node: n.Name, Addr: n.Addr}
		}
	}
	return out
}

// LeaseNodeStatus is one node's lease state in a snapshot.
type LeaseNodeStatus struct {
	Node   string  `json:"node"`
	Addr   string  `json:"addr"`
	Shards []int   `json:"shards"`
	AgeMS  float64 `json:"age_ms"`
	Live   bool    `json:"live"`
}

// LeaseSnapshot is the JSON form of the table served under /metrics.
type LeaseSnapshot struct {
	Shards     int                   `json:"shards"`
	IntervalMS float64               `json:"interval_ms"`
	TTLMS      float64               `json:"ttl_ms"`
	Owners     map[string]LeaseOwner `json:"owners"` // key: shard index
	Unowned    []int                 `json:"unowned,omitempty"`
	Nodes      []LeaseNodeStatus     `json:"nodes"`
}

// Snapshot returns a point-in-time view of the table.
func (lt *LeaseTable) Snapshot() LeaseSnapshot {
	now := lt.cfg.Clock.Now()
	lt.mu.Lock()
	defer lt.mu.Unlock()
	snap := LeaseSnapshot{
		Shards:     lt.cfg.Shards,
		IntervalMS: float64(lt.cfg.Interval.Microseconds()) / 1000,
		TTLMS:      float64(lt.TTL().Microseconds()) / 1000,
		Owners:     make(map[string]LeaseOwner, lt.cfg.Shards),
	}
	for sh := 0; sh < lt.cfg.Shards; sh++ {
		if n := lt.ownerLocked(sh, now); n != nil {
			snap.Owners[strconv.Itoa(sh)] = LeaseOwner{Node: n.Name, Addr: n.Addr}
		} else {
			snap.Unowned = append(snap.Unowned, sh)
		}
	}
	for _, n := range lt.nodes {
		snap.Nodes = append(snap.Nodes, LeaseNodeStatus{
			Node:   n.Name,
			Addr:   n.Addr,
			Shards: append([]int(nil), n.Shards...),
			AgeMS:  float64(now.Sub(time.Unix(0, n.LastSeenNS)).Microseconds()) / 1000,
			Live:   !lt.expiredLocked(n, now),
		})
	}
	sort.Slice(snap.Nodes, func(i, j int) bool { return snap.Nodes[i].Node < snap.Nodes[j].Node })
	return snap
}
