package engine

import "sync/atomic"

// OpKind enumerates the physical operator kinds the engine records.
type OpKind int

// Operator kinds, in the order their counters are stored.
const (
	OpKindScan OpKind = iota
	OpKindSelect
	OpKindProject
	OpKindProduct
	OpKindJoin
	OpKindDistinct
	OpKindAggregate
	numOpKinds
)

// opKindNames maps OpKind to the names reported in Stats.Operators().
var opKindNames = [numOpKinds]string{
	"scan", "select", "project", "product", "join", "distinct", "aggregate",
}

// String returns the operator kind name ("select", "join", ...).
func (k OpKind) String() string {
	if k < 0 || k >= numOpKinds {
		return "unknown"
	}
	return opKindNames[k]
}

// Stats records the work done by the engine while evaluating plans.  The
// evaluation algorithms in internal/core share one Stats per query run so that
// the number of executed source operators (Table IV), rows scanned and
// intermediate tuples produced can be reported.
//
// Recording is lock-free: counters are a fixed array of atomics indexed by
// OpKind, so operators on concurrent workers never contend on a mutex.  The
// evaluation runtime still gives each worker its own Stats and merges them
// with Add when the worker's results are consumed, but recording into a
// shared collector from several goroutines is also correct.
type Stats struct {
	ops          [numOpKinds]atomic.Int64
	rowsRead     atomic.Int64
	rowsProduced atomic.Int64

	// indexBuilds and indexLookups track the shared base-relation index
	// subsystem.  They are deliberately not operator kinds: an index build
	// happens at most once per (relation, column) per instance — whichever
	// evaluation triggers it records it — so folding builds into the operator
	// totals would make those totals depend on evaluation history.  Operators
	// served from an index still record their logical kind (select, join).
	indexBuilds  atomic.Int64
	indexLookups atomic.Int64

	// Batch-engine counters.  They describe physical execution shape — how
	// many vector batches flowed, how selective the selections were — and are
	// deliberately outside the logical operator totals, which stay identical
	// across batch sizes and parallelism levels.
	batches       atomic.Int64
	selectRowsIn  atomic.Int64
	selectRowsOut atomic.Int64

	// valuesBuilt counts the values operators copied into tuples they built —
	// a projection's gather, a product's or join's pair — in either execution
	// mode.  A tuple that is a window of its input row copies nothing.  Like
	// the batch counters it is physical: it measures tuple width, which the
	// logical totals never see, and repeats exactly from run to run.
	valuesBuilt atomic.Int64
}

// NewStats returns an empty statistics collector.
func NewStats() *Stats { return &Stats{} }

// record counts one executed operator with its input/output row counts.
// Selections additionally feed the selectivity counters, so every path that
// records a logical selection — naive, materialized, batch, index-served —
// contributes to the same average.
func (s *Stats) record(op OpKind, in, out int) {
	if s == nil {
		return
	}
	s.ops[op].Add(1)
	s.rowsRead.Add(int64(in))
	s.rowsProduced.Add(int64(out))
	if op == OpKindSelect {
		s.selectRowsIn.Add(int64(in))
		s.selectRowsOut.Add(int64(out))
	}
}

// recordBatches counts vector batches emitted by batch-pipeline operators.
func (s *Stats) recordBatches(n int) {
	if s == nil || n == 0 {
		return
	}
	s.batches.Add(int64(n))
}

// recordValues counts values copied into operator-built tuples; operators call
// it once per execution, next to recordBatches, never per row.
func (s *Stats) recordValues(n int) {
	if s == nil || n == 0 {
		return
	}
	s.valuesBuilt.Add(int64(n))
}

// Record counts one executed operator of the given kind with its input and
// output row counts, for operators run outside this package: o-sharing's
// scans, whose rows the operators reading the fragment count, and its
// factorized products and counts, which read no rows.
func (s *Stats) Record(op OpKind, in, out int) { s.record(op, in, out) }

// AddRows accumulates another collector's row, value and selectivity counters
// into s but none of its operator counts: o-sharing flattens factors whose
// products it counted when it appended them, and charges only the rows.
func (s *Stats) AddRows(o *Stats) {
	if s == nil || o == nil || s == o {
		return
	}
	s.rowsRead.Add(o.rowsRead.Load())
	s.rowsProduced.Add(o.rowsProduced.Load())
	s.indexBuilds.Add(o.indexBuilds.Load())
	s.indexLookups.Add(o.indexLookups.Load())
	s.batches.Add(o.batches.Load())
	s.selectRowsIn.Add(o.selectRowsIn.Load())
	s.selectRowsOut.Add(o.selectRowsOut.Load())
	s.valuesBuilt.Add(o.valuesBuilt.Load())
}

// recordIndexBuild counts one base-relation hash-index construction.
func (s *Stats) recordIndexBuild() {
	if s == nil {
		return
	}
	s.indexBuilds.Add(1)
}

// recordIndexLookup counts one operator served from a shared index (a
// constant-equality selection probe or a join attaching the shared build).
func (s *Stats) recordIndexLookup() {
	if s == nil {
		return
	}
	s.indexLookups.Add(1)
}

// IndexBuilds returns the number of base-relation hash indexes built.
func (s *Stats) IndexBuilds() int {
	if s == nil {
		return 0
	}
	return int(s.indexBuilds.Load())
}

// IndexLookups returns the number of operators served from a shared index.
func (s *Stats) IndexLookups() int {
	if s == nil {
		return 0
	}
	return int(s.indexLookups.Load())
}

// Batches returns the number of vector batches produced by batch-pipeline
// operators.  Zero when only the materialized operators ran.
func (s *Stats) Batches() int {
	if s == nil {
		return 0
	}
	return int(s.batches.Load())
}

// ValuesBuilt returns the number of values operators copied into the tuples
// they built (projection gathers, product and join pairs).
func (s *Stats) ValuesBuilt() int {
	if s == nil {
		return 0
	}
	return int(s.valuesBuilt.Load())
}

// SelectRowsIn returns the total rows that entered selection operators.
func (s *Stats) SelectRowsIn() int {
	if s == nil {
		return 0
	}
	return int(s.selectRowsIn.Load())
}

// SelectRowsOut returns the total rows that survived selection operators.
// SelectRowsOut/SelectRowsIn is the average selectivity across selections.
func (s *Stats) SelectRowsOut() int {
	if s == nil {
		return 0
	}
	return int(s.selectRowsOut.Load())
}

// Count returns the number of executed operators of the given kind.
func (s *Stats) Count(op OpKind) int {
	if s == nil || op < 0 || op >= numOpKinds {
		return 0
	}
	return int(s.ops[op].Load())
}

// Operators returns a snapshot of executed physical operators by kind name
// ("select", "project", "product", "join", "aggregate", "distinct", "scan").
// Kinds that never executed are omitted, matching the sparse map the
// collector historically exposed.
func (s *Stats) Operators() map[string]int {
	out := make(map[string]int, int(numOpKinds))
	if s == nil {
		return out
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if n := s.ops[k].Load(); n != 0 {
			out[opKindNames[k]] = int(n)
		}
	}
	return out
}

// RowsRead returns the total number of input rows consumed by operators.
func (s *Stats) RowsRead() int {
	if s == nil {
		return 0
	}
	return int(s.rowsRead.Load())
}

// RowsProduced returns the total number of output rows produced by operators.
func (s *Stats) RowsProduced() int {
	if s == nil {
		return 0
	}
	return int(s.rowsProduced.Load())
}

// TotalOperators returns the total number of executed physical operators.
func (s *Stats) TotalOperators() int {
	if s == nil {
		return 0
	}
	n := int64(0)
	for k := OpKind(0); k < numOpKinds; k++ {
		n += s.ops[k].Load()
	}
	return int(n)
}

// Add accumulates another collector into s.
func (s *Stats) Add(o *Stats) {
	if s == nil || o == nil || s == o {
		return
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		if n := o.ops[k].Load(); n != 0 {
			s.ops[k].Add(n)
		}
	}
	s.AddRows(o)
}

// Reset clears the collector.
func (s *Stats) Reset() {
	if s == nil {
		return
	}
	for k := OpKind(0); k < numOpKinds; k++ {
		s.ops[k].Store(0)
	}
	s.rowsRead.Store(0)
	s.rowsProduced.Store(0)
	s.indexBuilds.Store(0)
	s.indexLookups.Store(0)
	s.batches.Store(0)
	s.selectRowsIn.Store(0)
	s.selectRowsOut.Store(0)
	s.valuesBuilt.Store(0)
}
