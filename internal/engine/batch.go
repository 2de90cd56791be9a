package engine

import (
	"context"
	"slices"
)

// This file is the vectorized batch pipeline, the engine's one streaming
// executor.  Operators exchange ~1024-row batches — a window of row tuples
// plus a selection vector — instead of one tuple per interface call, so the
// hot per-row work (predicate comparisons, key hashing, column gathers) runs
// in tight loops with no per-row dispatch.  The inner loops are the row-list
// entry points' own kernels (operators.go lists them), and every
// operator records the same logical statistics and produces rows in the same
// order, so results are bit-identical to the naive reference at any batch
// size.

// DefaultBatchSize is the number of rows per vector batch when the executor
// does not override it.  Large enough to amortize per-batch bookkeeping to
// noise, small enough that a batch's working set stays cache-resident.
const DefaultBatchSize = 1024

// Batch is one unit of vectorized data flow: a window of rows and a selection
// vector of live row indices.  A nil Sel means every row is live.  Batches
// handed out by a BatchSource are valid only until the source's next
// NextBatch call — operators reuse their row and selection buffers — but the
// Tuple headers may be copied out freely: the values they point at live in
// base relations or value arenas and are never overwritten.
type Batch struct {
	Rows []Tuple
	Sel  []int32
}

// NumRows returns the number of live rows in the batch.
func (b *Batch) NumRows() int {
	if b.Sel != nil {
		return len(b.Sel)
	}
	return len(b.Rows)
}

// slice returns the batch of b's live rows lo to hi.
func (b *Batch) slice(lo, hi int) Batch {
	if b.Sel != nil {
		return Batch{Rows: b.Rows, Sel: b.Sel[lo:hi:hi]}
	}
	return Batch{Rows: b.Rows[lo:hi:hi]}
}

// BatchSource is the batch pipeline's pull iterator.  NextBatch returns
// (batch, true, nil) for each non-empty batch, (nil, false, nil) at
// exhaustion, and (nil, false, err) on failure (including cancellation).
// Sources never emit empty batches: a selection that empties mid-pipeline
// advances to the next input batch instead.  A source's output name and
// column layout are fixed when its plan is compiled (program.go), so the
// operators carry neither.
type BatchSource interface {
	NextBatch() (*Batch, bool, error)
}

// batchScan windows a materialized row list into batches — the leaf of every
// batch pipeline, serving both base-relation scans (record=true, one "scan"
// recorded at exhaustion) and already-materialized inputs — a MaterialPlan's
// relation, a sharing point's cached result — which record nothing.  Row
// windows alias the backing slice; nothing is copied.
type batchScan struct {
	ctx    context.Context
	rows   []Tuple
	size   int
	stats  *Stats
	record bool

	i    int
	nbat int
	out  Batch
	done bool
}

func (s *batchScan) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.i >= len(s.rows) {
		if !s.done {
			s.done = true
			if s.record {
				s.stats.record(OpKindScan, 0, len(s.rows))
			}
			s.stats.recordBatches(s.nbat)
		}
		return nil, false, nil
	}
	hi := s.i + s.size
	if hi > len(s.rows) {
		hi = len(s.rows)
	}
	s.out = Batch{Rows: s.rows[s.i:hi]}
	s.i = hi
	s.nbat++
	return &s.out, true, nil
}

// batchFilter fuses a selection: each input batch's selection vector is
// compacted through the vectorized predicate into the filter's own buffer.
// Batches whose selection empties are skipped entirely, so downstream
// operators never see them.
type batchFilter struct {
	ctx   context.Context
	src   BatchSource
	pred  vecPredicate
	stats *Stats

	selbuf   []int32
	in, out  int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchFilter) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if !s.recorded {
				s.recorded = true
				s.stats.record(OpKindSelect, s.in, s.out)
				s.stats.recordBatches(s.nbat)
			}
			return nil, false, nil
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		s.in += b.NumRows()
		sel := s.pred.filterSel(b.Rows, b.Sel, s.selbuf[:0])
		s.selbuf = sel
		if len(sel) == 0 {
			continue // selection emptied: advance to the next input batch
		}
		s.out += len(sel)
		s.nbat++
		s.outb = Batch{Rows: b.Rows, Sel: sel}
		return &s.outb, true, nil
	}
}

// indexScan is an index-served stack of constant selections over one base
// relation scan, as compiled and shared by every run: the probe's column and
// constant, and per selection level, bottom to top, its whole predicate — for
// the scan+filter fallback — and what the probe leaves of it to evaluate, nil
// where the probe answers the level exactly.  A Filter's is a stack of one.
type indexScan struct {
	col      int
	val      probeConst
	full     []vecPredicate
	residual []vecPredicate
}

// serve answers the stack from base's shared index: it probes the index once
// for the rows whose probe column equals the constant and compacts the
// matches through each level's residual in turn, recording one "select" per
// level with the rows a filter chain fed the matches would count.  It returns
// the rows of the index and the positions of the survivors, in row order.
// ok=false, with nothing recorded, means the column's content leaves no finite
// probe set (mixed-kind columns whose Compare-equality is wider than hash
// equality) and the caller must scan instead.  It is the one probe compaction:
// Filter.Rows and batchIndexScan call it.
func (s *indexScan) serve(ctx context.Context, c *IndexCache, base *Relation, stats *Stats) (rows []Tuple, sel []int32, ok bool, err error) {
	rows, sel, ok, err = c.probeEq(ctx, base, s.col, s.val, stats)
	if !ok {
		return nil, nil, false, err
	}
	for _, residual := range s.residual {
		in := len(sel)
		if residual != nil && in > 0 {
			sel = residual.filterSel(rows, sel, sel[:0])
		}
		stats.record(OpKindSelect, in, len(sel))
	}
	return rows, sel, true, nil
}

// batchIndexScan runs an index-served stack directly above a base relation
// scan: instead of streaming every base row through the filters, it serves the
// stack from the shared per-column index once and emits the survivors size at
// a time as selections over the base rows.  Survivors are in base row order,
// so the output is bit-identical to the scan+filter pipeline it replaces.
// When the index cannot answer the constant, it runs exactly that pipeline
// instead.
type batchIndexScan struct {
	ctx   context.Context
	cache *IndexCache
	base  *Relation
	size  int
	stats *Stats
	spec  *indexScan

	started  bool
	fallback BatchSource
	rows     []Tuple
	sel      []int32 // the survivors not yet emitted
	nbat     int
	done     bool
	outb     Batch
}

func (s *batchIndexScan) NextBatch() (*Batch, bool, error) {
	if !s.started {
		s.started = true
		rows, sel, ok, err := s.spec.serve(s.ctx, s.cache, s.base, s.stats)
		if err != nil {
			return nil, false, err
		}
		if !ok {
			// Run the pipeline the stack would run without an index.
			src := BatchSource(&batchScan{ctx: s.ctx, rows: s.base.Rows, size: s.size, stats: s.stats, record: true})
			for _, p := range s.spec.full {
				src = &batchFilter{ctx: s.ctx, src: src, pred: p, stats: s.stats}
			}
			s.fallback = src
		}
		s.rows, s.sel = rows, sel
	}
	if s.fallback != nil {
		return s.fallback.NextBatch()
	}
	if len(s.sel) == 0 {
		if !s.done {
			s.done = true
			s.stats.recordBatches(s.nbat)
		}
		return nil, false, nil
	}
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	n := min(s.size, len(s.sel))
	s.outb = Batch{Rows: s.rows, Sel: s.sel[:n:n]}
	s.sel = s.sel[n:]
	s.nbat++
	return &s.outb, true, nil
}

// batchProject gathers the projected columns of each batch's live rows
// through projectRows, ProjectRows' kernel, emitting a dense
// batch (no selection vector).
type batchProject struct {
	ctx   context.Context
	src   BatchSource
	idx   []int
	stats *Stats

	outRows  []Tuple
	n        int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchProject) NextBatch() (*Batch, bool, error) {
	b, ok, err := s.src.NextBatch()
	if err != nil {
		return nil, false, err
	}
	if !ok {
		if !s.recorded {
			s.recorded = true
			s.stats.record(OpKindProject, s.n, s.n)
			s.stats.recordBatches(s.nbat)
			s.stats.recordValues(projectCopied(s.idx) * s.n)
		}
		return nil, false, nil
	}
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	// The output headers are private, so a selected batch's live headers are
	// collected into them and projected in place; a dense batch's rows (which
	// may be a base relation's) are only read.
	rows := b.Rows
	if b.Sel != nil {
		s.outRows = s.outRows[:0]
		for _, i := range b.Sel {
			s.outRows = append(s.outRows, b.Rows[i])
		}
		rows = s.outRows
	}
	if err := projectRows(s.ctx, rows, s.idx, &s.outRows); err != nil {
		return nil, false, err
	}
	s.n += len(rows)
	s.nbat++
	s.outb = Batch{Rows: s.outRows}
	return &s.outb, true, nil
}

// batchProduct is the Cartesian product: the right input is drained and
// buffered (the product's pipeline-breaking side), then each left batch is
// paired in chunks of ⌈size/|right|⌉ live rows, one output batch per chunk, so
// a batch holds fewer than size + |right| rows.  The current left batch stays
// valid across emitted output batches because the left child is only pulled
// again once the batch is consumed.  A shape with firstRight pairs each left
// row with the first right row only; one with firstLeft pairs the first left
// row only and drains the rest.
type batchProduct struct {
	ctx         context.Context
	left, right BatchSource
	shape       pairShape
	size        int
	stats       *Stats
	arena       valueArena

	started  bool
	rrows    []Tuple // the right rows paired with each left row
	rightIn  int
	lb       *Batch // the left batch being paired; nil between batches
	lo       int    // its next live row to pair
	leftIn   int
	leftDone bool // firstLeft's one left row is paired: drain the rest
	out      int
	nbat     int
	outRows  []Tuple
	outb     Batch
	done     bool
}

// liveRow returns the dense index i's row of batch b.
func liveRow(b *Batch, i int) Tuple {
	if b.Sel != nil {
		return b.Rows[b.Sel[i]]
	}
	return b.Rows[i]
}

func (s *batchProduct) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.done {
		return nil, false, nil
	}
	if !s.started {
		s.started = true
		if err := drainBatches(s.right, &s.rrows); err != nil {
			return nil, false, err
		}
		s.rightIn = len(s.rrows)
		if s.shape.firstRight && len(s.rrows) > 1 {
			s.rrows = s.rrows[:1]
		}
	}
	for s.lb == nil {
		b, ok, err := s.left.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			s.stats.record(OpKindProduct, s.leftIn+s.rightIn, s.out)
			s.stats.recordBatches(s.nbat)
			s.stats.recordValues(s.shape.copied() * s.out)
			return nil, false, nil
		}
		s.leftIn += b.NumRows()
		if len(s.rrows) > 0 && !s.leftDone {
			s.lb, s.lo = b, 0
		}
	}
	chunk := (s.size + len(s.rrows) - 1) / len(s.rrows)
	hi := min(s.lo+chunk, s.lb.NumRows())
	if s.shape.firstLeft {
		hi, s.leftDone = s.lo+1, true
	}
	left := s.lb.slice(s.lo, hi)
	s.lo = hi
	if hi == s.lb.NumRows() || s.leftDone {
		s.lb = nil
	}
	// The header list grows with the largest batch emitted, not to size up
	// front: most operator instances emit a handful of rows.
	out, err := s.shape.pairs(s.ctx, &s.arena, left, s.rrows, s.outRows[:0])
	if err != nil {
		return nil, false, err
	}
	s.outRows = out
	s.out += len(out)
	s.nbat++
	s.outb = Batch{Rows: out}
	return &s.outb, true, nil
}

// drainBatches appends every live row header of the source into *rows.
// sizeHinter is implemented by batch sources that can bound their output row
// count before producing anything.  A scan knows its exact count and filters
// and projections cannot grow their input, so the hint is an upper bound —
// drainBatches turns it into one exact-capacity allocation instead of
// geometric append growth (and the growth's copied-then-discarded garbage).
type sizeHinter interface{ sizeHint() int }

func (s *batchScan) sizeHint() int    { return len(s.rows) }
func (s *batchFilter) sizeHint() int  { return sourceSizeHint(s.src) }
func (s *batchProject) sizeHint() int { return sourceSizeHint(s.src) }

// sourceSizeHint returns src's output row bound, or -1 when unknown.
func sourceSizeHint(src BatchSource) int {
	if h, ok := src.(sizeHinter); ok {
		return h.sizeHint()
	}
	return -1
}

func drainBatches(src BatchSource, rows *[]Tuple) error {
	if *rows == nil {
		if n := sourceSizeHint(src); n > 0 {
			*rows = make([]Tuple, 0, n)
		}
	}
	return appendBatches(src, rows)
}

// appendBatches appends every live row header of the source into *rows,
// growing it as rows arrive: a drained root's size is unknown, and its bound —
// a selective filter's input — can be far larger.
func appendBatches(src BatchSource, rows *[]Tuple) error {
	for {
		b, ok, err := src.NextBatch()
		if err != nil {
			return err
		}
		if !ok {
			return nil
		}
		n := len(b.Rows)
		if b.Sel != nil {
			n = len(b.Sel)
		}
		// Grow by at least the current capacity: append alone sizes the
		// list exactly to its new length whenever one batch overflows twice
		// its capacity, so a root fed large join or product batches would
		// reallocate on nearly every batch.
		if len(*rows)+n > cap(*rows) {
			*rows = slices.Grow(*rows, max(n, cap(*rows)))
		}
		if b.Sel == nil {
			*rows = append(*rows, b.Rows...)
		} else {
			for _, i := range b.Sel {
				*rows = append(*rows, b.Rows[i])
			}
		}
	}
}

// batchJoin is the equi-join: each left batch probes a hash index over the
// build side through the probe walk, and its matches are one output batch.
// The index is built here from the drained right input, or — right nil: the
// build side is a bare or constant-filtered scan of base — it is the
// instance's shared per-column index, so h reformulated queries probing the
// same join pay one shared build instead of h; the build side's filters then
// run per probed candidate.  Chains preserve build-row order, which for the
// shared index is base row order, so the output is identical either way and to
// JoinRows'.
type batchJoin struct {
	ctx         context.Context
	left, right BatchSource
	cache       *IndexCache // shared build side only
	base        *Relation   // shared build side only
	probe       joinProbe
	stats       *Stats

	started bool
	leftIn  int
	out     int
	nbat    int
	outRows []Tuple
	outb    Batch
	done    bool
}

// start obtains the build index.
func (s *batchJoin) start() (err error) {
	p := &s.probe
	if s.right == nil {
		if p.build, err = s.cache.columnIndex(s.ctx, s.base, p.ri, s.stats); err == nil {
			s.stats.recordIndexLookup()
		}
		return err
	}
	var rrows []Tuple
	if err := drainBatches(s.right, &rrows); err != nil {
		return err
	}
	p.build, err = buildColumnHashIndex(s.ctx, rrows, p.ri)
	return err
}

// finish records the join once its probe side is exhausted.
func (s *batchJoin) finish() {
	in := s.leftIn
	if s.right != nil {
		in += len(s.probe.build.rows)
	}
	// A shared build side was never read — only probe rows count as join input
	// — and records one executed selection per level, as the scan+filter build
	// side the index replaced would have.
	if f := s.probe.filter; f != nil {
		for _, l := range f.levels {
			s.stats.record(OpKindSelect, l.in, l.out)
		}
	}
	s.stats.record(OpKindJoin, in, s.out)
	s.stats.recordBatches(s.nbat)
	s.stats.recordValues(s.probe.shape.copied() * s.out)
}

func (s *batchJoin) NextBatch() (*Batch, bool, error) {
	if err := canceled(s.ctx); err != nil {
		return nil, false, err
	}
	if s.done {
		return nil, false, nil
	}
	if !s.started {
		s.started = true
		if err := s.start(); err != nil {
			return nil, false, err
		}
	}
	for {
		b, ok, err := s.left.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			s.done = true
			s.finish()
			return nil, false, nil
		}
		s.leftIn += b.NumRows()
		// As in batchProduct, the header list grows with the largest batch
		// emitted.
		out, err := s.probe.probe(s.ctx, *b, s.outRows[:0])
		if err != nil {
			return nil, false, err
		}
		s.outRows = out
		if len(out) == 0 {
			continue // no probe row of this batch matched
		}
		s.out += len(out)
		s.nbat++
		s.outb = Batch{Rows: out}
		return &s.outb, true, nil
	}
}

// batchDistinct hashes each batch's live tuples in one pass and keeps
// first-seen rows via the shared TupleSet, emitting the survivors as a
// selection over the input batch.  Stored row headers stay valid because
// tuple values live in arenas or base relations.
type batchDistinct struct {
	ctx   context.Context
	src   BatchSource
	seen  *TupleSet
	stats *Stats

	selbuf   []int32
	hashbuf  []uint64
	in, out  int
	nbat     int
	recorded bool
	outb     Batch
}

func (s *batchDistinct) NextBatch() (*Batch, bool, error) {
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			if !s.recorded {
				s.recorded = true
				s.stats.record(OpKindDistinct, s.in, s.out)
				s.stats.recordBatches(s.nbat)
			}
			return nil, false, nil
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		s.in += b.NumRows()
		sel := s.seen.firstSeen(b.Rows, b.Sel, &s.hashbuf, s.selbuf[:0])
		s.selbuf = sel
		if len(sel) == 0 {
			continue
		}
		s.out += len(sel)
		s.nbat++
		s.outb = Batch{Rows: b.Rows, Sel: sel}
		return &s.outb, true, nil
	}
}

// batchAgg drains its input through the aggregate accumulator's batch fast
// path and emits the single result row.  Accumulation order is input order,
// so float summation is bit-identical to every other execution mode.
type batchAgg struct {
	ctx   context.Context
	src   BatchSource
	acc   aggAccumulator
	stats *Stats

	nbat    int
	emitted bool
	outb    Batch
}

func (s *batchAgg) NextBatch() (*Batch, bool, error) {
	if s.emitted {
		s.stats.recordBatches(s.nbat)
		s.nbat = 0
		return nil, false, nil
	}
	for {
		b, ok, err := s.src.NextBatch()
		if err != nil {
			return nil, false, err
		}
		if !ok {
			break
		}
		if err := canceled(s.ctx); err != nil {
			return nil, false, err
		}
		if err := s.acc.add(s.ctx, b.Rows, b.Sel); err != nil {
			return nil, false, err
		}
	}
	s.emitted = true
	s.nbat++
	s.stats.record(OpKindAggregate, s.acc.n, 1)
	s.outb = Batch{Rows: []Tuple{s.acc.result()}}
	return &s.outb, true, nil
}
