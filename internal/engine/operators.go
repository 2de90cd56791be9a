package engine

import (
	"context"
	"fmt"
	"math"
)

// checkInterval is the number of rows an operator processes between
// cancellation checks: small enough that cancelling a long-running operator
// takes effect promptly, large enough that the check cost is negligible.
const checkInterval = 4096

// canceled returns the context's error if it is done, and nil otherwise
// (including for a nil context).
func canceled(ctx context.Context) error {
	if ctx == nil {
		return nil
	}
	select {
	case <-ctx.Done():
		return ctx.Err()
	default:
		return nil
	}
}

// arenaChunkValues is the steady-state allocation unit for output tuples:
// operators that build new tuples (project, product, join), row-list or
// batch, carve them out of flat []Value chunks instead of calling make once
// per row.  arenaFirstChunk is the first chunk of an arena nobody reserved:
// most operator outputs are a handful of rows, and zeroing a full chunk for
// five of them costs more than the operator itself.
const (
	arenaChunkValues = 8192
	arenaFirstChunk  = 256
)

// valueArena bulk-allocates tuples from flat []Value chunks.  It has one
// sizing rule, for the row-list entry points and the batch pipeline alike:
// a caller that knows its output reserves it exactly (one slab, nothing left
// over); otherwise chunks start at arenaFirstChunk and quadruple up to
// arenaChunkValues, so a small output stays small and a large one costs at
// most three chunks more than fixed-size chunking would.
type valueArena struct {
	buf  []Value
	next int // size of the next unreserved chunk; 0 before the first
}

// tuple returns a zero-length-capped slice of n fresh values.
func (a *valueArena) tuple(n int) Tuple {
	if n == 0 {
		return Tuple{}
	}
	if len(a.buf) < n {
		c := a.next
		if c == 0 {
			c = arenaFirstChunk
		}
		a.next = min(c*4, arenaChunkValues)
		if c < n {
			c = n
		}
		a.buf = make([]Value, c)
	}
	t := Tuple(a.buf[:n:n])
	a.buf = a.buf[n:]
	return t
}

// reserve sizes the arena's current chunk for at least n more values when the
// caller can estimate its total output up front: an exact estimate means one
// slab and no partially used chunk left behind as dead weight.
func (a *valueArena) reserve(n int) {
	if len(a.buf) < n {
		a.buf = make([]Value, n)
	}
}

// pairShape describes the output rows of a product or join: the kept columns
// of a left row followed by the kept columns of a right row, as positions in
// the input rows.  A keep list that is a contiguous ascending run — the
// all-columns list always is — is copied rather than gathered, and when one
// side keeps nothing and the other a run (or nothing either) the output row is
// a capacity-clamped window of the input row: nothing is copied or allocated,
// on the immutable-tuple contract projectRows documents.
//
// For a consumer that reads the output as a set, the shape also decides which
// pairs can only repeat a row already built (firstLeft, firstRight).  Both
// drivers' kernels skip them and still drain and count their inputs.
type pairShape struct {
	left, right       []int
	leftRun, rightRun bool
	window            bool
	// firstLeft: a product's left side keeps nothing, so its first row stands
	// for all of them.  firstRight: a product's right side keeps nothing, or a
	// join's build side keeps nothing or only its key, so each left row pairs
	// with its first right row or match only.  The key-only join is exact
	// because sets deduplicate by EqualKey and every match's key is EqualKey
	// to the probe key, NaN payloads included; first-seen order is kept
	// because the first pair of each distinct row is the one built.
	firstLeft, firstRight bool
}

// newPairShape returns the shape keeping leftKeep of each left row and
// rightKeep of each right row.  set says the consumer reads the output as a
// set; key is a join's build-side key position in the right rows, -1 for a
// product.
func newPairShape(leftKeep, rightKeep []int, set bool, key int) pairShape {
	p := pairShape{
		left: leftKeep, right: rightKeep,
		leftRun: contiguousIdx(leftKeep), rightRun: contiguousIdx(rightKeep),
	}
	p.window = (len(rightKeep) == 0 && (p.leftRun || len(leftKeep) == 0)) || (len(leftKeep) == 0 && p.rightRun)
	if set {
		p.firstLeft = key < 0 && len(leftKeep) == 0
		p.firstRight = len(rightKeep) == 0 || key >= 0 && len(rightKeep) == 1 && rightKeep[0] == key
	}
	return p
}

// copied returns the number of values build copies per output row.
func (p *pairShape) copied() int {
	if p.window {
		return 0
	}
	return len(p.left) + len(p.right)
}

// build returns the output row for the pair (lr, rr).
func (p *pairShape) build(a *valueArena, lr, rr Tuple) Tuple {
	if p.window {
		switch {
		case len(p.left) > 0:
			j0, j1 := p.left[0], p.left[0]+len(p.left)
			return lr[j0:j1:j1]
		case len(p.right) > 0:
			j0, j1 := p.right[0], p.right[0]+len(p.right)
			return rr[j0:j1:j1]
		default:
			return Tuple{}
		}
	}
	t := a.tuple(len(p.left) + len(p.right))
	gatherColumns(t[:len(p.left)], lr, p.left, p.leftRun)
	gatherColumns(t[len(p.left):], rr, p.right, p.rightRun)
	return t
}

func gatherColumns(dst, src Tuple, keep []int, run bool) {
	if run {
		copy(dst, src[keep[0]:])
		return
	}
	for c, j := range keep {
		dst[c] = src[j]
	}
}

// mulFits returns a·b when the product stays within limit.
func mulFits(a, b, limit int) (int, bool) {
	if a == 0 || b == 0 {
		return 0, true
	}
	if a > limit/b {
		return 0, false
	}
	return a * b, true
}

// The entry points below — a compiled Filter or Aggregation, ProjectRows,
// ProductRows, JoinRows and DistinctRows — take column positions and move row
// lists, recording one operator execution each.  They are the o-sharing
// evaluator's operators: its fragments stay materialized so partially executed
// state can be shared across e-units, and it binds them once, when it plans
// its u-trace.  They see their whole input, so they size their output once
// (DESIGN.md "Execution model"), and they call the batch pipeline's kernels —
// the index-served stack, vectorized predicates, the probe walk, the pair
// walk, aggregate fold, dedupe, projection gather and bucket threading — once
// over their whole input, so they produce the results and statistics the
// pipeline does.

// selectRows returns the rows satisfying the compiled predicate, in order; nil
// when none does.  It records nothing.
func selectRows(ctx context.Context, rows []Tuple, vp vecPredicate) ([]Tuple, error) {
	// Filter the whole relation into one selection vector first (pointer-free,
	// so it is nearly invisible to the GC), then allocate the output row list
	// at its exact final size: no growth reallocations, no over-allocation.
	// Each block's survivors are filtered into the vector's free tail, which
	// has room for every row, and rebased from block to relation positions.
	sel := make([]int32, 0, len(rows))
	for lo := 0; lo < len(rows); lo += checkInterval {
		if lo > 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		hi := lo + checkInterval
		if hi > len(rows) {
			hi = len(rows)
		}
		n := len(sel)
		sel = append(sel, vp.filterSel(rows[lo:hi], nil, sel[n:n])...)
		if lo > 0 {
			for k := n; k < len(sel); k++ {
				sel[k] += int32(lo)
			}
		}
	}
	return gatherRows(rows, sel), nil
}

// gatherRows returns the rows sel indexes, in order, at their exact size; nil
// when sel is empty.
func gatherRows(rows []Tuple, sel []int32) []Tuple {
	if len(sel) == 0 {
		return nil
	}
	out := make([]Tuple, len(sel))
	for k, i := range sel {
		out[k] = rows[i]
	}
	return out
}

// ProjectRows returns the columns at positions idx of every row, recording
// one projection.  The positions must lie within every row.
func ProjectRows(ctx context.Context, rows []Tuple, idx []int, stats *Stats) ([]Tuple, error) {
	var out []Tuple
	if err := projectRows(ctx, rows, idx, &out); err != nil {
		return nil, err
	}
	stats.record(OpKindProject, len(rows), len(out))
	stats.recordValues(projectCopied(idx) * len(out))
	return out, nil
}

// ColumnPositions resolves names against the column list cols as a Relation
// with those columns would, failing on the first that does not resolve.
func ColumnPositions(cols, names []string) ([]int, error) {
	idx, _, err := resolveProjection(colLayout{cols: cols}, names)
	return idx, err
}

// resolveProjection resolves a projection's columns against its input: the
// tuple position of each and the name it carries in the output.
func resolveProjection(in colLayout, columns []string) (idx []int, outCols []string, err error) {
	idx = make([]int, len(columns))
	outCols = make([]string, len(columns))
	for i, c := range columns {
		j := lookupColumn(in.cols, c)
		if j < 0 {
			return nil, nil, fmt.Errorf("project: column %q not found in %v", c, in.cols)
		}
		idx[i] = in.mustAt(j)
		outCols[i] = in.cols[j]
	}
	return idx, outCols, nil
}

// projectCopied returns the number of values a projection onto idx copies per
// row: none when the columns are one window of the input row.
func projectCopied(idx []int) int {
	if contiguousIdx(idx) {
		return 0
	}
	return len(idx)
}

// contiguousIdx reports whether the projection indices are a contiguous
// ascending run of source columns, the shape the zero-copy window path serves.
func contiguousIdx(idx []int) bool {
	for c := 1; c < len(idx); c++ {
		if idx[c] != idx[0]+c {
			return false
		}
	}
	return len(idx) > 0
}

// projectRows gathers the idx columns of every input row into *out, sized
// exactly: one value slab and one row-header slab for the whole input, no
// growth reallocations.  The one- and two-column widths — virtually every
// projection the reformulated workloads produce — run specialized loops.  It
// is the one projection kernel: ProjectRows, the plan driver's root
// projection and every batch of batchProject run it.
//
// When the requested columns are a contiguous run in source order (every
// single-column projection is), no values move at all: each output tuple is a
// capacity-clamped subslice of its input row.  Tuples are immutable once
// built — the batch pipeline already aliases base-relation rows into batches
// on the same contract — so sharing the value backing is observationally
// identical to copying it.  The full slice expression pins cap to the window,
// keeping any later append from writing into the source row's other columns.
func projectRows(ctx context.Context, rows []Tuple, idx []int, out *[]Tuple) error {
	n := len(rows)
	if n == 0 {
		return nil
	}
	k := len(idx)
	// Reuse the caller's slice when it has the capacity — the plan driver
	// hands back the drained (private) header slice so a root projection
	// rewrites headers in place, and batchProject its own header buffer.
	// Headers are copied into locals before their slot is overwritten, and
	// the value backing is never written, so dst may alias rows.
	dst := *out
	if cap(dst) >= n {
		dst = dst[:n]
	} else {
		dst = make([]Tuple, n)
	}
	*out = dst
	if k == 0 {
		for i := range dst {
			dst[i] = Tuple{}
		}
		return nil
	}
	if contiguousIdx(idx) {
		j0, j1 := idx[0], idx[0]+k
		for lo := 0; lo < n; lo += checkInterval {
			if lo > 0 {
				if err := canceled(ctx); err != nil {
					return err
				}
			}
			hi := lo + checkInterval
			if hi > n {
				hi = n
			}
			for i := lo; i < hi; i++ {
				dst[i] = rows[i][j0:j1:j1]
			}
		}
		return nil
	}
	flat := make([]Value, k*n)
	for lo := 0; lo < n; lo += checkInterval {
		if lo > 0 {
			if err := canceled(ctx); err != nil {
				return err
			}
		}
		hi := lo + checkInterval
		if hi > n {
			hi = n
		}
		off := lo * k
		switch k {
		case 1:
			j0 := idx[0]
			for i := lo; i < hi; i++ {
				t := Tuple(flat[off : off+1 : off+1])
				t[0] = rows[i][j0]
				dst[i] = t
				off++
			}
		case 2:
			j0, j1 := idx[0], idx[1]
			for i := lo; i < hi; i++ {
				t := Tuple(flat[off : off+2 : off+2])
				row := rows[i]
				t[0] = row[j0]
				t[1] = row[j1]
				dst[i] = t
				off += 2
			}
		default:
			for i := lo; i < hi; i++ {
				row := rows[i]
				t := Tuple(flat[off : off+k : off+k])
				for c, j := range idx {
					t[c] = row[j]
				}
				dst[i] = t
				off += k
			}
		}
	}
	return nil
}

// maxPresizeValues bounds the output an operator sizes up front: beyond it
// (or when rows·width overflows int) the output grows as rows arrive instead.
const maxPresizeValues = 1 << 31

// ProductRows is the Cartesian product of row lists, left-major, recording
// one product.  It emits only the columns at positions leftKeep of each left
// row followed by those at rightKeep of each right row — row for row what a
// projection of the full product onto those columns would yield, without
// ever building the dropped columns; the positions must lie within every row
// of their side.  With set, the caller reads the output as a set: a side of
// which nothing is kept contributes its first row only, so the output holds
// the same distinct rows in the same first-seen order without their repeats.
// The row list and the value arena are sized exactly from the pairs built
// times the values copied; a product too large to size up front (the count
// overflows, or exceeds maxPresizeValues) grows geometrically instead, so it
// stays cancellable before it exhausts memory.
func ProductRows(ctx context.Context, left, right []Tuple, leftKeep, rightKeep []int, set bool, stats *Stats) ([]Tuple, error) {
	shape := newPairShape(leftKeep, rightKeep, set, -1)
	lrows, rrows := left, right
	if shape.firstLeft && len(lrows) > 1 {
		lrows = lrows[:1]
	}
	if shape.firstRight && len(rrows) > 1 {
		rrows = rrows[:1]
	}
	var out []Tuple
	var arena valueArena
	if n, ok := mulFits(len(lrows), len(rrows), maxPresizeValues); ok && n > 0 {
		if values, ok := mulFits(n, shape.copied(), maxPresizeValues); ok {
			out = make([]Tuple, 0, n)
			arena.reserve(values)
		}
	}
	out, err := shape.pairs(ctx, &arena, Batch{Rows: lrows}, rrows, out)
	if err != nil {
		return nil, err
	}
	stats.record(OpKindProduct, len(left)+len(right), len(out))
	stats.recordValues(shape.copied() * len(out))
	return out, nil
}

// pairs appends to out the pair of each live row of left with every right
// row, left-major, and returns it.  It is the one pair walk: ProductRows runs
// it over its whole left input, batchProduct over each chunk of a left batch.
func (p *pairShape) pairs(ctx context.Context, a *valueArena, left Batch, rrows []Tuple, out []Tuple) ([]Tuple, error) {
	produced := 0
	for i, n := 0, left.NumRows(); i < n; i++ {
		lr := liveRow(&left, i)
		for _, rr := range rrows {
			produced++
			if produced%checkInterval == 0 {
				if err := canceled(ctx); err != nil {
					return nil, err
				}
			}
			out = append(out, p.build(a, lr, rr))
		}
	}
	return out, nil
}

// JoinRows is the equi-join of row lists on left[li] = right[ri], emitting
// the leftKeep columns of each matching left row followed by the rightKeep
// columns of its right row, and recording one join; set is newPairShape's.
// The key and keep positions must lie within every row of their side.  base
// is the relation right is an untouched scan of, or nil: when cache serves it,
// the build table is the instance's shared per-column index; otherwise it is
// built here from the right rows.
func JoinRows(ctx context.Context, left, right []Tuple, li, ri int, leftKeep, rightKeep []int, set bool, stats *Stats, cache *IndexCache, base *Relation) ([]Tuple, error) {
	p := joinProbe{li: li, ri: ri, shape: newPairShape(leftKeep, rightKeep, set, ri)}
	shared := cache.serves(base)
	var err error
	if shared {
		if p.build, err = cache.columnIndex(ctx, base, ri, stats); err != nil {
			return nil, err
		}
		stats.recordIndexLookup()
	} else if p.build, err = buildColumnHashIndex(ctx, right, ri); err != nil {
		return nil, err
	}
	// Seed the output at the no-duplicate-keys estimate: at most one match per
	// probe and at most one per build row, so the smaller side bounds the
	// duplicate-free output.  Joins at or under it never reallocate; larger
	// outputs fall back to geometric growth.  The arena is reserved to the
	// same estimate, so the common foreign-key shape fills exactly one value
	// slab instead of leaving a partially used chunk behind.
	var out []Tuple
	if len(left) > 0 && len(p.build.rows) > 0 {
		seed := min(len(left), len(p.build.rows))
		out = make([]Tuple, 0, seed)
		if values, ok := mulFits(seed, p.shape.copied(), maxPresizeValues); ok {
			p.arena.reserve(values)
		}
	}
	if out, err = p.probe(ctx, Batch{Rows: left}, out); err != nil {
		return nil, err
	}
	if shared {
		// The build side was not read: only the probe rows count as input.
		stats.record(OpKindJoin, len(left), len(out))
	} else {
		stats.record(OpKindJoin, len(left)+len(right), len(out))
	}
	stats.recordValues(p.shape.copied() * len(out))
	return out, nil
}

// resolveJoinKeys resolves a join's key columns to tuple positions in its two
// inputs.
func resolveJoinKeys(left, right colLayout, leftCol, rightCol string) (li, ri int, err error) {
	if li = left.resolve(leftCol); li < 0 {
		return 0, 0, fmt.Errorf("join: column %q not found in %v", leftCol, left.cols)
	}
	if ri = right.resolve(rightCol); ri < 0 {
		return 0, 0, fmt.Errorf("join: column %q not found in %v", rightCol, right.cols)
	}
	return li, ri, nil
}

// joinProbe is one execution of a hash join's probe side: the build table,
// the key positions, the output shape and its arena, and — when the build
// table is the shared index over a base relation the join reads through
// constant selections — the filter those selections make of it.
type joinProbe struct {
	build  *hashIndex
	li, ri int
	shape  pairShape
	arena  valueArena
	filter *buildFilter
}

// probe appends to out the joined rows of the live rows of left and returns
// it.  It is the one probe walk: JoinRows runs it over its whole left input,
// batchJoin over each left batch.  Probe-key hashes are precomputed one block
// at a time in the batch FNV-1a pass, and chain entries whose stored hash
// differs are rejected without touching the candidate row.  Chains preserve
// build-row order, so the output is identical whether the build table was
// built here or shared.  A shape with firstRight ends each probe row's walk at
// its first match that survives the build side's selections.
func (p *joinProbe) probe(ctx context.Context, left Batch, out []Tuple) ([]Tuple, error) {
	hashes := make([]uint64, DefaultBatchSize)
	heads := make([]int32, DefaultBatchSize)
	build, li, ri := p.build, p.li, p.ri
	bnext, bhashes, brows := build.next, build.hashes, build.rows
	probed := 0
	for lo, n := 0, left.NumRows(); lo < n; lo += DefaultBatchSize {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		hi := min(lo+DefaultBatchSize, n)
		block := left.slice(lo, hi)
		if block.Sel != nil {
			hashColumnSel(block.Rows, li, block.Sel, hashes[:hi-lo])
		} else {
			hashColumn(block.Rows, li, hashes[:hi-lo])
		}
		// Gather the bucket heads in their own pass: the masked loads are
		// independent, so the out-of-order window overlaps their cache misses
		// instead of serializing them behind each probe's chain walk.
		for i := range hi - lo {
			heads[i] = build.lookup(hashes[i])
		}
		for i := range hi - lo {
			j := heads[i]
			if j == 0 {
				continue // empty bucket: no candidate shares the hash prefix
			}
			lr := liveRow(&block, i)
			v := lr[li]
			h := hashes[i]
			for ; j != 0; j = bnext[j-1] {
				probed++
				if probed%checkInterval == 0 {
					if err := canceled(ctx); err != nil {
						return nil, err
					}
				}
				if bhashes[j-1] != h {
					continue // bucket collision: different hash entirely
				}
				rr := brows[j-1]
				if !rr[ri].EqualKey(v) {
					continue // hash collision, not an actual match
				}
				if p.filter != nil && !p.filter.keep(brows, j-1) {
					continue // filtered out of the build side
				}
				out = append(out, p.shape.build(&p.arena, lr, rr))
				if p.shape.firstRight {
					break
				}
			}
		}
	}
	return out, nil
}

// buildFilter is a shared-index build side's selections, bottom to top, with
// each level's rows in and out on one run.
type buildFilter struct {
	preds  []vecPredicate
	levels []levelCounts
	cand   [1]int32 // keep's selection vector
}

// levelCounts is one selection level's rows in and out on one run.
type levelCounts struct{ in, out int }

// keep runs build row i through the selections as a one-row selection vector,
// counting each level's rows in and out exactly as a chain of filters would.
func (f *buildFilter) keep(rows []Tuple, i int32) bool {
	sel := f.cand[:]
	sel[0] = i
	for k, pred := range f.preds {
		l := &f.levels[k]
		l.in++
		if len(pred.filterSel(rows, sel, sel[:0])) == 0 {
			return false
		}
		l.out++
	}
	return true
}

// DistinctRows removes duplicate rows, preserving first-seen order, and
// records one distinct.  Duplicate detection is hash-based (Hash64/EqualKey).
func DistinctRows(ctx context.Context, rows []Tuple, stats *Stats) ([]Tuple, error) {
	var out []Tuple
	seen := NewTupleSet(len(rows))
	var hashes []uint64
	var kept []int32
	for lo := 0; lo < len(rows); lo += DefaultBatchSize {
		if lo > 0 {
			if err := canceled(ctx); err != nil {
				return nil, err
			}
		}
		block := rows[lo:min(lo+DefaultBatchSize, len(rows))]
		kept = seen.firstSeen(block, nil, &hashes, kept[:0])
		for _, i := range kept {
			out = append(out, block[i])
		}
	}
	stats.record(OpKindDistinct, len(rows), len(out))
	return out, nil
}

// AggFunc enumerates aggregate functions.
type AggFunc int

// Aggregate functions supported by the workloads (COUNT and SUM are the ones
// used by the paper's queries; AVG/MIN/MAX round out the engine).
const (
	AggCount AggFunc = iota
	AggSum
	AggAvg
	AggMin
	AggMax
)

// String returns the SQL spelling of the aggregate.
func (f AggFunc) String() string {
	switch f {
	case AggCount:
		return "COUNT"
	case AggSum:
		return "SUM"
	case AggAvg:
		return "AVG"
	case AggMin:
		return "MIN"
	case AggMax:
		return "MAX"
	default:
		return fmt.Sprintf("AggFunc(%d)", int(f))
	}
}

// validAggFunc rejects aggregate functions outside the supported set.
func validAggFunc(fn AggFunc) error {
	switch fn {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
		return nil
	default:
		return fmt.Errorf("aggregate: unsupported function %v", fn)
	}
}

// aggOutputColumn names the single result column of an aggregate.
func aggOutputColumn(fn AggFunc, column string) string {
	if column != "" {
		return fn.String() + "(" + column + ")"
	}
	return fn.String()
}

// aggAccumulator folds rows into a single aggregate value.  Both
// Aggregation.Row and the batch pipeline's batchAgg drive it, so the
// COUNT/SUM/AVG/MIN/MAX semantics — error strings, the NULL-on-empty rules —
// exist exactly once.  SUM and AVG add exactly and round once, so their value
// does not depend on the order rows arrive in.
type aggAccumulator struct {
	fn     AggFunc
	idx    int    // value column position; -1 for COUNT
	column string // display name, for error messages
	n      int
	sum    exactSum
	numIn  int
	best   Value
}

// identitySel is the selection 0, 1, …, checkInterval-1: a dense input is
// folded through it one checkInterval block at a time, so the selected and the
// dense input share one loop per aggregate function.
var identitySel = func() []int32 {
	sel := make([]int32, checkInterval)
	for i := range sel {
		sel[i] = int32(i)
	}
	return sel
}()

// add folds the live rows of rows — those sel indexes, or all of them when sel
// is nil.  Aggregation.Row and the batch pipeline's batchAgg both drive it.  A dense input is read in checkInterval blocks with a
// cancellation check between them; a selection is bounded by the batch size,
// so the caller's per-batch check keeps it prompt.
func (a *aggAccumulator) add(ctx context.Context, rows []Tuple, sel []int32) error {
	if sel != nil {
		return a.fold(rows, sel)
	}
	for lo := 0; lo < len(rows); lo += checkInterval {
		if lo > 0 {
			if err := canceled(ctx); err != nil {
				return err
			}
		}
		hi := min(lo+checkInterval, len(rows))
		if err := a.fold(rows[lo:hi], identitySel[:hi-lo]); err != nil {
			return err
		}
	}
	return nil
}

// fold is add's kernel, one loop per aggregate function so no row pays a
// dispatch on it.  The loops accumulate into locals and read values through a
// pointer: a per-row field store or a 48-byte Value copy is measurable at scan
// speed.
func (a *aggAccumulator) fold(rows []Tuple, sel []int32) error {
	switch a.fn {
	case AggCount:
		a.n += len(sel)
	case AggSum, AggAvg:
		idx := a.idx
		s := &a.sum
		s.reserve(len(sel))
		for k, i := range sel {
			v := &rows[i][idx]
			var f float64
			switch v.Kind {
			case KindFloat:
				f = v.Float
			case KindInt:
				f = float64(v.Int)
			default:
				var ok bool
				if f, ok = v.AsFloat(); !ok {
					a.n += k + 1
					return fmt.Errorf("aggregate %s: non-numeric value %v in column %q", a.fn, *v, a.column)
				}
			}
			// s.addReserved(f), its common case inlined.
			b := math.Float64bits(f)
			if shift := b>>52&0x7ff - 1; shift < 0x7fe {
				s.addBits(shift, b&(1<<52-1)|1<<52, b>>63)
			} else {
				s.addSpecial(f)
			}
		}
		a.n += len(sel)
		a.numIn += len(sel)
	case AggMin, AggMax:
		idx := a.idx
		for k, i := range sel {
			v := &rows[i][idx]
			if a.n == 0 && k == 0 {
				a.best = *v
			} else if cmp := v.Compare(a.best); (a.fn == AggMin && cmp < 0) || (a.fn == AggMax && cmp > 0) {
				a.best = *v
			}
		}
		a.n += len(sel)
	}
	return nil
}

func (a *aggAccumulator) result() Tuple {
	switch a.fn {
	case AggCount:
		return Tuple{I(int64(a.n))}
	case AggSum:
		return Tuple{F(a.sum.value())}
	case AggAvg:
		if a.numIn == 0 {
			return Tuple{Null()}
		}
		return Tuple{F(a.sum.value() / float64(a.numIn))}
	default: // AggMin, AggMax
		if a.n == 0 {
			return Tuple{Null()}
		}
		return Tuple{a.best}
	}
}

// Aggregation is an aggregate bound to its input's column list: the function
// validated and its value column resolved.  COUNT ignores the column
// (counting rows); the other functions require a numeric column except
// MIN/MAX, which also order strings.  It is immutable: every Row call
// folds into its own copy of the empty accumulator.
type Aggregation struct {
	acc aggAccumulator
}

// CompileAggregate binds the aggregate of column (ignored by COUNT) to the
// input columns cols.
func CompileAggregate(cols []string, fn AggFunc, column string) (*Aggregation, error) {
	acc, err := newAggAccumulator(colLayout{cols: cols}, fn, column)
	if err != nil {
		return nil, err
	}
	return &Aggregation{acc: acc}, nil
}

// Row folds the rows into the aggregate's single result row, recording one
// aggregate.
func (a *Aggregation) Row(ctx context.Context, rows []Tuple, stats *Stats) (Tuple, error) {
	acc := a.acc
	if err := acc.add(ctx, rows, nil); err != nil {
		return nil, err
	}
	stats.record(OpKindAggregate, len(rows), 1)
	return acc.result(), nil
}

// newAggAccumulator validates the aggregate and resolves its column against
// the input.
func newAggAccumulator(in colLayout, fn AggFunc, column string) (aggAccumulator, error) {
	if err := validAggFunc(fn); err != nil {
		return aggAccumulator{}, err
	}
	idx := -1
	if fn != AggCount {
		if idx = in.resolve(column); idx < 0 {
			return aggAccumulator{}, fmt.Errorf("aggregate %s: column %q not found in %v", fn, column, in.cols)
		}
	}
	return aggAccumulator{fn: fn, idx: idx, column: column}, nil
}
