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
// operators that build new tuples (project, product, join), materialized or
// batch, carve them out of flat []Value chunks instead of calling make once
// per row.  arenaFirstChunk is the first chunk of an arena nobody reserved:
// most operator outputs are a handful of rows, and zeroing a full chunk for
// five of them costs more than the operator itself.
const (
	arenaChunkValues = 8192
	arenaFirstChunk  = 256
)

// valueArena bulk-allocates tuples from flat []Value chunks.  It has one
// sizing rule, for the materialized operators and the batch pipeline alike:
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

// keptColumns validates the keep lists against the input widths and returns
// the output column names.
func keptColumns(op string, left, right *Relation, leftKeep, rightKeep []int) ([]string, error) {
	cols := make([]string, 0, len(leftKeep)+len(rightKeep))
	for _, j := range leftKeep {
		if j < 0 || j >= len(left.Columns) {
			return nil, fmt.Errorf("%s: kept column %d out of range for %v", op, j, left.Columns)
		}
		cols = append(cols, left.Columns[j])
	}
	for _, j := range rightKeep {
		if j < 0 || j >= len(right.Columns) {
			return nil, fmt.Errorf("%s: kept column %d out of range for %v", op, j, right.Columns)
		}
		cols = append(cols, right.Columns[j])
	}
	return cols, nil
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

// allColumns is the keep list that keeps every column of rel in order.
func allColumns(rel *Relation) []int {
	idx := make([]int, len(rel.Columns))
	for i := range idx {
		idx[i] = i
	}
	return idx
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

// The functions below are the materialized operator API: each consumes
// materialized relations and produces a materialized relation, recording one
// operator execution.  Each binds its column names to positions and runs a
// position-taking entry point over row lists — a compiled Filter or
// Aggregation, or ProjectRows, ProductRows, JoinRows and DistinctRows.  Those
// entry points are the o-sharing evaluator's operators: its fragments must stay
// materialized so partially executed state can be shared across e-units, and
// it binds them once, when it plans its u-trace, so a walk names no column.
// They are kept beside the batch pipeline, which runs every plan, for what a
// materialized input lets them do: they see their whole input, so they size
// their output once (DESIGN.md "Execution model" has the measurement).  They
// and the pipeline call the same kernels — index probe, vectorized
// predicates, aggregate fold, dedupe, projection gather, pairShape.build,
// bucket threading and blocked hashing — and produce identical results and
// statistics.

// Select returns the rows of rel satisfying the predicate.  The predicate is
// compiled once — column references resolve to positions before the scan — so
// per-row evaluation does no name lookups.
func Select(ctx context.Context, rel *Relation, pred Predicate, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	vp, err := compileVecPredicate(pred, rel.ColumnIndex, rel.Columns)
	if err != nil {
		return nil, err
	}
	out := rel.sameColumns()
	if out.Rows, err = selectRows(ctx, rel.Rows, vp); err != nil {
		return nil, err
	}
	stats.record(OpKindSelect, len(rel.Rows), len(out.Rows))
	return out, nil
}

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
	if len(sel) == 0 {
		return nil, nil
	}
	out := make([]Tuple, len(sel))
	for k, i := range sel {
		out[k] = rows[i]
	}
	return out, nil
}

// Project returns rel restricted to the given columns, in the given order.
// Duplicate rows are preserved (bag semantics); use Distinct to remove them.
// Output tuples are carved from a flat arena rather than allocated per row.
func Project(ctx context.Context, rel *Relation, columns []string, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	idx, outCols, err := resolveProjection(colLayout{cols: rel.Columns}, columns)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rel.Name, outCols)
	if out.Rows, err = ProjectRows(ctx, rel.Rows, idx, stats); err != nil {
		return nil, err
	}
	return out, nil
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
// is the one projection kernel: Project, the plan driver's root projection
// and every batch of batchProject run it.
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

// Product returns the Cartesian product of two relations.  Column names are
// kept as-is, so callers should qualify them beforehand when they may collide.
func Product(ctx context.Context, left, right *Relation, stats *Stats) (*Relation, error) {
	return ProductKeep(ctx, left, right, allColumns(left), allColumns(right), false, stats)
}

// ProductKeep is the Cartesian product of left and right, left-major, emitting
// only the columns at positions leftKeep of each left row followed by those at
// rightKeep of each right row — row for row what a projection of the full
// product onto those columns would yield, without ever building the dropped
// columns.  With set, the caller reads the output as a set: a side of which
// nothing is kept contributes its first row only, so the output holds the same
// distinct rows in the same first-seen order without their repeats.  The row
// list and the value arena are sized exactly from the pairs built times the
// values copied; a product too large to size up front (the count overflows,
// or exceeds maxPresizeValues) grows geometrically instead, so it stays
// cancellable before it exhausts memory.
func ProductKeep(ctx context.Context, left, right *Relation, leftKeep, rightKeep []int, set bool, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	cols, err := keptColumns("product", left, right, leftKeep, rightKeep)
	if err != nil {
		return nil, err
	}
	out := NewRelation(left.Name+"x"+right.Name, cols)
	if out.Rows, err = ProductRows(ctx, left.Rows, right.Rows, leftKeep, rightKeep, set, stats); err != nil {
		return nil, err
	}
	return out, nil
}

// ProductRows is ProductKeep over row lists, recording one product.  The keep
// positions must lie within every row of their side.
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
	produced := 0
	for _, lr := range lrows {
		for _, rr := range rrows {
			produced++
			if produced%checkInterval == 0 {
				if err := canceled(ctx); err != nil {
					return nil, err
				}
			}
			out = append(out, shape.build(&arena, lr, rr))
		}
	}
	stats.record(OpKindProduct, len(left)+len(right), len(out))
	stats.recordValues(shape.copied() * len(out))
	return out, nil
}

// HashJoin returns the equi-join of left and right on leftCol = rightCol.
// It builds a hash table on the right input, keyed by the 64-bit value hash;
// probes compare candidate rows with EqualKey, so no key strings are ever
// formatted.
func HashJoin(ctx context.Context, left, right *Relation, leftCol, rightCol string, stats *Stats) (*Relation, error) {
	return hashJoin(ctx, left, right, leftCol, rightCol, allColumns(left), allColumns(right), false, stats, nil)
}

// hashJoin is the equi-join behind HashJoin, IndexedHashJoin and
// IndexedHashJoinKeep, emitting the leftKeep columns of each matching left row
// followed by the rightKeep columns of its right row (the join columns
// themselves need not be kept); set is newPairShape's.  When the cache
// identifies the right side as an untouched base scan, the build table is the
// instance's shared per-column index; otherwise it is built here from the
// right rows.
func hashJoin(ctx context.Context, left, right *Relation, leftCol, rightCol string, leftKeep, rightKeep []int, set bool, stats *Stats, cache *IndexCache) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	li, ri, err := resolveJoinKeys(colLayout{cols: left.Columns}, colLayout{cols: right.Columns}, leftCol, rightCol)
	if err != nil {
		return nil, err
	}
	cols, err := keptColumns("join", left, right, leftKeep, rightKeep)
	if err != nil {
		return nil, err
	}
	out := NewRelation(left.Name+"⋈"+right.Name, cols)
	if out.Rows, err = JoinRows(ctx, left.Rows, right.Rows, li, ri, leftKeep, rightKeep, set, stats, cache); err != nil {
		return nil, err
	}
	return out, nil
}

// JoinRows is the equi-join of row lists on left[li] = right[ri], emitting
// the leftKeep columns of each matching left row followed by the rightKeep
// columns of its right row, and recording one join; set is newPairShape's.
// The key and keep positions must lie within every row of their side.  When
// cache is non-nil and the right rows are an untouched scan of one of its base
// relations, the build table is the instance's shared per-column index;
// otherwise it is built here from the right rows.
func JoinRows(ctx context.Context, left, right []Tuple, li, ri int, leftKeep, rightKeep []int, set bool, stats *Stats, cache *IndexCache) ([]Tuple, error) {
	shape := newPairShape(leftKeep, rightKeep, set, ri)
	var build *hashIndex
	shared := false
	if cache != nil {
		if base, ok := cache.baseForRows(right); ok {
			idx, err := cache.columnIndex(ctx, base, ri, stats)
			if err != nil {
				return nil, err
			}
			stats.recordIndexLookup()
			build, shared = idx, true
		}
	}
	if build == nil {
		var err error
		if build, err = buildColumnHashIndex(ctx, right, ri); err != nil {
			return nil, err
		}
	}
	out, err := probeJoin(ctx, left, li, ri, build, &shape)
	if err != nil {
		return nil, err
	}
	if shared {
		// The build side was not read: only the probe rows count as input.
		stats.record(OpKindJoin, len(left), len(out))
	} else {
		stats.record(OpKindJoin, len(left)+len(right), len(out))
	}
	stats.recordValues(shape.copied() * len(out))
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

// probeJoin streams the left rows against the build index and returns the
// joined rows of the given shape.  Probe-key hashes are precomputed one block
// at a time — the same batch FNV-1a pass the batch pipeline's join runs — and
// chain entries whose stored hash differs are rejected without touching the
// candidate row.  Chains preserve build-row order, so output order is
// identical whether the index was built here or shared.  A shape with
// firstRight ends each probe row's walk at its first match.
func probeJoin(ctx context.Context, lrows []Tuple, li, ri int, build *hashIndex, shape *pairShape) ([]Tuple, error) {
	var out []Tuple
	var arena valueArena
	// Seed the output at the no-duplicate-keys estimate: at most one match per
	// probe and at most one per build row, so the smaller side bounds the
	// duplicate-free output.  Joins at or under it never reallocate; larger
	// outputs fall back to geometric growth.  The arena is reserved to the
	// same estimate, so the common foreign-key shape fills exactly one value
	// slab instead of leaving a partially used chunk behind.
	if len(lrows) > 0 && len(build.rows) > 0 {
		seed := min(len(lrows), len(build.rows))
		out = make([]Tuple, 0, seed)
		if values, ok := mulFits(seed, shape.copied(), maxPresizeValues); ok {
			arena.reserve(values)
		}
	}
	hashes := make([]uint64, DefaultBatchSize)
	heads := make([]int32, DefaultBatchSize)
	bnext, bhashes, brows := build.next, build.hashes, build.rows
	probed := 0
	for lo := 0; lo < len(lrows); lo += DefaultBatchSize {
		if err := canceled(ctx); err != nil {
			return nil, err
		}
		hi := lo + DefaultBatchSize
		if hi > len(lrows) {
			hi = len(lrows)
		}
		block := lrows[lo:hi]
		hashColumn(block, li, hashes[:len(block)])
		// Gather the bucket heads in their own pass: the masked loads are
		// independent, so the out-of-order window overlaps their cache misses
		// instead of serializing them behind each probe's chain walk.
		for i := range block {
			heads[i] = build.lookup(hashes[i])
		}
		for i := range block {
			j := heads[i]
			if j == 0 {
				continue // empty bucket: no candidate shares the hash prefix
			}
			lr := block[i]
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
				out = append(out, shape.build(&arena, lr, rr))
				if shape.firstRight {
					break
				}
			}
		}
	}
	return out, nil
}

// Distinct removes duplicate rows, preserving first-seen order.  Duplicate
// detection is hash-based (Hash64/EqualKey) instead of canonical-key strings.
func Distinct(ctx context.Context, rel *Relation, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	out := NewRelation(rel.Name, rel.Columns)
	var err error
	if out.Rows, err = DistinctRows(ctx, rel.Rows, stats); err != nil {
		return nil, err
	}
	return out, nil
}

// DistinctRows is Distinct over a row list, recording one distinct.
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

// aggAccumulator folds rows into a single aggregate value.  Both the
// materialized Aggregate and the batch pipeline's batchAgg drive it, so the
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
// is nil.  The materialized Aggregate and the batch pipeline's batchAgg both
// drive it.  A dense input is read in checkInterval blocks with a
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

// Aggregate computes a single-row aggregate over the relation.  COUNT ignores
// the column (counting rows); the other functions require a numeric column
// except MIN/MAX which also order strings.  The result relation has a single
// column named after the aggregate.
func Aggregate(ctx context.Context, rel *Relation, fn AggFunc, column string, stats *Stats) (*Relation, error) {
	if err := canceled(ctx); err != nil {
		return nil, err
	}
	a, err := CompileAggregate(rel.Columns, fn, column)
	if err != nil {
		return nil, err
	}
	row, err := a.Row(ctx, rel.Rows, stats)
	if err != nil {
		return nil, err
	}
	out := NewRelation(rel.Name, []string{aggOutputColumn(a.acc.fn, a.acc.column)})
	out.Rows = append(out.Rows, row)
	return out, nil
}

// Aggregation is an aggregate bound to its input's column list: the function
// validated and its value column resolved.  It is immutable: every Row call
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
