package engine

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"
	"strconv"
	"sync"
)

// This file is the engine's shared base-relation index subsystem.  The
// workload shape the paper studies — many reformulated source queries over the
// same instance — means every mapping's query scans the same base relations,
// applies constant-equality selections to the same columns and rebuilds the
// same equi-join hash tables.  The IndexCache makes that per-query cost a
// per-instance cost: one lazily built hash index per (relation, column),
// constructed exactly once no matter how many concurrent workers ask for it,
// and shared by every plan shape that can prove it needs exactly that index.

// hashIndex is the engine's one bucket-chain hash structure: rows bucketed by
// a 64-bit key hash, with buckets stored as chains of 1-based row indices
// threaded through a flat []int32 (0 terminates a chain).  Join build tables,
// the per-column base-relation indexes of the IndexCache and TupleSet's
// seen-set all share it, so the chain layout, its int32 row-count assumption
// (an in-memory build side cannot reach 2^31 rows) and the collision rules
// exist exactly once.
//
// Buckets are a flat power-of-two array indexed by hash&mask rather than a
// map keyed by the exact hash: a probe is one masked load instead of a map
// lookup, which is what makes the vectorized probe loops tight.  Each row's
// full 64-bit hash is kept in hashes so chain walks can reject bucket-sharing
// rows with one integer compare before the EqualKey check; rows whose keys
// hash equally but are not EqualKey must still be skipped by the prober.
//
// Column indexes built by buildColumnHashIndex key each row by
// rows[i][col].Hash64() and preserve row order inside every chain: rows are
// inserted back to front, each prepended to its chain, so traversing a chain
// yields rows in ascending row order.
type hashIndex struct {
	heads  []int32 // bucket heads, len is a power of two (never empty)
	mask   uint64  // len(heads) - 1
	hashes []uint64
	next   []int32
	rows   []Tuple

	// col is the keyed column position for column indexes; -1 when the index
	// keys whole tuples (TupleSet).
	col int
	// kinds and hasNaN describe the keyed column's content.  probeValuesForEq
	// consults them to decide whether a constant-equality predicate is
	// answerable from the index: Compare-equality is wider than the hash's
	// EqualKey classes for mixed-kind columns and NaNs.
	kinds  kindMask
	hasNaN bool
}

// newBuckets returns a zeroed bucket array sized to the smallest power of two
// holding n rows at load factor <= 1 (at least one bucket, so lookups never
// bounds-check against an empty array).
func newBuckets(n int) []int32 {
	size := 1
	for size < n {
		size <<= 1
	}
	return make([]int32, size)
}

// lookup returns the head of the bucket chain for hash h (0 = empty).
func (x *hashIndex) lookup(h uint64) int32 { return x.heads[h&x.mask] }

// add appends t under hash h, prepending it to its bucket chain (the TupleSet
// path; chain order does not matter for set membership).  The bucket array
// doubles when the load factor reaches 1.
func (x *hashIndex) add(h uint64, t Tuple) {
	if len(x.rows) >= len(x.heads) {
		_ = x.rethread(nil, 2*len(x.heads)) // a nil context never cancels
	}
	b := h & x.mask
	x.next = append(x.next, x.heads[b])
	x.rows = append(x.rows, t)
	x.hashes = append(x.hashes, h)
	x.heads[b] = int32(len(x.rows))
}

// rethread replaces the bucket array with one sized for n rows and threads
// every stored hash onto it, back to front so chains stay in ascending row
// order.  It is the one chain-threading loop: a cold build, the seen-set's
// doubling and an in-place append that outgrows its buckets all run it.  ctx
// is checked once per checkInterval rows, and only the build passes one: a nil
// ctx never cancels.  A cancelled rethread leaves the index unusable.
func (x *hashIndex) rethread(ctx context.Context, n int) error {
	heads := newBuckets(n)
	mask := uint64(len(heads) - 1)
	hashes, next := x.hashes, x.next
	for hi := len(hashes); hi > 0; hi -= checkInterval {
		if err := canceled(ctx); err != nil {
			return err
		}
		for i := hi - 1; i >= max(hi-checkInterval, 0); i-- {
			b := hashes[i] & mask
			next[i] = heads[b]
			heads[b] = int32(i + 1)
		}
	}
	x.heads, x.mask = heads, mask
	return nil
}

// canceledEvery reports the context error on the first call and then once per
// checkInterval calls, keeping cancellation prompt at negligible per-row cost.
func canceledEvery(ctx context.Context, n int) error {
	if n%checkInterval == 0 {
		return canceled(ctx)
	}
	return nil
}

// buildColumnHashIndex builds a hash index over the rows keyed by the given
// column, recording the column's kind mask as it hashes.  The rows slice is
// shared, not copied.
//
// The build is two passes: a blocked batch-hash pass (the interleaved FNV
// kernel, with the kind/NaN scan riding on each cache-hot block) and a chain
// pass (rethread) that threads buckets back to front from the stored hashes
// so chains stay in ascending row order.
func buildColumnHashIndex(ctx context.Context, rows []Tuple, col int) (*hashIndex, error) {
	x := &hashIndex{
		hashes: make([]uint64, len(rows)),
		next:   make([]int32, len(rows)),
		rows:   rows,
		col:    col,
	}
	kinds, hasNaN, err := hashRangeMeta(ctx, rows, col, 0, len(rows), x.hashes)
	if err != nil {
		return nil, err
	}
	x.kinds, x.hasNaN = kinds, hasNaN
	if err := x.rethread(ctx, len(rows)); err != nil {
		return nil, err
	}
	return x, nil
}

// hashRangeMeta fills hashes[lo:hi] with the column hashes of rows[lo:hi],
// block by block through the interleaved kernel, checking cancellation
// between blocks, and returns the kind mask and NaN flag for the range.
func hashRangeMeta(ctx context.Context, rows []Tuple, col, lo, hi int, hashes []uint64) (kindMask, bool, error) {
	var kinds kindMask
	hasNaN := false
	for blo := lo; blo < hi; blo += checkInterval {
		if err := canceled(ctx); err != nil {
			return 0, false, err
		}
		bhi := blo + checkInterval
		if bhi > hi {
			bhi = hi
		}
		block := rows[blo:bhi]
		hashColumn(block, col, hashes[blo:bhi])
		for i := range block {
			v := &block[i][col]
			kinds |= 1 << uint(v.Kind)
			if v.Kind == KindFloat && v.Float != v.Float {
				hasNaN = true
			}
		}
	}
	return kinds, hasNaN, nil
}

// probeMatches collects the 0-based indices of rows whose keyed column is
// EqualKey to one of the probe values, in ascending row order.  visited counts
// the chain entries examined (including hash and bucket collisions).
func (x *hashIndex) probeMatches(ctx context.Context, probes []Value) (matches []int32, visited int, err error) {
	for _, pv := range probes {
		h := pv.Hash64()
		for j := x.lookup(h); j != 0; j = x.next[j-1] {
			if err := canceledEvery(ctx, visited); err != nil {
				return nil, 0, err
			}
			visited++
			if x.hashes[j-1] != h {
				continue // bucket collision: different hash entirely
			}
			if x.rows[j-1][x.col].EqualKey(pv) {
				matches = append(matches, j-1)
			}
		}
	}
	if len(probes) > 1 {
		sort.Slice(matches, func(i, j int) bool { return matches[i] < matches[j] })
	}
	return matches, visited, nil
}

// kindMask is a bitmask of the Kinds present in an indexed column.
type kindMask uint8

func (m kindMask) has(k Kind) bool { return m&(1<<uint(k)) != 0 }

// maxExactInt bounds the integers that float64 represents exactly (2^53).
// Value.Compare compares integers through float64, so above this bound several
// distinct int64 values Compare-equal each other and a probe set cannot
// enumerate them.
const maxExactInt = int64(1) << 53

// probeConst is the constant of an equality an index probe answers, prepared
// once where the probe is chosen: numeric says whether a string constant
// parses as a float, which probeValuesForEq would otherwise decide — and
// allocate a *strconv.NumError for a non-numeric one — on every probe.
type probeConst struct {
	v       Value
	numeric bool
}

func newProbeConst(v Value) probeConst {
	c := probeConst{v: v}
	if v.Kind == KindString {
		_, err := strconv.ParseFloat(v.Str, 64)
		c.numeric = err == nil
	}
	return c
}

// probeValuesForEq returns EqualKey probe values whose classes together
// contain exactly the rows satisfying `column = c.v` under Compare semantics,
// or ok=false when no such finite probe set exists for a column with the
// given content.
//
// The subtlety is that the selection predicate's OpEq uses Value.Compare,
// which equates values across kinds — I(1), F(1) and S("1") all compare
// equal — while the index hashes by EqualKey, which keeps kinds apart.  The
// probe set bridges the two when the column's kind mask allows it:
//
//   - a NULL constant matches only NULLs;
//   - a string that does not parse as a float matches only that exact string,
//     whatever the column holds (numeric renderings always parse);
//   - a numeric-parsing string is answerable only from a purely
//     string/NULL-valued column (otherwise it also matches numbers that
//     cannot be enumerated: "1", "1.0" and "1e0" all equal I(1));
//   - an int or float constant is answerable when the column holds no strings
//     and no NaNs (a stored NaN Compare-equals every number), probing both
//     the int and the float spelling of the value, plus the other-signed zero
//     (−0 and +0 are distinct EqualKey classes but compare equal);
//   - integers at or beyond 2^53 are rejected outright: Compare goes through
//     float64, where several distinct huge integers are equal.
func probeValuesForEq(c probeConst, kinds kindMask, hasNaN bool) ([]Value, bool) {
	v := c.v
	switch v.Kind {
	case KindNull:
		return []Value{v}, true
	case KindString:
		if !c.numeric {
			return []Value{v}, true
		}
		if kinds.has(KindInt) || kinds.has(KindFloat) {
			return nil, false
		}
		return []Value{v}, true
	case KindInt:
		if kinds.has(KindString) || hasNaN {
			return nil, false
		}
		n := v.Int
		if n <= -maxExactInt || n >= maxExactInt {
			return nil, false
		}
		probes := []Value{v, F(float64(n))}
		if n == 0 {
			probes = append(probes, F(math.Copysign(0, -1)))
		}
		return probes, true
	case KindFloat:
		f := v.Float
		if f != f || kinds.has(KindString) || hasNaN {
			return nil, false
		}
		probes := []Value{v}
		switch {
		case f == 0:
			other := math.Copysign(0, -1)
			if math.Signbit(f) {
				other = 0
			}
			probes = append(probes, F(other), I(0))
		case math.Trunc(f) == f && f > -float64(maxExactInt) && f < float64(maxExactInt):
			probes = append(probes, I(int64(f)))
		case kinds.has(KindInt) && !math.IsInf(f, 0):
			// An integer-valued float at or beyond 2^53: several int64 values
			// round to it, and the probe set cannot enumerate them.  (±Inf is
			// safe — no int64 converts to an infinity.)
			return nil, false
		}
		return probes, true
	default:
		return nil, false
	}
}

// constPreds flattens p into its constant comparisons when p is a single
// ConstPredicate or a conjunction of them; any other shape reports ok=false.
func constPreds(p Predicate) ([]*ConstPredicate, bool) {
	switch n := p.(type) {
	case *ConstPredicate:
		return []*ConstPredicate{n}, true
	case *AndPredicate:
		out := make([]*ConstPredicate, 0, len(n.Children))
		for _, c := range n.Children {
			cp, ok := c.(*ConstPredicate)
			if !ok {
				return nil, false
			}
			out = append(out, cp)
		}
		return out, true
	default:
		return nil, false
	}
}

// indexProbe is the comparison an index probe answers for a stack of
// constant selections over one scan: level is the selection's position in the
// stack and consts its comparisons, at the probe's position among them, col
// its resolved column and val its prepared constant.
type indexProbe struct {
	level  int
	consts []*ConstPredicate
	at     int
	col    int
	val    probeConst
}

// pickProbe chooses the probe for a stack of selections over one scan, listed
// bottom to top: the bottom-most constant equality whose column resolves.
// ok=false when a selection is not a constant conjunction or no equality
// resolves.  A Filter (a stack of one) and the batch compiler's index scan
// both pick through it.
func pickProbe(stack []Predicate, resolve func(string) int) (indexProbe, bool) {
	for level, pred := range stack {
		consts, ok := constPreds(pred)
		if !ok {
			return indexProbe{}, false
		}
		for at, cp := range consts {
			if cp.Op != OpEq {
				continue
			}
			if col := resolve(cp.Column); col >= 0 {
				return indexProbe{level: level, consts: consts, at: at, col: col, val: newProbeConst(cp.Value)}, true
			}
		}
	}
	return indexProbe{}, false
}

// scan returns the index-served stack the probe answers, given every level's
// whole predicate compiled, bottom to top.  The index answers the probe's
// equality exactly, so the residual of its level is the rest of its
// conjunction, nil when nothing remains.
func (p indexProbe) scan(full []vecPredicate, resolve func(string) int, cols []string) (*indexScan, error) {
	rest := make([]Predicate, 0, len(p.consts)-1)
	for i, cp := range p.consts {
		if i != p.at {
			rest = append(rest, cp)
		}
	}
	residual := slices.Clone(full)
	var err error
	switch len(rest) {
	case 0:
		residual[p.level] = nil
	case 1:
		residual[p.level], err = compileVecPredicate(rest[0], resolve, cols)
	default:
		residual[p.level], err = compileVecPredicate(&AndPredicate{Children: rest}, resolve, cols)
	}
	if err != nil {
		return nil, err
	}
	return &indexScan{col: p.col, val: p.val, full: full, residual: residual}, nil
}

// probeEq returns the rows of base's shared index over col and the 0-based
// positions, in row order, of those whose column Compare-equals val's
// constant: the one index probe, which indexScan.serve runs.
// ok=false, with no lookup recorded, when the column's content leaves no
// finite probe set (probeValuesForEq) and the caller must scan instead.
func (c *IndexCache) probeEq(ctx context.Context, base *Relation, col int, val probeConst, stats *Stats) (rows []Tuple, matches []int32, ok bool, err error) {
	idx, err := c.columnIndex(ctx, base, col, stats)
	if err != nil {
		return nil, nil, false, err
	}
	probes, ok := probeValuesForEq(val, idx.kinds, idx.hasNaN)
	if !ok {
		return nil, nil, false, nil
	}
	stats.recordIndexLookup()
	if matches, _, err = idx.probeMatches(ctx, probes); err != nil {
		return nil, nil, false, err
	}
	return idx.rows, matches, true, nil
}

// colKey identifies one cached column index.
type colKey struct {
	rel *Relation
	col int
}

// colEntry is one singleflight-constructed column index together with the
// relation state it was built against.
type colEntry struct {
	version uint64
	nrows   int
	once    sync.Once
	idx     *hashIndex
	err     error
}

// IndexCache memoizes per-(relation, column) hash indexes for the base
// relations of one Instance.  Construction is lazy and singleflight: when
// several concurrent workers request the same index, exactly one builds it and
// the others block until it is ready, so each index is built once per instance
// no matter how the queries sharing it are scheduled.
//
// Entries are validated against the relation's mutation version and row count
// on every request, so appending to a base relation (Relation.Append)
// invalidates its cached indexes; the next request rebuilds them.  Mutating
// Relation.Rows in place during evaluation is outside the engine's contract,
// exactly as it is for a running scan.
type IndexCache struct {
	db      *Instance
	mu      sync.Mutex
	entries map[colKey]*colEntry
}

func newIndexCache(db *Instance) *IndexCache {
	return &IndexCache{db: db, entries: make(map[colKey]*colEntry)}
}

// Len returns the number of cached column indexes.
func (c *IndexCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.entries)
}

// columnIndex returns the shared hash index over the relation's column,
// building it on first request.  A build aborted by context cancellation is
// evicted, and waiters whose own context is still live retry — one of them
// becomes the next builder — so one caller's cancellation never fails a
// concurrent query that wasn't cancelled, and a later run can always
// construct the index.
func (c *IndexCache) columnIndex(ctx context.Context, rel *Relation, col int, stats *Stats) (*hashIndex, error) {
	if col < 0 || col >= len(rel.Columns) {
		return nil, fmt.Errorf("index: column %d out of range for %s", col, rel.Name)
	}
	if c.db.Relation(rel.Name) != rel {
		// A relation the cache does not own — an adopted cache (AdoptIndexes)
		// asked to index a derived instance's delta or prefix slice.  Build a
		// transient, uncached index so foreign row slices can never alias a
		// cached entry.
		idx, err := buildColumnHashIndex(ctx, rel.Rows[:len(rel.Rows):len(rel.Rows)], col)
		if err == nil {
			stats.recordIndexBuild()
		}
		return idx, err
	}
	key := colKey{rel: rel, col: col}
	for {
		ver := rel.version.Load()
		nrows := len(rel.Rows)
		c.mu.Lock()
		e := c.entries[key]
		if e != nil && (e.version != ver || e.nrows != nrows) {
			delete(c.entries, key)
			e = nil
		}
		if e == nil {
			e = &colEntry{version: ver, nrows: nrows}
			c.entries[key] = e
		}
		c.mu.Unlock()
		e.once.Do(func() {
			e.idx, e.err = buildColumnHashIndex(ctx, rel.Rows[:e.nrows:e.nrows], col)
			if e.err == nil {
				stats.recordIndexBuild()
			} else if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
				c.mu.Lock()
				if c.entries[key] == e {
					delete(c.entries, key)
				}
				c.mu.Unlock()
			}
		})
		if e.err == nil {
			return e.idx, nil
		}
		if errors.Is(e.err, context.Canceled) || errors.Is(e.err, context.DeadlineExceeded) {
			// The winning builder's context died — not necessarily ours.  The
			// entry has been evicted; fail with our own context's error if we
			// were cancelled too, otherwise take another turn.
			if ctxErr := canceled(ctx); ctxErr != nil {
				return nil, ctxErr
			}
			continue
		}
		return nil, e.err
	}
}

// Warm eagerly builds the index for every (relation, column) of the
// instance, in registration order, so that a long-lived service pays index
// construction when a scenario is registered rather than on the first query
// that needs each index.  It returns the number of indexes built by this call
// (already-cached entries are revalidated, not rebuilt).  Builds honour the
// context; a cancelled build is evicted exactly as on the lazy path.
func (c *IndexCache) Warm(ctx context.Context, stats *Stats) (int, error) {
	built := 0
	before := stats.IndexBuilds()
	for _, name := range c.db.RelationNames() {
		rel := c.db.Relation(name)
		for col := range rel.Columns {
			if _, err := c.columnIndex(ctx, rel, col, stats); err != nil {
				return built, err
			}
			built = stats.IndexBuilds() - before
		}
	}
	return built, nil
}

// AppendInPlace extends every already-built index over rel to cover rows
// appended since (oldLen, oldVersion): the new rows are hashed through the
// same blocked kernel as a cold build, kind/NaN metadata is OR-ed in, and each
// row is threaded onto the tail of its bucket chain (or the whole structure is
// rethreaded when the bucket array must grow) so chains stay in ascending row
// order — the resulting index is structurally identical to a cold rebuild over
// all len(rel.Rows) rows.  Entries that were never built, failed, or were
// built against some other relation state are dropped for the lazy path to
// rebuild.  It returns the number of indexes extended.
//
// The caller must hold whatever lock excludes concurrent evaluations — the
// same contract as Relation.Append itself, since probing an index mid-mutation
// is as racy as scanning the rows mid-mutation.
func (c *IndexCache) AppendInPlace(ctx context.Context, rel *Relation, oldLen int, oldVersion uint64) int {
	n := len(rel.Rows)
	if n < oldLen {
		return 0
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	extended := 0
	for col := range rel.Columns {
		key := colKey{rel: rel, col: col}
		e := c.entries[key]
		if e == nil {
			continue
		}
		if e.idx == nil || e.version != oldVersion || e.nrows != oldLen {
			// Unbuilt, failed, or built against a state this append does not
			// extend: leave it to the lazy rebuild path.
			delete(c.entries, key)
			continue
		}
		x := e.idx
		x.hashes = append(x.hashes, make([]uint64, n-oldLen)...)
		x.next = append(x.next, make([]int32, n-oldLen)...)
		kinds, hasNaN, err := hashRangeMeta(ctx, rel.Rows[:n:n], col, oldLen, n, x.hashes)
		if err != nil {
			delete(c.entries, key)
			continue
		}
		x.kinds |= kinds
		x.hasNaN = x.hasNaN || hasNaN
		x.rows = rel.Rows[:n:n] // the append may have reallocated the backing array
		if len(x.heads) < n {
			// Rethread everything into the bucket array a cold build over n
			// rows would allocate.
			_ = x.rethread(nil, n) // a nil context never cancels
		} else {
			for i := oldLen; i < n; i++ {
				b := x.hashes[i] & x.mask
				if x.heads[b] == 0 {
					x.heads[b] = int32(i + 1)
					continue
				}
				j := x.heads[b]
				for x.next[j-1] != 0 {
					j = x.next[j-1]
				}
				x.next[j-1] = int32(i + 1)
			}
		}
		e.version = rel.version.Load()
		e.nrows = n
		extended++
	}
	return extended
}

// serves reports whether the cache can serve reads of rel from its shared
// indexes: it owns rel, which holds rows.  A relation the cache does not own —
// a delta pass's window of a live relation — builds its own table instead.
func (c *IndexCache) serves(rel *Relation) bool {
	return c != nil && rel != nil && len(rel.Rows) > 0 && c.db.Relation(rel.Name) == rel
}

// Filter is a selection bound to its input's column list: the predicate
// compiled once, and — when it holds a constant equality whose column resolves
// — the one-level index-served stack that answers it from the shared index.
// It is immutable, so concurrent runs share it.  o-sharing compiles one per
// selection when it plans its u-trace.
type Filter struct {
	pred  vecPredicate
	probe *indexScan
}

// CompileFilter binds the predicate to the column list, resolving its column
// references as a Relation with those columns would.
func CompileFilter(pred Predicate, cols []string) (*Filter, error) {
	resolve := func(name string) int { return lookupColumn(cols, name) }
	vp, err := compileVecPredicate(pred, resolve, cols)
	if err != nil {
		return nil, err
	}
	f := &Filter{pred: vp}
	if probe, ok := pickProbe([]Predicate{pred}, resolve); ok {
		if f.probe, err = probe.scan([]vecPredicate{vp}, resolve, cols); err != nil {
			return nil, err
		}
	}
	return f, nil
}

// Rows returns the rows satisfying the filter, in order, recording one
// selection.  base is the relation rows are an untouched scan of, or nil.
// When cache serves base and the filter has a probe the column's content lets
// the index answer exactly, the matching rows come from the shared index;
// otherwise every row is tested.  The result is the same either way.
func (f *Filter) Rows(ctx context.Context, rows []Tuple, stats *Stats, cache *IndexCache, base *Relation) ([]Tuple, error) {
	if f.probe != nil && cache.serves(base) {
		brows, sel, ok, err := f.probe.serve(ctx, cache, base, stats)
		if err != nil {
			return nil, err
		}
		if ok {
			return gatherRows(brows, sel), nil
		}
	}
	out, err := selectRows(ctx, rows, f.pred)
	if err != nil {
		return nil, err
	}
	stats.record(OpKindSelect, len(rows), len(out))
	return out, nil
}
