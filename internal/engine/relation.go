package engine

import (
	"fmt"
	"sort"
	"strings"
	"sync/atomic"
)

// Relation is a materialized table: an ordered list of column names and a list
// of rows.  Column names are usually qualified ("Relation.attr") so that the
// columns of a Cartesian product remain unambiguous.
//
// Columns must not be mutated after the first ColumnIndex call: lookups are
// served from a lazily built index map that is not invalidated.  (No code in
// this module mutates Columns after construction.)
type Relation struct {
	Name    string
	Columns []string
	Rows    []Tuple

	// colIndex caches name → position resolution.  It is built lazily on the
	// first lookup and published atomically, so concurrent readers — o-sharing
	// branches share fragment relations across workers — are race-free.
	colIndex atomic.Pointer[map[string]int]

	// version counts mutations through Append.  The IndexCache validates its
	// per-column indexes against it (plus the row count), so appending to a
	// base relation invalidates every index built over it.
	version atomic.Uint64
}

// NewRelation creates an empty relation with the given name and columns.
func NewRelation(name string, columns []string) *Relation {
	cols := make([]string, len(columns))
	copy(cols, columns)
	return &Relation{Name: name, Columns: cols}
}

// ColumnIndex returns the position of the named column.  The lookup first
// tries an exact match, then an unqualified suffix match ("attr" matching
// "Rel.attr") when that suffix is unambiguous.  It returns -1 if not found or
// ambiguous.  Lookups after the first are O(1): the resolution table is built
// once per relation.
func (r *Relation) ColumnIndex(name string) int {
	m := r.colIndex.Load()
	if m == nil {
		built := buildColumnIndex(r.Columns)
		r.colIndex.Store(&built)
		m = &built
	}
	idx, ok := (*m)[name]
	if !ok {
		return -1
	}
	return idx
}

// sameColumns returns an empty relation with r's name and columns that shares
// r's column slice and, once built, its resolution table: a selection's output
// resolves names exactly as its input, so it need not build the table again.
func (r *Relation) sameColumns() *Relation {
	out := &Relation{Name: r.Name, Columns: r.Columns}
	if m := r.colIndex.Load(); m != nil {
		out.colIndex.Store(m)
	}
	return out
}

// buildColumnIndex precomputes every resolvable name for the column list with
// the same semantics as lookupColumn: exact names win (first occurrence), and
// an unqualified suffix resolves only when unambiguous (ambiguous suffixes are
// stored as -1 so the miss is remembered too).
func buildColumnIndex(cols []string) map[string]int {
	m := make(map[string]int, 2*len(cols))
	for i, c := range cols {
		if _, ok := m[c]; !ok {
			m[c] = i
		}
	}
	type suffix struct {
		idx   int
		count int
	}
	suffixes := make(map[string]suffix, len(cols))
	for i, c := range cols {
		uq := unqualified(c)
		s := suffixes[uq]
		if s.count == 0 {
			s.idx = i
		}
		s.count++
		suffixes[uq] = s
	}
	for uq, s := range suffixes {
		if _, exact := m[uq]; exact {
			continue // an exact column name shadows the suffix rule
		}
		if s.count == 1 {
			m[uq] = s.idx
		} else {
			m[uq] = -1 // remembered as ambiguous
		}
	}
	return m
}

// lookupColumn resolves a column name against a plain column list with the
// relation resolution rules (exact match first, then unambiguous unqualified
// suffix).  The streaming compiler uses it when no Relation exists yet; it is
// the linear reference implementation of buildColumnIndex.
func lookupColumn(cols []string, name string) int {
	for i, c := range cols {
		if c == name {
			return i
		}
	}
	if strings.Contains(name, ".") {
		return -1
	}
	idx := -1
	for i, c := range cols {
		if unqualified(c) == name {
			if idx >= 0 {
				return -1 // ambiguous
			}
			idx = i
		}
	}
	return idx
}

func unqualified(col string) string {
	if i := strings.LastIndexByte(col, '.'); i >= 0 {
		return col[i+1:]
	}
	return col
}

// HasColumn reports whether the column resolves uniquely in the relation.
func (r *Relation) HasColumn(name string) bool { return r.ColumnIndex(name) >= 0 }

// NumRows returns the number of rows.
func (r *Relation) NumRows() int { return len(r.Rows) }

// NumColumns returns the number of columns.
func (r *Relation) NumColumns() int { return len(r.Columns) }

// IsEmpty reports whether the relation has no rows.
func (r *Relation) IsEmpty() bool { return len(r.Rows) == 0 }

// Append adds a row.  It returns an error if the arity does not match.
func (r *Relation) Append(t Tuple) error {
	if len(t) != len(r.Columns) {
		return fmt.Errorf("relation %s: tuple arity %d does not match %d columns", r.Name, len(t), len(r.Columns))
	}
	r.Rows = append(r.Rows, t)
	r.version.Add(1)
	return nil
}

// AppendAll adds every row of the batch, advancing the mutation version once
// for the whole batch rather than per row.  Arity is validated for every row
// before any is appended, so a bad batch leaves the relation untouched.
func (r *Relation) AppendAll(rows []Tuple) error {
	for _, t := range rows {
		if len(t) != len(r.Columns) {
			return fmt.Errorf("relation %s: tuple arity %d does not match %d columns", r.Name, len(t), len(r.Columns))
		}
	}
	if len(rows) == 0 {
		return nil
	}
	r.Rows = append(r.Rows, rows...)
	r.version.Add(1)
	return nil
}

// MustAppend is Append that panics on arity mismatch.
func (r *Relation) MustAppend(t Tuple) {
	if err := r.Append(t); err != nil {
		panic(err)
	}
}

// Version returns the relation's mutation counter: it advances on every
// Append, so caches derived from the rows — per-column indexes, shard
// slices — can detect staleness with a version+row-count check.
func (r *Relation) Version() uint64 { return r.version.Load() }

// Clone returns a deep copy of the relation.
func (r *Relation) Clone() *Relation {
	out := NewRelation(r.Name, r.Columns)
	out.Rows = make([]Tuple, len(r.Rows))
	for i, row := range r.Rows {
		out.Rows[i] = row.Clone()
	}
	return out
}

// Column returns all values of the named column in row order.
func (r *Relation) Column(name string) ([]Value, error) {
	idx := r.ColumnIndex(name)
	if idx < 0 {
		return nil, fmt.Errorf("relation %s: unknown column %q", r.Name, name)
	}
	out := make([]Value, len(r.Rows))
	for i, row := range r.Rows {
		out[i] = row[idx]
	}
	return out, nil
}

// SortRows orders the rows by the canonical tuple key; useful for
// deterministic comparison in tests.  Keys are computed once per row rather
// than inside the comparator, so sorting costs n key builds instead of
// O(n log n).
func (r *Relation) SortRows() {
	keys := make([]string, len(r.Rows))
	for i, row := range r.Rows {
		keys[i] = row.Key()
	}
	sort.Sort(&rowsByKey{rows: r.Rows, keys: keys})
}

// rowsByKey sorts rows and their cached keys together.
type rowsByKey struct {
	rows []Tuple
	keys []string
}

func (s *rowsByKey) Len() int           { return len(s.rows) }
func (s *rowsByKey) Less(i, j int) bool { return s.keys[i] < s.keys[j] }
func (s *rowsByKey) Swap(i, j int) {
	s.rows[i], s.rows[j] = s.rows[j], s.rows[i]
	s.keys[i], s.keys[j] = s.keys[j], s.keys[i]
}

// String renders a compact textual table (header plus up to 20 rows).
func (r *Relation) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s[%d rows](%s)", r.Name, len(r.Rows), strings.Join(r.Columns, ", "))
	limit := len(r.Rows)
	if limit > 20 {
		limit = 20
	}
	for i := 0; i < limit; i++ {
		b.WriteString("\n  ")
		b.WriteString(r.Rows[i].String())
	}
	if len(r.Rows) > limit {
		fmt.Fprintf(&b, "\n  ... (%d more)", len(r.Rows)-limit)
	}
	return b.String()
}

// QualifyColumns returns a copy of the relation whose column names are
// prefixed with the given relation name (columns already containing a '.' are
// re-qualified).
func (r *Relation) QualifyColumns(relName string) *Relation {
	cols := make([]string, len(r.Columns))
	for i, c := range r.Columns {
		cols[i] = relName + "." + unqualified(c)
	}
	out := &Relation{Name: relName, Columns: cols, Rows: r.Rows}
	return out
}

// Instance is a named database: a set of base relations keyed by relation
// name.  It is the "source instance D" of the paper.
type Instance struct {
	Name      string
	relations map[string]*Relation
	order     []string

	// indexes is the instance's shared base-relation index subsystem: one
	// lazily built hash index per (relation, column), shared by every query
	// evaluated against this instance.
	indexes *IndexCache
	noIndex bool
}

// NewInstance creates an empty instance.
func NewInstance(name string) *Instance {
	db := &Instance{Name: name, relations: make(map[string]*Relation)}
	db.indexes = newIndexCache(db)
	return db
}

// Indexes returns the instance's shared base-relation index cache, or nil
// when indexing is disabled.  Executors and the materialized operator API
// treat a nil cache as "no indexes": every plan runs as a plain scan-and-
// filter pipeline.
func (db *Instance) Indexes() *IndexCache {
	if db.noIndex {
		return nil
	}
	return db.indexes
}

// SetIndexing enables (the default) or disables the shared index subsystem.
// Answers are bit-identical either way; the switch exists for A/B perf
// comparison and for the equivalence tests that prove that property.
func (db *Instance) SetIndexing(on bool) { db.noIndex = !on }

// AddRelation registers a base relation.  Re-adding a name replaces the
// previous relation but keeps its position.
func (db *Instance) AddRelation(rel *Relation) {
	if _, ok := db.relations[rel.Name]; !ok {
		db.order = append(db.order, rel.Name)
	}
	db.relations[rel.Name] = rel
}

// Relation returns the named base relation, or nil.
func (db *Instance) Relation(name string) *Relation { return db.relations[name] }

// WithRelations derives a new instance that shares this instance's relations
// except for the given replacements, which take the originals' positions.
// The shard partitioner uses it to build per-shard instances: the partitioned
// relation is replaced with a shard slice while every other relation is the
// same *Relation the parent holds, so replicated data is never copied.  The
// derived instance gets its own index cache (its relation contents differ
// from the parent's) and inherits the indexing on/off switch.
func (db *Instance) WithRelations(name string, replace map[string]*Relation) *Instance {
	out := NewInstance(name)
	out.noIndex = db.noIndex
	for _, rn := range db.order {
		if rel, ok := replace[rn]; ok {
			out.AddRelation(rel)
			continue
		}
		out.AddRelation(db.relations[rn])
	}
	return out
}

// AdoptIndexes makes the instance share the parent's index cache instead of
// its own.  The delta evaluator uses it on derived instances whose unreplaced
// relations are the parent's own *Relation values: those relations then probe
// the parent's already-built shared indexes, while relations the cache does
// not own (delta and prefix slices) get transient per-query indexes — the
// cache's ownership check keeps the two apart.  The indexing on/off switch is
// adopted along with the cache.
func (db *Instance) AdoptIndexes(parent *Instance) {
	db.indexes = parent.indexes
	db.noIndex = parent.noIndex
}

// RelationNames returns the base relation names in insertion order.
func (db *Instance) RelationNames() []string {
	out := make([]string, len(db.order))
	copy(out, db.order)
	return out
}

// NumRows returns the total number of rows across all base relations.
func (db *Instance) NumRows() int {
	n := 0
	for _, r := range db.relations {
		n += len(r.Rows)
	}
	return n
}

// SizeBytes estimates the storage footprint of the instance, counting string
// lengths plus 8 bytes per numeric value.  The experiment harness uses it to
// express database size in MB as the paper does.
func (db *Instance) SizeBytes() int {
	total := 0
	for _, r := range db.relations {
		for _, row := range r.Rows {
			for _, v := range row {
				switch v.Kind {
				case KindString:
					total += len(v.Str)
				default:
					total += 8
				}
			}
		}
	}
	return total
}
