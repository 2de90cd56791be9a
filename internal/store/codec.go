package store

import (
	"encoding/binary"
	"fmt"
	"math"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// The codec is a hand-rolled little-endian binary format rather than JSON for
// one load-bearing reason: answers must be bit-identical across a restart,
// and the engine's value semantics distinguish float bit patterns (NaN
// payloads, signed zero) that a decimal round-trip would collapse.  Floats are
// stored as their IEEE-754 bits, ints as two's complement, strings as
// length-prefixed UTF-8.  Every decoder is total: malformed input yields
// ErrCorrupt, never a panic, because recovery feeds it bytes that survived a
// crash.

// ScenarioState is the full durable state of one scenario: everything needed
// to rebuild a server.Scenario answering bit-identically.
type ScenarioState struct {
	Name       string
	Label      string
	Epoch      uint64
	StaleFloor uint64
	Target     *schema.Schema
	Mappings   schema.MappingSet
	Relations  []RelationState
}

// RelationState is one base relation of the source instance.
type RelationState struct {
	Name    string
	Columns []string
	Rows    []engine.Tuple
}

type enc struct{ b []byte }

func (e *enc) u8(v byte)     { e.b = append(e.b, v) }
func (e *enc) u32(v uint32)  { e.b = binary.LittleEndian.AppendUint32(e.b, v) }
func (e *enc) u64(v uint64)  { e.b = binary.LittleEndian.AppendUint64(e.b, v) }
func (e *enc) f64(v float64) { e.u64(math.Float64bits(v)) }
func (e *enc) str(s string)  { e.u32(uint32(len(s))); e.b = append(e.b, s...) }

func (e *enc) value(v engine.Value) {
	e.u8(byte(v.Kind))
	switch v.Kind {
	case engine.KindString:
		e.str(v.Str)
	case engine.KindInt:
		e.u64(uint64(v.Int))
	case engine.KindFloat:
		e.f64(v.Float)
	}
}

func (e *enc) tuple(t engine.Tuple) {
	e.u32(uint32(len(t)))
	for _, v := range t {
		e.value(v)
	}
}

func (e *enc) attr(a schema.Attribute) {
	e.str(a.Relation)
	e.str(a.Name)
}

// dec is a sticky-error decoder: the first malformed read poisons it and
// every later read returns zero values, so call sites stay linear and the
// single err check at the end covers the whole decode.
type dec struct {
	b   []byte
	off int
	err error
}

func (d *dec) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("%w: %s at offset %d", ErrCorrupt, fmt.Sprintf(format, args...), d.off)
	}
}

func (d *dec) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if n < 0 || d.off+n > len(d.b) {
		d.fail("need %d bytes, have %d", n, len(d.b)-d.off)
		return nil
	}
	out := d.b[d.off : d.off+n]
	d.off += n
	return out
}

func (d *dec) u8() byte {
	b := d.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (d *dec) u32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (d *dec) u64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

func (d *dec) f64() float64 { return math.Float64frombits(d.u64()) }

func (d *dec) str() string {
	n := int(d.u32())
	return string(d.take(n))
}

// count reads a u32 element count and sanity-bounds it against the bytes
// remaining, so a corrupt length cannot drive a giant allocation.
func (d *dec) count(minElemBytes int) int {
	n := int(d.u32())
	if d.err != nil {
		return 0
	}
	if n < 0 || n*minElemBytes > len(d.b)-d.off {
		d.fail("element count %d exceeds remaining input", n)
		return 0
	}
	return n
}

func (d *dec) value() engine.Value {
	kind := engine.Kind(d.u8())
	switch kind {
	case engine.KindNull:
		return engine.Value{}
	case engine.KindString:
		return engine.S(d.str())
	case engine.KindInt:
		return engine.I(int64(d.u64()))
	case engine.KindFloat:
		return engine.F(d.f64())
	default:
		d.fail("unknown value kind %d", kind)
		return engine.Value{}
	}
}

func (d *dec) tuple() engine.Tuple {
	n := d.count(1)
	t := make(engine.Tuple, 0, n)
	for i := 0; i < n && d.err == nil; i++ {
		t = append(t, d.value())
	}
	return t
}

func (d *dec) attr() schema.Attribute {
	rel := d.str()
	name := d.str()
	return schema.Attribute{Relation: rel, Name: name}
}

// encodeState serializes the full scenario state, prefixed with the record
// type byte (recRegister or recSnapshot — the payload shape is identical).
func encodeState(recType byte, st *ScenarioState) []byte {
	e := &enc{}
	e.u8(recType)
	e.str(st.Name)
	e.str(st.Label)
	e.u64(st.Epoch)
	e.u64(st.StaleFloor)

	e.str(st.Target.Name)
	e.u32(uint32(len(st.Target.Relations)))
	for _, rel := range st.Target.Relations {
		e.str(rel.Name)
		e.u32(uint32(len(rel.Columns)))
		for _, c := range rel.Columns {
			e.str(c.Name)
			e.u8(byte(c.Type))
		}
	}

	e.u32(uint32(len(st.Mappings)))
	for _, m := range st.Mappings {
		e.str(m.ID)
		e.f64(m.Prob)
		e.u32(uint32(len(m.Correspondences)))
		for _, c := range m.Correspondences {
			e.attr(c.Source)
			e.attr(c.Target)
			e.f64(c.Score)
		}
	}

	e.u32(uint32(len(st.Relations)))
	for _, rel := range st.Relations {
		e.str(rel.Name)
		e.u32(uint32(len(rel.Columns)))
		for _, c := range rel.Columns {
			e.str(c)
		}
		e.u32(uint32(len(rel.Rows)))
		for _, row := range rel.Rows {
			e.tuple(row)
		}
	}
	return e.b
}

// decodeState parses a state payload (after the record type byte has been
// consumed).  It rebuilds schema and mapping objects through their validating
// constructors, so structurally impossible states poison d with ErrCorrupt.
func decodeState(d *dec) *ScenarioState {
	st := &ScenarioState{}
	st.Name = d.str()
	st.Label = d.str()
	st.Epoch = d.u64()
	st.StaleFloor = d.u64()

	st.Target = schema.NewSchema(d.str())
	nrels := d.count(5)
	for i := 0; i < nrels && d.err == nil; i++ {
		rel := &schema.RelationSchema{Name: d.str()}
		ncols := d.count(5)
		for j := 0; j < ncols && d.err == nil; j++ {
			rel.Columns = append(rel.Columns, schema.Column{Name: d.str(), Type: schema.Type(d.u8())})
		}
		if d.err == nil {
			if err := st.Target.AddRelation(rel); err != nil {
				d.fail("target schema: %v", err)
			}
		}
	}

	nmaps := d.count(12)
	for i := 0; i < nmaps && d.err == nil; i++ {
		id := d.str()
		prob := d.f64()
		ncorrs := d.count(24)
		var corrs []schema.Correspondence
		for j := 0; j < ncorrs && d.err == nil; j++ {
			corrs = append(corrs, schema.Correspondence{Source: d.attr(), Target: d.attr(), Score: d.f64()})
		}
		if d.err == nil {
			m, err := schema.NewMapping(id, corrs, prob)
			if err != nil {
				d.fail("mapping: %v", err)
				break
			}
			st.Mappings = append(st.Mappings, m)
		}
	}

	nrel := d.count(8)
	for i := 0; i < nrel && d.err == nil; i++ {
		rel := RelationState{Name: d.str()}
		ncols := d.count(4)
		for j := 0; j < ncols && d.err == nil; j++ {
			rel.Columns = append(rel.Columns, d.str())
		}
		nrows := d.count(4)
		for j := 0; j < nrows && d.err == nil; j++ {
			row := d.tuple()
			if d.err == nil && len(row) != len(rel.Columns) {
				d.fail("relation %s: row arity %d, want %d", rel.Name, len(row), len(rel.Columns))
			}
			rel.Rows = append(rel.Rows, row)
		}
		st.Relations = append(st.Relations, rel)
	}
	return st
}

// encodeAppendRows serializes an AppendRows record: one batch of rows for one
// relation that committed as a single epoch step.  One record means one frame
// and one fsync for the whole batch.
func encodeAppendRows(epoch uint64, relation string, rows []engine.Tuple) []byte {
	e := &enc{}
	e.u8(recAppendRows)
	e.u64(epoch)
	e.str(relation)
	e.u32(uint32(len(rows)))
	for _, row := range rows {
		e.tuple(row)
	}
	return e.b
}

// encodeBump serializes a Bump record: the new epoch and stale floor.
func encodeBump(epoch, staleFloor uint64) []byte {
	e := &enc{}
	e.u8(recBump)
	e.u64(epoch)
	e.u64(staleFloor)
	return e.b
}

// walRecord is one decoded record.  Which fields are set depends on typ:
// state for recRegister and recSnapshot; epoch, relation and rows for the
// appends; epoch and floor for recBump; none for recDrop.
type walRecord struct {
	typ      byte
	state    *ScenarioState
	epoch    uint64
	relation string
	rows     []engine.Tuple
	floor    uint64
}

// decodeRecord is the one decoder of record payloads, WAL and snapshot alike.
// A legacy single-row append record decodes as a batch of one.
func decodeRecord(payload []byte) (walRecord, error) {
	if len(payload) == 0 {
		return walRecord{}, fmt.Errorf("%w: empty record", ErrCorrupt)
	}
	rec := walRecord{typ: payload[0]}
	d := &dec{b: payload, off: 1}
	switch rec.typ {
	case recRegister, recSnapshot:
		rec.state = decodeState(d)
	case recAppendRow, recAppendRows:
		rec.epoch = d.u64()
		rec.relation = d.str()
		n := 1
		if rec.typ == recAppendRows {
			n = d.count(1)
		}
		for i := 0; i < n && d.err == nil; i++ {
			rec.rows = append(rec.rows, d.tuple())
		}
	case recBump:
		rec.epoch = d.u64()
		rec.floor = d.u64()
	case recDrop:
	default:
		return walRecord{}, fmt.Errorf("%w: unknown record type %d", ErrCorrupt, rec.typ)
	}
	if d.err == nil && d.off != len(payload) {
		d.fail("%d trailing bytes in record type %d", len(payload)-d.off, rec.typ)
	}
	if d.err != nil {
		return walRecord{}, d.err
	}
	return rec, nil
}
