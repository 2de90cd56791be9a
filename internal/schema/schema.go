// Package schema models relational schemas, attribute correspondences and the
// possible-mapping representation of an uncertain schema matching, as defined
// in Section III of "Evaluating Probabilistic Queries over Uncertain Matching"
// (Cheng et al., ICDE 2012).
//
// A Schema is a named collection of relations, each with a list of attributes.
// A Correspondence relates one source attribute to one target attribute with a
// similarity score.  A Mapping is a one-to-one, partial set of correspondences
// together with the probability that the mapping is the correct one.  A
// Matching is the full uncertain matching: the scored correspondence matrix
// produced by a matcher plus the derived set of possible mappings.
package schema

import (
	"cmp"
	"fmt"
	"slices"
	"strings"
)

// Attribute identifies a single attribute (column) of a relation within a
// schema.  Attributes are value types and compare with ==.
type Attribute struct {
	// Relation is the name of the relation the attribute belongs to.
	Relation string
	// Name is the attribute (column) name, unique within its relation.
	Name string
}

// String returns the qualified "Relation.Name" form.
func (a Attribute) String() string { return a.Relation + "." + a.Name }

// IsZero reports whether the attribute is the zero value.
func (a Attribute) IsZero() bool { return a.Relation == "" && a.Name == "" }

// Type enumerates the value types an attribute may carry.  The engine uses it
// to generate and validate data; the matching algorithms treat attributes as
// opaque names.
type Type int

// Supported attribute types.
const (
	TypeString Type = iota
	TypeInt
	TypeFloat
)

// String returns a human-readable type name.
func (t Type) String() string {
	switch t {
	case TypeString:
		return "string"
	case TypeInt:
		return "int"
	case TypeFloat:
		return "float"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Column describes one attribute of a relation schema: its name and type.
type Column struct {
	Name string
	Type Type
}

// RelationSchema is the schema of one relation: an ordered list of columns.
type RelationSchema struct {
	Name    string
	Columns []Column
}

// ColumnIndex returns the position of the named column, or -1 if absent.
func (r *RelationSchema) ColumnIndex(name string) int {
	for i, c := range r.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// HasColumn reports whether the relation contains the named column.
func (r *RelationSchema) HasColumn(name string) bool { return r.ColumnIndex(name) >= 0 }

// Attributes returns the relation's attributes in column order.
func (r *RelationSchema) Attributes() []Attribute {
	attrs := make([]Attribute, len(r.Columns))
	for i, c := range r.Columns {
		attrs[i] = Attribute{Relation: r.Name, Name: c.Name}
	}
	return attrs
}

// Schema is a named set of relation schemas.  It plays both the source-schema
// role (S, with an attached instance) and the target-schema role (T).
type Schema struct {
	Name      string
	Relations []*RelationSchema

	byName map[string]*RelationSchema
}

// NewSchema creates an empty schema with the given name.
func NewSchema(name string) *Schema {
	return &Schema{Name: name, byName: make(map[string]*RelationSchema)}
}

// AddRelation appends a relation schema.  It returns an error if a relation
// with the same name already exists or if the relation has duplicate columns.
func (s *Schema) AddRelation(rel *RelationSchema) error {
	if s.byName == nil {
		s.byName = make(map[string]*RelationSchema)
	}
	if _, ok := s.byName[rel.Name]; ok {
		return fmt.Errorf("schema %q: duplicate relation %q", s.Name, rel.Name)
	}
	seen := make(map[string]bool, len(rel.Columns))
	for _, c := range rel.Columns {
		if seen[c.Name] {
			return fmt.Errorf("schema %q: relation %q has duplicate column %q", s.Name, rel.Name, c.Name)
		}
		seen[c.Name] = true
	}
	s.Relations = append(s.Relations, rel)
	s.byName[rel.Name] = rel
	return nil
}

// MustAddRelation is AddRelation that panics on error; intended for building
// static schemas in code and tests.
func (s *Schema) MustAddRelation(rel *RelationSchema) {
	if err := s.AddRelation(rel); err != nil {
		panic(err)
	}
}

// Relation returns the named relation schema, or nil if absent.
func (s *Schema) Relation(name string) *RelationSchema {
	if s.byName == nil {
		return nil
	}
	return s.byName[name]
}

// HasAttribute reports whether the schema contains the given attribute.
func (s *Schema) HasAttribute(a Attribute) bool {
	rel := s.Relation(a.Relation)
	return rel != nil && rel.HasColumn(a.Name)
}

// Attributes returns every attribute in the schema, ordered by relation then
// column position.
func (s *Schema) Attributes() []Attribute {
	var attrs []Attribute
	for _, rel := range s.Relations {
		attrs = append(attrs, rel.Attributes()...)
	}
	return attrs
}

// NumAttributes returns the total number of attributes across all relations.
func (s *Schema) NumAttributes() int {
	n := 0
	for _, rel := range s.Relations {
		n += len(rel.Columns)
	}
	return n
}

// AttributeType returns the declared type of the attribute and whether it was
// found.
func (s *Schema) AttributeType(a Attribute) (Type, bool) {
	rel := s.Relation(a.Relation)
	if rel == nil {
		return TypeString, false
	}
	idx := rel.ColumnIndex(a.Name)
	if idx < 0 {
		return TypeString, false
	}
	return rel.Columns[idx].Type, true
}

// RelationOf returns the relation schema that owns the attribute, or nil.
func (s *Schema) RelationOf(a Attribute) *RelationSchema {
	rel := s.Relation(a.Relation)
	if rel == nil || !rel.HasColumn(a.Name) {
		return nil
	}
	return rel
}

// Clone returns a deep copy of the schema.
func (s *Schema) Clone() *Schema {
	out := NewSchema(s.Name)
	for _, rel := range s.Relations {
		cols := make([]Column, len(rel.Columns))
		copy(cols, rel.Columns)
		out.MustAddRelation(&RelationSchema{Name: rel.Name, Columns: cols})
	}
	return out
}

// String renders the schema as "name(rel1(a,b,...), rel2(...))" for debugging.
func (s *Schema) String() string {
	var b strings.Builder
	b.WriteString(s.Name)
	b.WriteString("(")
	for i, rel := range s.Relations {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString(rel.Name)
		b.WriteString("(")
		for j, c := range rel.Columns {
			if j > 0 {
				b.WriteString(",")
			}
			b.WriteString(c.Name)
		}
		b.WriteString(")")
	}
	b.WriteString(")")
	return b.String()
}

// Correspondence relates a source attribute to a target attribute with the
// similarity score assigned by a matcher.  Scores lie in (0, 1].
type Correspondence struct {
	Source Attribute
	Target Attribute
	Score  float64
}

// String renders the correspondence as "(source, target)@score".
func (c Correspondence) String() string {
	return fmt.Sprintf("(%s, %s)@%.2f", c.Source, c.Target, c.Score)
}

// Key identifies a correspondence irrespective of its score; used for mapping
// overlap and partitioning.
type Key struct {
	Source Attribute
	Target Attribute
}

// Key returns the score-free identity of the correspondence.
func (c Correspondence) Key() Key { return Key{Source: c.Source, Target: c.Target} }

// SortCorrespondences orders correspondences by CompareCorrespondences.
func SortCorrespondences(cs []Correspondence) { slices.SortFunc(cs, CompareCorrespondences) }

// CompareCorrespondences orders correspondences by descending score,
// breaking ties by target then source attribute name for determinism.
func CompareCorrespondences(a, b Correspondence) int {
	if c := cmp.Compare(b.Score, a.Score); c != 0 {
		return c
	}
	if c := compareAttr(a.Target, b.Target); c != 0 {
		return c
	}
	return compareAttr(a.Source, b.Source)
}

// compareAttr orders attributes by relation, then name.
func compareAttr(a, b Attribute) int {
	if c := strings.Compare(a.Relation, b.Relation); c != 0 {
		return c
	}
	return strings.Compare(a.Name, b.Name)
}
