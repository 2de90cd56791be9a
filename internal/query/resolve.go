package query

import (
	"fmt"
	"slices"

	"github.com/probdb/urm/internal/schema"
)

// Resolved is one attribute reference of a query resolved against the query's
// relation occurrences: the alias it goes through (filled in for an
// unqualified reference) and the base target attribute it denotes.
type Resolved struct {
	Alias  string
	Target schema.Attribute
}

// Resolution is a validated query with every attribute reference resolved
// once.  Everything in it depends only on the query, so it is built once per
// prepared query and read — never written — by every reformulation through
// every mapping, from any number of goroutines.
type Resolution struct {
	// Query is the resolved query.
	Query *Query

	// aliases maps each alias to its target relation.
	aliases map[string]string
	// refs holds every reference the query's operators make, as written.
	refs map[AttrRef]Resolved
	// attrs are the distinct target attributes referenced anywhere in the
	// query, in first-use (pre-order) order.
	attrs []schema.Attribute
	// byAlias lists, per alias, the distinct target attributes referenced
	// through it, in first-use order.
	byAlias map[string][]schema.Attribute
}

// Resolve validates the query — every alias unique, every relation and
// referenced attribute in the target schema, every unqualified reference
// unambiguous — and resolves every reference its operators make.
func (q *Query) Resolve() (*Resolution, error) {
	if q.Root == nil {
		return nil, fmt.Errorf("query %s: nil root", q.Name)
	}
	if q.Target == nil {
		return nil, fmt.Errorf("query %s: nil target schema", q.Name)
	}
	r := &Resolution{
		Query:   q,
		aliases: make(map[string]string),
		refs:    make(map[AttrRef]Resolved),
		byAlias: make(map[string][]schema.Attribute),
	}
	for _, s := range q.Scans() {
		if q.Target.Relation(s.Relation) == nil {
			return nil, fmt.Errorf("query %s: unknown target relation %q", q.Name, s.Relation)
		}
		a := s.AliasName()
		if _, dup := r.aliases[a]; dup {
			return nil, fmt.Errorf("query %s: duplicate alias %q", q.Name, a)
		}
		r.aliases[a] = s.Relation
	}
	names := sortedAliases(r.aliases)
	var err error
	walk(q.Root, func(n Node) {
		for _, ref := range NodeRefs(n) {
			if err != nil {
				return
			}
			if _, ok := r.refs[ref]; ok {
				continue
			}
			var res Resolved
			if res, err = q.resolve(r.aliases, names, ref); err != nil {
				return
			}
			r.refs[ref] = res
			if !slices.Contains(r.attrs, res.Target) {
				r.attrs = append(r.attrs, res.Target)
			}
			if !slices.Contains(r.byAlias[res.Alias], res.Target) {
				r.byAlias[res.Alias] = append(r.byAlias[res.Alias], res.Target)
			}
		}
	})
	if err != nil {
		return nil, err
	}
	return r, nil
}

// Validate checks that every alias is unique, every reference resolves and
// every referenced attribute exists in the target schema.
func (q *Query) Validate() error {
	_, err := q.Resolve()
	return err
}

// ResolveRef resolves one attribute reference to the base target attribute it
// denotes, using the query's aliases.  Unqualified references resolve if
// exactly one relation occurrence has the attribute.
func (q *Query) ResolveRef(r AttrRef) (schema.Attribute, error) {
	aliases := q.Aliases()
	res, err := q.resolve(aliases, sortedAliases(aliases), r)
	return res.Target, err
}

// resolve is the resolution rule: a qualified reference names its alias; an
// unqualified one goes through the one alias (of names, sorted) whose
// relation has the attribute.
func (q *Query) resolve(aliases map[string]string, names []string, r AttrRef) (Resolved, error) {
	if r.Alias != "" {
		rel, ok := aliases[r.Alias]
		if !ok {
			return Resolved{}, fmt.Errorf("query %s: unknown alias %q in reference %s", q.Name, r.Alias, r)
		}
		attr := schema.Attribute{Relation: rel, Name: r.Name}
		if q.Target != nil && !q.Target.HasAttribute(attr) {
			return Resolved{}, fmt.Errorf("query %s: attribute %s not in target schema", q.Name, attr)
		}
		return Resolved{Alias: r.Alias, Target: attr}, nil
	}
	var found Resolved
	matches := 0
	for _, a := range names {
		attr := schema.Attribute{Relation: aliases[a], Name: r.Name}
		if q.Target == nil || q.Target.HasAttribute(attr) {
			found = Resolved{Alias: a, Target: attr}
			matches++
		}
	}
	switch matches {
	case 1:
		return found, nil
	case 0:
		return Resolved{}, fmt.Errorf("query %s: attribute %q not found in any relation occurrence", q.Name, r.Name)
	default:
		return Resolved{}, fmt.Errorf("query %s: attribute %q is ambiguous across relation occurrences", q.Name, r.Name)
	}
}

func sortedAliases(aliases map[string]string) []string {
	names := make([]string, 0, len(aliases))
	for a := range aliases {
		names = append(names, a)
	}
	slices.Sort(names)
	return names
}

// Ref returns the resolution of a reference the query's operators make.
func (r *Resolution) Ref(ref AttrRef) (Resolved, error) {
	res, ok := r.refs[ref]
	if !ok {
		return Resolved{}, fmt.Errorf("query %s: reference %s is not in the resolved query", r.Query.Name, ref)
	}
	return res, nil
}

// Relation returns the target relation of an alias, or "" if the query has no
// such alias.
func (r *Resolution) Relation(alias string) string { return r.aliases[alias] }

// Attributes returns the distinct target attributes referenced anywhere in
// the query, in first-use (pre-order) order.  q-sharing partitions the
// mappings by the sources they assign to this list.  The slice is shared: do
// not modify it.
func (r *Resolution) Attributes() []schema.Attribute { return r.attrs }

// AliasAttributes returns the distinct target attributes referenced anywhere
// in the query through the relation occurrence alias, in first-use order.
// The slice is shared: do not modify it.
func (r *Resolution) AliasAttributes(alias string) []schema.Attribute { return r.byAlias[alias] }
