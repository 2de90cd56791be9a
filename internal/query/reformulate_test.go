package query_test

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// oracleSignature is the oracle of a reformulation: it resolves every
// reference on its own through Query.ResolveRef, looks the per-alias
// attribute lists up by walking the whole query, and renders the source
// plan's signature with fmt, in the format plan signatures have always had —
// the work the resolution and the signature writer replaced.  It checks
// coverage in the order Reformulate does, so an uncovered mapping fails with
// the same error.
func oracleSignature(q *query.Query, m *schema.Mapping) (string, error) {
	qualify := func(r query.AttrRef) (alias string, target schema.Attribute, err error) {
		if target, err = q.ResolveRef(r); err != nil {
			return "", schema.Attribute{}, err
		}
		if r.Alias != "" {
			return r.Alias, target, nil
		}
		for _, s := range q.Scans() {
			if s.Relation == target.Relation {
				return s.AliasName(), target, nil
			}
		}
		return "", schema.Attribute{}, fmt.Errorf("no occurrence of %s", target.Relation)
	}
	column := func(r query.AttrRef) (string, error) {
		alias, target, err := qualify(r)
		if err != nil {
			return "", err
		}
		src, ok := m.SourceFor(target)
		if !ok {
			return "", fmt.Errorf("%w: %s under mapping %s", query.ErrNotCovered, target, m.ID)
		}
		return fmt.Sprintf("%s.%s.%s", alias, src.Relation, src.Name), nil
	}
	leaf := func(s *query.Scan) (string, error) {
		alias := s.AliasName()
		var rels []string
		var walkErr error
		var seen []string
		var visit func(n query.Node)
		visit = func(n query.Node) {
			for _, r := range query.NodeRefs(n) {
				if walkErr != nil {
					return
				}
				a, target, err := qualify(r)
				if err != nil {
					walkErr = err
					return
				}
				if a != alias || slices.Contains(seen, target.Name) {
					continue
				}
				seen = append(seen, target.Name)
				src, ok := m.SourceFor(target)
				if !ok {
					walkErr = fmt.Errorf("%w: %s under mapping %s", query.ErrNotCovered, target, m.ID)
					return
				}
				if !slices.Contains(rels, src.Relation) {
					rels = append(rels, src.Relation)
				}
			}
			for _, c := range n.Children() {
				visit(c)
			}
		}
		visit(q.Root)
		if walkErr != nil {
			return "", walkErr
		}
		if len(rels) == 0 {
			for _, c := range m.Correspondences {
				if c.Target.Relation == s.Relation && !slices.Contains(rels, c.Source.Relation) {
					rels = append(rels, c.Source.Relation)
				}
			}
			slices.Sort(rels)
			if len(rels) > 1 {
				rels = rels[:1]
			}
		}
		if len(rels) == 0 {
			return "", fmt.Errorf("%w: relation %s under mapping %s", query.ErrNotCovered, s.Relation, m.ID)
		}
		slices.Sort(rels)
		sig := ""
		for _, rel := range rels {
			scan := fmt.Sprintf("scan(%s as %s)", rel, alias+"."+rel)
			if sig == "" {
				sig = scan
			} else {
				sig = fmt.Sprintf("product(%s,%s)", sig, scan)
			}
		}
		return sig, nil
	}
	var render func(n query.Node) (string, error)
	render = func(n query.Node) (string, error) {
		if s, ok := n.(*query.Scan); ok {
			return leaf(s)
		}
		var children []string
		for _, c := range n.Children() {
			sig, err := render(c)
			if err != nil {
				return "", err
			}
			children = append(children, sig)
		}
		switch op := n.(type) {
		case *query.Select:
			col, err := column(op.Ref)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("select[%s](%s)", fmt.Sprintf("%s%s%s", col, op.Op, op.Value), children[0]), nil
		case *query.JoinSelect:
			left, err := column(op.Left)
			if err != nil {
				return "", err
			}
			right, err := column(op.Right)
			if err != nil {
				return "", err
			}
			return fmt.Sprintf("select[%s](%s)", fmt.Sprintf("%s%s%s", left, op.Op, right), children[0]), nil
		case *query.Project:
			cols := make([]string, len(op.Refs))
			for i, r := range op.Refs {
				col, err := column(r)
				if err != nil {
					return "", err
				}
				cols[i] = col
			}
			return fmt.Sprintf("project[%s](%s)", strings.Join(cols, ","), children[0]), nil
		case *query.Product:
			return fmt.Sprintf("product(%s,%s)", children[0], children[1]), nil
		case *query.Aggregate:
			col := ""
			if op.Func != engine.AggCount && !op.Ref.IsZero() {
				c, err := column(op.Ref)
				if err != nil {
					return "", err
				}
				col = c
			}
			return fmt.Sprintf("agg[%s(%s)](%s)", op.Func, col, children[0]), nil
		default:
			return "", fmt.Errorf("unsupported node %T", n)
		}
	}
	return render(q.Root)
}

// requireOracleReformulation reformulates q through m and compares the plan's
// signature — or the uncovered mapping's error — with the oracle's.
func requireOracleReformulation(t *testing.T, label string, ref *query.Reformulator, q *query.Query, m *schema.Mapping) {
	t.Helper()
	want, wantErr := oracleSignature(q, m)
	plan, err := ref.Reformulate(m)
	switch {
	case wantErr != nil || err != nil:
		if wantErr == nil || err == nil || err.Error() != wantErr.Error() || errors.Is(err, query.ErrNotCovered) != errors.Is(wantErr, query.ErrNotCovered) {
			t.Fatalf("%s: error %v, the oracle's %v", label, err, wantErr)
		}
	case plan.Signature() != want:
		t.Fatalf("%s: signature\n%s\nthe oracle's\n%s", label, plan.Signature(), want)
	}
}

// TestReformulationMatchesOracle reformulates Q1–Q10 through every one of
// h = 100 mappings over their targets and holds each plan's signature, or the
// ErrNotCovered of a mapping that cannot answer, to the per-reference oracle.
// e-basic clusters mappings and e-MQO finds shared subexpressions by these
// strings, so a byte that moves moves Table IV.
func TestReformulationMatchesOracle(t *testing.T) {
	datasets := make(map[datagen.TargetName]*datagen.Dataset)
	covered, uncovered := 0, 0
	for id := 1; id <= datagen.NumWorkloadQueries; id++ {
		target, err := datagen.QueryTarget(id)
		if err != nil {
			t.Fatal(err)
		}
		ds := datasets[target]
		if ds == nil {
			if ds, err = datagen.NewDataset(datagen.DatasetOptions{Target: target, NumMappings: 100, SizeMB: 1, Seed: 42}); err != nil {
				t.Fatal(err)
			}
			datasets[target] = ds
		}
		q := datagen.MustWorkloadQuery(id)
		res, err := q.Resolve()
		if err != nil {
			t.Fatal(err)
		}
		ref := query.NewReformulator(res)
		for _, m := range ds.Mappings() {
			requireOracleReformulation(t, fmt.Sprintf("Q%d/%s", id, m.ID), ref, q, m)
			if _, err := ref.Reformulate(m); err != nil {
				uncovered++
			} else {
				covered++
			}
		}
	}
	if covered == 0 || uncovered == 0 {
		t.Fatalf("%d covered and %d uncovered reformulations: the oracle must see both", covered, uncovered)
	}
}

// FuzzReformulate crosses FuzzParse's seed queries (testdata/fuzz/FuzzParse)
// with random mappings over the target schema: every query that parses
// reformulates through the mapping to the oracle's signature, or fails with
// the oracle's ErrNotCovered.
//
//	go test ./internal/query -run '^$' -fuzz '^FuzzReformulate$' -fuzztime 15s
func FuzzReformulate(f *testing.F) {
	files, err := filepath.Glob(filepath.Join("testdata", "fuzz", "FuzzParse", "*"))
	if err != nil {
		f.Fatal(err)
	}
	for i, file := range files {
		data, err := os.ReadFile(file)
		if err != nil {
			f.Fatal(err)
		}
		_, arg, ok := strings.Cut(strings.TrimSpace(string(data)), "\nstring(")
		if !ok {
			f.Fatalf("%s: no string argument", file)
		}
		text, err := strconv.Unquote(strings.TrimSuffix(arg, ")"))
		if err != nil {
			f.Fatalf("%s: %v", file, err)
		}
		f.Add(text, int64(i))
	}
	source := datagen.SourceSchema().Attributes()
	var targets []*schema.Schema
	for _, name := range datagen.AllTargets() {
		targets = append(targets, datagen.TargetSchema(name))
	}
	f.Fuzz(func(t *testing.T, text string, seed int64) {
		for _, target := range targets {
			q, err := query.Parse("fuzz", target, text)
			if err != nil {
				continue
			}
			res, err := q.Resolve()
			if err != nil {
				t.Fatalf("%q parsed but does not resolve: %v", text, err)
			}
			m := randomMapping(rand.New(rand.NewSource(seed)), target.Attributes(), source)
			requireOracleReformulation(t, fmt.Sprintf("%q through %v", text, m.Correspondences), query.NewReformulator(res), q, m)
		}
	})
}

// randomMapping assigns most target attributes a distinct random source
// attribute and leaves the rest uncovered.
func randomMapping(rng *rand.Rand, targets, sources []schema.Attribute) *schema.Mapping {
	perm := rng.Perm(len(sources))
	var corrs []schema.Correspondence
	for i, t := range targets {
		if i < len(perm) && rng.Intn(8) > 0 {
			corrs = append(corrs, schema.Correspondence{Source: sources[perm[i]], Target: t, Score: 1})
		}
	}
	return schema.MustNewMapping("fuzz", corrs, 1)
}
