package query_test

import (
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/query"
	"github.com/probdb/urm/internal/schema"
)

// FuzzParse holds the parser to the cache-key contract over arbitrary text:
// Parse never panics, and every query it accepts against any of the three
// target schemas renders through SQL() to a text that re-parses to an equal
// AST and renders to itself again (assertRoundTrip).  The seed corpus in
// testdata/fuzz holds the canonical texts of the Table III workload, the
// selection chains and the self-joins.
//
//	go test ./internal/query -run '^$' -fuzz '^FuzzParse$' -fuzztime 15s
func FuzzParse(f *testing.F) {
	var targets []*schema.Schema
	for _, name := range datagen.AllTargets() {
		targets = append(targets, datagen.TargetSchema(name))
	}
	f.Fuzz(func(t *testing.T, text string) {
		for _, target := range targets {
			if q, err := query.Parse("fuzz", target, text); err == nil {
				assertRoundTrip(t, q)
			}
		}
	})
}
