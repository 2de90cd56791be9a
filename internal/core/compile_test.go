package core

import (
	"context"
	"testing"

	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/schema"
)

// TestUncompilableGroupPlanFails runs a group list holding one plan that names
// a missing source column — the second mapping maps Person.phone to a column
// Customer does not have — under every plan method, through an unsharded
// execution, a shard's run and a delta pass.  Each reports the plan's binding
// error, wrapped as the runner wraps any execution error, and nothing panics.
func TestUncompilableGroupPlanFails(t *testing.T) {
	maps := paperMappings()
	corrs := append([]schema.Correspondence(nil), maps[1].Correspondences...)
	corrs[1].Source = attr("Customer", "nosuch")
	maps[1] = schema.MustNewMapping(maps[1].ID, corrs, maps[1].Prob)
	q := mustParse(t, "q", "SELECT phone FROM Person WHERE addr = 'aaa'")
	const missing = `executing source query: project: column "Person.Customer.nosuch" not found in [Person.Customer.cid Person.Customer.cname Person.Customer.ophone Person.Customer.hphone Person.Customer.mobile Person.Customer.oaddr Person.Customer.haddr Person.Customer.nid]`
	for _, m := range []Method{MethodBasic, MethodEBasic, MethodEMQO, MethodQSharing} {
		want := m.String() + ": " + missing
		db := paperInstance()
		prep, err := NewEvaluator(db, maps).Prepare(q)
		if err != nil {
			t.Fatal(err)
		}
		opts := Options{Method: m, Parallelism: 2}
		if _, err := prep.ExecuteContext(context.Background(), opts); err == nil || err.Error() != want {
			t.Errorf("%s execute: error %v, want %s", m, err, want)
		}
		ec := opts.Context(context.Background())
		sp, err := prep.FrontHalf(ec, opts)
		if err != nil {
			t.Fatalf("%s front half: %v", m, err)
		}
		if _, err := sp.ExecuteOn(ec, db); err == nil || err.Error() != want {
			t.Errorf("%s shard run: error %v, want %s", m, err, want)
		}
		// A state whose covered lengths are zero: its one pass per scanned
		// relation treats every row as appended.
		st := &DeltaState{sp: sp, q: q, lens: map[string]int{}, run: &ShardRun{
			Groups: make([]GroupRows, len(sp.Groups)), Pruned: make([]bool, len(sp.Groups)), Stats: engine.NewStats(),
		}}
		if _, err := st.ApplyDelta(ec, db); err == nil || err.Error() != want {
			t.Errorf("%s delta pass: error %v, want %s", m, err, want)
		}
	}
}
