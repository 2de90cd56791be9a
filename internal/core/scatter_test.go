package core

import (
	"testing"

	"github.com/probdb/urm/internal/engine"
)

// TestDistributable pins the plan classification: one verdict per plan shape,
// read by a shard's scatter (distributes over the partitioned relation) and by
// the delta (maintainable under appends).
func TestDistributable(t *testing.T) {
	scan := func(rel string) engine.Plan { return &engine.ScanPlan{Relation: rel} }
	join := &engine.JoinPlan{LeftCol: "a", RightCol: "b", Left: scan("Orders"), Right: scan("Customer")}
	selfJoin := &engine.JoinPlan{LeftCol: "a", RightCol: "b", Left: scan("Orders"), Right: scan("Orders")}
	agg := &engine.AggregatePlan{Child: scan("Orders")}
	cases := []struct {
		name         string
		plan         engine.Plan
		distributes  bool
		maintainable bool
	}{
		{"single scan", scan("Orders"), true, true},
		{"replicated only", scan("Customer"), true, true},
		{"join single ref", join, true, true},
		{"self join", selfJoin, false, false},
		{"aggregate", agg, false, false},
		{"distinct over join", &engine.DistinctPlan{Child: join}, true, true},
		{"materialized input", &engine.MaterialPlan{Label: "m"}, false, false},
	}
	for _, c := range cases {
		sp := &ScatterPlan{Groups: []ScatterGroup{{Prob: 0.5}, {Prob: 0.5, Plan: c.plan}}}
		sp.compile(paperInstance())
		if sp.DistributesOver("Orders") {
			t.Errorf("%s: an unanalysed plan distributes", c.name)
		}
		sp.analyse()
		if got := sp.DistributesOver("Orders"); got != c.distributes {
			t.Errorf("%s: DistributesOver = %v, want %v", c.name, got, c.distributes)
		}
		if got := sp.shape.unmaintainable == nil; got != c.maintainable {
			t.Errorf("%s: maintainable = %v (%v), want %v", c.name, got, sp.shape.unmaintainable, c.maintainable)
		}
	}
}
