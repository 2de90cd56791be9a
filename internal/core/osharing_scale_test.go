package core

import (
	"crypto/sha256"
	"fmt"
	"math"
	"runtime"
	"strings"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
	"github.com/probdb/urm/internal/exec"
)

// TestOSharingAtBenchmarkScale pins o-sharing on the fixture the benchmark
// serves (Excel, 100 mappings, 40 MB, seed 42), where extending a fragment
// with an unfiltered source relation used to dominate its cost: o-sharing and
// top-k agree with e-basic on Q1–Q5 under every strategy, at parallelism 1 and
// 8, cold and prepared; and the SEF operator counts (what Table IV reports)
// and rows read stay at their recorded values.  The rows are pinned rather than
// bounded by a multiple of e-basic's: the methods avoid building rows in
// different ways — e-basic skips the product and join pairs its set consumers
// never count, o-sharing keeps its fragments factorized and flattens only at
// the root — by different factors per query (Q2: e-basic reads 507 rows,
// o-sharing 229; Q4: 44,774 and 603), so a bound relative to e-basic would
// test e-basic's plans as much as o-sharing's.  TestRowsReadGrowth bounds how
// the rows grow with the instance.
//
// sefAllocs pins testing.AllocsPerRun of one prepared SEF evaluation at
// Parallelism 1: the counts measured once o-sharing bound each trace node's
// operator at plan time, rounded up by 10% (Q1/Q2/Q3/Q5: 203/307/333/129,
// from 614/568/798/658 when every walk bound its operators again).  A walk
// that names columns, clones e-units or compiles predicates again fails here
// on any machine.  The pin may move only down.
func TestOSharingAtBenchmarkScale(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	ev := NewEvaluator(ds.DB, ds.Mappings())
	sefOperators := map[int]int{1: 28, 2: 14, 3: 29, 5: 41}
	sefRowsRead := map[int]int{1: 159, 2: 229, 3: 1203, 4: 603, 5: 61}
	sefAllocs := map[int]float64{1: 224, 2: 338, 3: 367, 5: 142}

	for id := 1; id <= 5; id++ {
		q := datagen.MustWorkloadQuery(id)
		want, err := ev.Evaluate(q, Options{Method: MethodEBasic, Parallelism: 1})
		if err != nil {
			t.Fatalf("Q%d e-basic: %v", id, err)
		}
		prep, err := ev.Prepare(q)
		if err != nil {
			t.Fatalf("Q%d prepare: %v", id, err)
		}
		for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
			for _, par := range []int{1, 8} {
				opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: par, RandomSeed: 7}
				label := fmt.Sprintf("Q%d/%s/p%d", id, st, par)
				cold, err := ev.Evaluate(q, opts)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				sameAnswers(t, want, cold, label+" cold")
				prepared, err := prep.Execute(opts)
				if err != nil {
					t.Fatalf("%s prepared: %v", label, err)
				}
				identicalResults(t, label+" prepared", cold, prepared)
				if st != StrategySEF {
					continue
				}
				if n, ok := sefOperators[id]; ok && cold.Stats.TotalOperators() != n {
					t.Errorf("%s executed %d operators (%v), want %d", label, cold.Stats.TotalOperators(), cold.Stats.Operators(), n)
				}
				if n := sefRowsRead[id]; cold.Stats.RowsRead() != n {
					t.Errorf("%s read %d rows, want %d", label, cold.Stats.RowsRead(), n)
				}
				if n, ok := sefAllocs[id]; ok && par == 1 {
					if got := testing.AllocsPerRun(10, func() { prep.Execute(opts) }); got > n {
						t.Errorf("%s prepared allocated %v times per evaluation, pinned at %v", label, got, n)
					}
				}
			}

			for _, k := range []int{1, 3} {
				opts := Options{Strategy: st, RandomSeed: 7}
				label := fmt.Sprintf("Q%d/%s/top-%d", id, st, k)
				top, err := evaluateTopK(ev, q, k, opts)
				if err != nil {
					t.Fatalf("%s cold: %v", label, err)
				}
				requireValidTopK(t, label, want, top, k)
				preparedTop, err := executeTopK(prep, k, opts)
				if err != nil {
					t.Fatalf("%s prepared: %v", label, err)
				}
				identicalResults(t, label+" prepared", top, preparedTop)
			}
		}
	}

	// The bits themselves, recorded before o-sharing's u-trace was planned
	// at Prepare: Case 2 prunes nodes with several mappings on Q1 and Q5
	// under SEF and SNF.  Parallelism must not move them.
	if runtime.GOARCH != "amd64" {
		t.Skipf("bits recorded on amd64; on %s the compiler may fuse float operations in data generation", runtime.GOARCH)
	}
	for id := 1; id <= 5; id++ {
		prep, err := ev.Prepare(datagen.MustWorkloadQuery(id))
		if err != nil {
			t.Fatalf("Q%d prepare: %v", id, err)
		}
		for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
			for _, k := range []int{0, 1, 3} {
				cell := fmt.Sprintf("Q%d/%s/top-%d", id, st, k)
				if k == 0 {
					cell = fmt.Sprintf("Q%d/%s/o-sharing", id, st)
				}
				for _, par := range []int{1, 8} {
					opts := Options{Method: MethodOSharing, Strategy: st, RandomSeed: 7, Parallelism: par}
					res, err := prep.Execute(opts)
					if k > 0 {
						res, err = executeTopK(prep, k, opts)
					}
					if err != nil {
						t.Fatalf("%s/p%d: %v", cell, par, err)
					}
					if got := answerBits(res); got != osharingBits[cell] {
						t.Errorf("%s/p%d: answers hash to %s, want %s", cell, par, got, osharingBits[cell])
					}
				}
			}
		}
	}
}

// TestOSharingOnNorisAndParagon runs o-sharing on Table III's Noris and
// Paragon queries (Q6–Q10; 100 mappings, 40 MB, seed 42).  Q7, Q9 and Q10 are
// products under a projection, a SUM and a COUNT: the cases where a
// factorized fragment is flattened, summed in another row order and counted
// factor by factor.  Under every strategy, at parallelism 1 and 8, o-sharing
// agrees with e-basic, and prepared execution is bit-identical to cold.
func TestOSharingOnNorisAndParagon(t *testing.T) {
	for _, target := range []datagen.TargetName{datagen.TargetNoris, datagen.TargetParagon} {
		ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: target, NumMappings: 100, SizeMB: 40, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		ev := NewEvaluator(ds.DB, ds.Mappings())
		for id := 6; id <= datagen.NumWorkloadQueries; id++ {
			if qt, err := datagen.QueryTarget(id); err != nil || qt != target {
				continue
			}
			q := datagen.MustWorkloadQuery(id)
			want, err := ev.Evaluate(q, Options{Method: MethodEBasic, Parallelism: 1})
			if err != nil {
				t.Fatalf("Q%d e-basic: %v", id, err)
			}
			prep, err := ev.Prepare(q)
			if err != nil {
				t.Fatalf("Q%d prepare: %v", id, err)
			}
			for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
				for _, par := range []int{1, 8} {
					opts := Options{Method: MethodOSharing, Strategy: st, Parallelism: par, RandomSeed: 7}
					label := fmt.Sprintf("Q%d/%s/p%d", id, st, par)
					cold, err := ev.Evaluate(q, opts)
					if err != nil {
						t.Fatalf("%s cold: %v", label, err)
					}
					sameAnswers(t, want, cold, label+" cold")
					prepared, err := prep.Execute(opts)
					if err != nil {
						t.Fatalf("%s prepared: %v", label, err)
					}
					identicalResults(t, label+" prepared", cold, prepared)
				}
			}
		}
	}
}

// answerBits hashes what must repeat bit for bit: the answers in order, each
// tuple's key and probability bits, and the empty probability's bits.
func answerBits(res *Result) string {
	h := sha256.New()
	for _, a := range res.Answers {
		fmt.Fprintf(h, "%s %x\n", a.Tuple.Key(), math.Float64bits(a.Prob))
	}
	fmt.Fprintf(h, "empty %x\n", math.Float64bits(res.EmptyProb))
	return fmt.Sprintf("%x", h.Sum(nil))
}

// osharingBits is answerBits of o-sharing and top-k on the benchmark fixture
// (Random seeded with 7).  In Q2's and Q4's top-3 more than three answers tie
// at the highest lower bound; top-k ranks ties by canonical key, as the
// aggregator does, so those cells hold the three first by key.  Q3's and Q5's
// top-1 cells and Q5/SNF/top-3 stop before the walk ends, so they hold the
// lower bounds at their stop.
var osharingBits = map[string]string{
	"Q1/SEF/o-sharing":    "a632793ff448de22c7df9abe4d5101a2aa0108a4fc98d6538aaaedbe85ab96ce",
	"Q1/SEF/top-1":        "c95c8d222b0fc9921259a15181e00c17f651e47521f9ccd674092f1db0a0c588",
	"Q1/SEF/top-3":        "784aa4384367726736c51bf55fd7a90bd548ae4ab54bcb49e4c790fb7dd0c4f0",
	"Q1/SNF/o-sharing":    "a632793ff448de22c7df9abe4d5101a2aa0108a4fc98d6538aaaedbe85ab96ce",
	"Q1/SNF/top-1":        "c95c8d222b0fc9921259a15181e00c17f651e47521f9ccd674092f1db0a0c588",
	"Q1/SNF/top-3":        "784aa4384367726736c51bf55fd7a90bd548ae4ab54bcb49e4c790fb7dd0c4f0",
	"Q1/Random/o-sharing": "a632793ff448de22c7df9abe4d5101a2aa0108a4fc98d6538aaaedbe85ab96ce",
	"Q1/Random/top-1":     "c95c8d222b0fc9921259a15181e00c17f651e47521f9ccd674092f1db0a0c588",
	"Q1/Random/top-3":     "784aa4384367726736c51bf55fd7a90bd548ae4ab54bcb49e4c790fb7dd0c4f0",
	"Q2/SEF/o-sharing":    "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q2/SEF/top-1":        "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q2/SEF/top-3":        "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q2/SNF/o-sharing":    "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q2/SNF/top-1":        "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q2/SNF/top-3":        "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q2/Random/o-sharing": "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q2/Random/top-1":     "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q2/Random/top-3":     "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q3/SEF/o-sharing":    "ba63e71cacbfd16990db0eab81ef10d0e301ed2481a1fd5558b7afeb2097130d",
	"Q3/SEF/top-1":        "d7ff23ee32c72cfea5abf9f7d7301aa74240fc3b91e63cb5765616c4c8a0036d",
	"Q3/SEF/top-3":        "d6a0f0cbd7b9cd05d0fbf1b8f349e429a64b78790781a77fdf2caa9c4f12433c",
	"Q3/SNF/o-sharing":    "ba63e71cacbfd16990db0eab81ef10d0e301ed2481a1fd5558b7afeb2097130d",
	"Q3/SNF/top-1":        "d7ff23ee32c72cfea5abf9f7d7301aa74240fc3b91e63cb5765616c4c8a0036d",
	"Q3/SNF/top-3":        "d6a0f0cbd7b9cd05d0fbf1b8f349e429a64b78790781a77fdf2caa9c4f12433c",
	"Q3/Random/o-sharing": "fda31e42edc2886d0dbb28c352ff177c24919837cfa50d1445e818601754b2ad",
	"Q3/Random/top-1":     "d7ff23ee32c72cfea5abf9f7d7301aa74240fc3b91e63cb5765616c4c8a0036d",
	"Q3/Random/top-3":     "3632dd6b180a6966003823067100bf27fbe30feb10d7c0237102f5bbf147b474",
	"Q4/SEF/o-sharing":    "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q4/SEF/top-1":        "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q4/SEF/top-3":        "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q4/SNF/o-sharing":    "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q4/SNF/top-1":        "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q4/SNF/top-3":        "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q4/Random/o-sharing": "e0eff599eb736f07b5396704eef243bca41a4b5a147c715e1b2eab42ffa0791c",
	"Q4/Random/top-1":     "1ca5591f3390abf755208e8e21d223d579465698b17f8c7f9b9397ee32e24f5e",
	"Q4/Random/top-3":     "ee213422c6ccc0e5a9b7ea247531efd33006040a29eab39f953118412236cbf8",
	"Q5/SEF/o-sharing":    "5b0ca72a43bd85954b826b4d9cd39ab59c7824d0bfff8a307e538d08b9355c6f",
	"Q5/SEF/top-1":        "ebeef4b5613568c9df0fd0649e9902057c11b7c520fcaa6e02aa274353554bed",
	"Q5/SEF/top-3":        "0184e99374b32f55f2b1cf4022844df4ae8c364bdb60e6fde97bbf31cf04dca1",
	"Q5/SNF/o-sharing":    "86b76ecee1352971975d57c5725e1374ac84baa865d8a81661dfcaf77a9b5b48",
	"Q5/SNF/top-1":        "4ca75732b05bfacb4e90d1459b17494a13815c9d4c37bf9abcd276cf96cebbc2",
	"Q5/SNF/top-3":        "31980ae5b5136c812abc715814fb48cbb2b1f4bf4d578d6f373c9113bc7ea079",
	"Q5/Random/o-sharing": "5b0ca72a43bd85954b826b4d9cd39ab59c7824d0bfff8a307e538d08b9355c6f",
	"Q5/Random/top-1":     "ebeef4b5613568c9df0fd0649e9902057c11b7c520fcaa6e02aa274353554bed",
	"Q5/Random/top-3":     "0184e99374b32f55f2b1cf4022844df4ae8c364bdb60e6fde97bbf31cf04dca1",
}

// requireValidTopK checks top against the exact result: it holds min(k, all)
// answers, each with an exact probability no lower than the first answer left
// out, and each reported bound no higher than the exact probability.
func requireValidTopK(t *testing.T, label string, exact, top *Result, k int) {
	t.Helper()
	label = fmt.Sprintf("%s k=%d", label, k)
	n := min(k, len(exact.Answers))
	if len(top.Answers) != n {
		t.Fatalf("%s: %d answers, want %d", label, len(top.Answers), n)
	}
	threshold := 0.0
	if n < len(exact.Answers) {
		threshold = exact.Answers[n].Prob
	}
	for _, a := range top.Answers {
		p := exact.Lookup(a.Tuple)
		if p+1e-9 < threshold {
			t.Errorf("%s: %v has exact probability %g, below the cut at %g", label, a.Tuple, p, threshold)
		}
		if a.Prob > p+1e-9 {
			t.Errorf("%s: %v reported bound %g above its exact probability %g", label, a.Tuple, a.Prob, p)
		}
	}
}

// TestUTraceReadsNoData pins that planning o-sharing's u-trace reads the
// e-units' structure and never a row: on Q1–Q5 under every strategy, the trace
// planned over the benchmark fixture's schemas with no rows is the trace
// planned over its 40 MB — the same operators, representatives, mappings, mass
// bits, child order and uncovered leaves.  On Q4, where no fragment empties,
// the walk hands the consumer exactly the trace's leaves, in pre-order.
func TestUTraceReadsNoData(t *testing.T) {
	ds, err := datagen.NewDataset(datagen.DatasetOptions{Target: datagen.TargetExcel, NumMappings: 100, SizeMB: 40, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	bare := engine.NewInstance("bare")
	for _, name := range ds.DB.RelationNames() {
		bare.AddRelation(engine.NewRelation(name, ds.DB.Relation(name).Columns))
	}
	ec := exec.Sequential()
	for id := 1; id <= 5; id++ {
		q, err := datagen.MustWorkloadQuery(id).Resolve()
		if err != nil {
			t.Fatal(err)
		}
		for _, st := range []Strategy{StrategySEF, StrategySNF, StrategyRandom} {
			label := fmt.Sprintf("Q%d/%s", id, st)
			full, err := planTrace(ec, MethodOSharing, q, ds.Mappings(), ds.DB, st, 7)
			if err != nil {
				t.Fatalf("%s over the data: %v", label, err)
			}
			empty, err := planTrace(ec, MethodOSharing, q, ds.Mappings(), bare, st, 7)
			if err != nil {
				t.Fatalf("%s over no rows: %v", label, err)
			}
			var want, got strings.Builder
			var leaves []*traceNode
			printTrace(&want, full.trace.root, 0, &leaves)
			printTrace(&got, empty.trace.root, 0, nil)
			if want.String() != got.String() {
				t.Errorf("%s: the trace over no rows differs from the trace over the data:\n%s\nwant\n%s", label, got.String(), want.String())
			}
			if id != 4 {
				continue
			}
			var taken []string
			run := &ShardRun{Stats: engine.NewStats()}
			err = full.executeInto(ec, ds.DB, run, groupConsumer{take: func(gi int, prob float64, _ []engine.Tuple) bool {
				taken = append(taken, fmt.Sprintf("%d@%x", gi, math.Float64bits(prob)))
				return false
			}})
			if err != nil {
				t.Fatalf("%s walk: %v", label, err)
			}
			planned := make([]string, len(leaves))
			for i, n := range leaves {
				planned[i] = fmt.Sprintf("%d@%x", n.id, math.Float64bits(n.part.Prob))
			}
			if strings.Join(taken, " ") != strings.Join(planned, " ") {
				t.Errorf("%s: the walk handed over %v, want the leaves %v", label, taken, planned)
			}
		}
	}
}

// printTrace writes the trace below n in pre-order, one node per line, and
// appends its leaves to leaves when that is non-nil.
func printTrace(b *strings.Builder, n *traceNode, depth int, leaves *[]*traceNode) {
	op := -1
	if n.op != nil {
		op = n.op.id
	}
	ids := make([]string, len(n.part.Mappings))
	for i, m := range n.part.Mappings {
		ids[i] = m.ID
	}
	rep := ""
	if n.part.Representative != nil {
		rep = n.part.Representative.ID
	}
	fmt.Fprintf(b, "%s#%d op %d rep %s maps %s mass %x uncovered %v\n",
		strings.Repeat(" ", depth), n.id, op, rep, strings.Join(ids, ","), math.Float64bits(n.part.Prob), n.uncovered)
	if len(n.children) == 0 && leaves != nil {
		*leaves = append(*leaves, n)
	}
	for _, c := range n.children {
		printTrace(b, c, depth+1, leaves)
	}
}
