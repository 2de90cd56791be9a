package server

import (
	"context"
	"encoding/json"
	"errors"
	"math"
	"net/http"
	"testing"

	"github.com/probdb/urm/internal/core"
	"github.com/probdb/urm/internal/datagen"
)

// FuzzScatterBody hands arbitrary bytes to the coordinator as one shard's
// scatter body, in either slot of a two-shard deployment, beside the other
// shard's real body for the same query and method, and takes them down the
// path a response takes after HTTP: acceptScatter's decode, unpack and
// identity check, then mergeParts' group-list checks and merge, top-3
// included for o-sharing.  Nothing may panic, every refusal is a 502, and a
// body that is accepted re-packs and unpacks to the same values, kind for
// kind and bit for bit.  The seeds are both shards' real Q1–Q3 bodies on the
// benchmark fixture under e-basic and o-sharing, and shard 0's bodies broken
// the ways damagedRows and damagedGroups break them; the corpus in
// testdata/fuzz/FuzzScatterBody adds hand-written envelopes.
func FuzzScatterBody(f *testing.F) {
	_, nodes := shardNodes(f, benchmarkFixture)
	type key struct{ query, method string }
	bodies := [2]map[key][]byte{{}, {}}
	for id := 1; id <= 3; id++ {
		text, err := datagen.MustWorkloadQuery(id).SQL()
		if err != nil {
			f.Fatal(err)
		}
		for _, m := range []core.Method{core.MethodEBasic, core.MethodOSharing} {
			for i, node := range nodes {
				sr, err := node.Scatter(context.Background(), ScatterRequest{Scenario: "excel", Query: text, Method: m.String()})
				if err != nil {
					f.Fatal(err)
				}
				body, err := json.Marshal(sr)
				if err != nil {
					f.Fatal(err)
				}
				bodies[i][key{sr.Query, sr.Method}] = body
				f.Add(body)
				if i > 0 {
					continue
				}
				for _, damaged := range []map[string]func(*ScatterResponse){damagedRows, damagedGroups} {
					for _, alter := range damaged {
						var copied ScatterResponse
						if err := json.Unmarshal(body, &copied); err != nil {
							f.Fatal(err)
						}
						alter(&copied)
						broken, err := json.Marshal(&copied)
						if err != nil {
							f.Fatal(err)
						}
						f.Add(broken)
					}
				}
			}
		}
	}
	refused := func(t *testing.T, err error) {
		t.Helper()
		var ae *apiError
		if !errors.As(err, &ae) || ae.status != http.StatusBadGateway {
			t.Fatalf("refused with %v, want a 502", err)
		}
	}
	f.Fuzz(func(t *testing.T, body []byte) {
		coord, err := NewCoordinator(CoordinatorConfig{Shards: 2})
		if err != nil {
			t.Fatal(err)
		}
		for slot := 0; slot < 2; slot++ {
			fuzzed, err := coord.acceptScatter(LeaseOwner{Node: "fuzzed"}, slot, body)
			if err != nil {
				refused(t, err)
				continue
			}
			sameRepacked(t, fuzzed)
			other, ok := bodies[1-slot][key{fuzzed.Query, fuzzed.Method}]
			if !ok {
				continue
			}
			real, err := coord.acceptScatter(LeaseOwner{Node: "real"}, 1-slot, other)
			if err != nil {
				t.Fatal(err)
			}
			parts := []*shardReply{fuzzed, real}
			if slot == 1 {
				parts[0], parts[1] = real, fuzzed
			}
			method, err := parseMethod(real.Method)
			if err != nil {
				t.Fatal(err)
			}
			ks := []int{0}
			if method == core.MethodOSharing {
				ks = append(ks, 3)
			}
			for _, k := range ks {
				if _, err := coord.mergeParts(method, k, parts); err != nil {
					refused(t, err)
				}
			}
		}
	})
}

// sameRepacked asserts an accepted reply's rows pack again and unpack to the
// same values: kind, string bytes, int and float bits.
func sameRepacked(t *testing.T, r *shardReply) {
	t.Helper()
	again := &ScatterResponse{Width: r.Width, Groups: make([]ScatterGroupJSON, len(r.run.Groups))}
	for gi, g := range r.run.Groups {
		for _, row := range g.Rows {
			again.Groups[gi].Rows = appendPacked(again.Groups[gi].Rows, row)
		}
	}
	run, err := unpackRun(again)
	if err != nil {
		t.Fatalf("re-packed rows do not unpack: %v", err)
	}
	for gi, g := range r.run.Groups {
		if len(run.Groups[gi].Rows) != len(g.Rows) {
			t.Fatalf("group %d: %d rows re-packed to %d", gi, len(g.Rows), len(run.Groups[gi].Rows))
		}
		for ri, row := range g.Rows {
			for vi, v := range row {
				w := run.Groups[gi].Rows[ri][vi]
				if v.Kind != w.Kind || v.Str != w.Str || v.Int != w.Int || math.Float64bits(v.Float) != math.Float64bits(w.Float) {
					t.Fatalf("group %d row %d value %d = %#v, re-packed to %#v", gi, ri, vi, v, w)
				}
			}
		}
	}
}
