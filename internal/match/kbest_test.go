package match_test

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"math"
	"sort"
	"testing"

	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/match"
	"github.com/probdb/urm/internal/schema"
)

// mappingSetDigest hashes each mapping's ID, signature and probability bits
// in order, so any change to which mappings are ranked, their order, their
// names or their probabilities changes the digest.
func mappingSetDigest(set schema.MappingSet) string {
	h := sha256.New()
	var bits [8]byte
	for _, m := range set {
		h.Write([]byte(m.ID))
		h.Write([]byte{0})
		h.Write([]byte(m.Signature()))
		h.Write([]byte{0})
		binary.LittleEndian.PutUint64(bits[:], math.Float64bits(m.Prob))
		h.Write(bits[:])
	}
	return hex.EncodeToString(h.Sum(nil))
}

// TestKBestMappingsGolden pins the ranked mapping sets of the three
// benchmark targets: every scenario, answer and bit pin in the repository
// derives from them, so the ranker may only get faster, never different.
// The counts below h on Noris and Paragon are the duplicate branches that
// KBestMappings drops (ROADMAP item 25).
func TestKBestMappingsGolden(t *testing.T) {
	golden := map[datagen.TargetName]map[int]struct {
		n      int
		digest string
	}{
		datagen.TargetExcel: {
			1:   {1, "84dfff9fae80a48aed7fe9617c8abd90363d16d510ee057ac0cc72b1431ce5e3"},
			5:   {5, "79d418e0c125dfaf9c84eab697dd181bb873e206581e35896de87c7e54f92f24"},
			20:  {20, "8442f33d1cda2d209808993cdd44fc7e67e8c788c2f8b9a8e0a5a1c1507e9098"},
			100: {100, "a8f4f76f79aeaa4025d954bcb4abe1ba438359c1d1934ea8fcbc7b8d748ca442"},
			300: {300, "2d60638411e51602ac58ef62a316cbdadfae1b0cf8461c5e5ad6a7a11e8b56e4"},
			500: {500, "8409423f0c15a71623348b997c4697757a8e5ad40aa6ddce03bb4681dde6c231"},
		},
		datagen.TargetNoris: {
			1:   {1, "951f8ad3deb92acf8622e4429ac274ec00fd38430293fd2889e733b8e3701423"},
			5:   {5, "32b7c9d1ca6b9874e9ccd36e11e1c778bede9f622419b3731df551057c608d41"},
			20:  {20, "eb7f4cb2ec869b1b36b85bb27b98023f9c06ea95fddf4e1ecf53462e79f89b22"},
			100: {92, "4c5b73fab9c15ca75606fbf18df51a5fe89be665b2e265203d81f47fef0a949a"},
			300: {192, "afa43c4ba87680d409edc596be92b98b7005aad9593765a608994e3d8c6d57fc"},
			500: {272, "d0d6de6bfdf8f1d019790d90cc525af1841b8f58764bbb6e10d3c73b13dcace5"},
		},
		datagen.TargetParagon: {
			1:   {1, "337015b6e8f9008f7355d5997ca49bc3d3e2d3456e0da299106e452e2678ff01"},
			5:   {5, "2bfd7a95acf65ad87016f3f4d2b1cc8a2d8b3b6c7549374160ecb64df626ecb7"},
			20:  {20, "c807986365c824afeaeb99e7655da50741670042bfc3c085c5a0ff1d56bbcdfb"},
			100: {100, "b4f1818acf5df09a014690e2cd6077c6e41f6ddd560f6de35b274e636fd05e42"},
			300: {298, "565c1373381e1a591363e2c91490b754e95df860fd87f5f2919de9d7c4911af4"},
			500: {491, "8d1801860a6e28d35cdc3a7b1171d901428222c0afb83fa71ba6ae093ebff2dc"},
		},
	}
	for _, target := range datagen.AllTargets() {
		for _, h := range []int{1, 5, 20, 100, 300, 500} {
			set, err := match.KBestMappings(datagen.Correspondences(target), match.KBestOptions{K: h})
			if err != nil {
				t.Fatalf("%s h=%d: %v", target, h, err)
			}
			got := mappingSetDigest(set)
			want, ok := golden[target][h]
			if !ok {
				t.Errorf("%s h=%d: no golden; got {%d, %q}", target, h, len(set), got)
				continue
			}
			if len(set) != want.n || got != want.digest {
				t.Errorf("%s h=%d: got %d mappings digest %s, want %d digest %s", target, h, len(set), got, want.n, want.digest)
			}
		}
	}
}

// kbestExcel100Allocs is the allocation count of one Excel h = 100 ranking
// (5,703 while every child was an assignment slice and a node object and
// every mapping was validated through two maps); a per-child copy of the
// weight matrix or assignment would multiply it.  It may only move down.
const kbestExcel100Allocs = 895

func TestKBestMappingsAllocations(t *testing.T) {
	corrs := datagen.Correspondences(datagen.TargetExcel)
	allocs := testing.AllocsPerRun(3, func() {
		if _, err := match.KBestMappings(corrs, match.KBestOptions{K: 100}); err != nil {
			t.Fatal(err)
		}
	})
	t.Logf("KBestMappings(Excel, h=100): %.0f allocations", allocs)
	if allocs > kbestExcel100Allocs {
		t.Errorf("KBestMappings(Excel, h=100) allocates %.0f objects, pinned at %d", allocs, kbestExcel100Allocs)
	}
}

// fuzzCorrespondences turns fuzz bytes into a correspondence set over at
// most 8 targets and 8 sources.  Scores come from a grid of 16 values, so
// equal scores and shared sources are common; a target may end up with a
// single candidate.  A repeated (target, source) pair is skipped, as a
// matcher reports each pair once.
func fuzzCorrespondences(data []byte) []schema.Correspondence {
	var corrs []schema.Correspondence
	seen := make(map[[2]byte]bool)
	for i := 0; i+1 < len(data) && len(corrs) < 24; i += 2 {
		t, s := data[i]&7, (data[i]>>3)&7
		if seen[[2]byte{t, s}] {
			continue
		}
		seen[[2]byte{t, s}] = true
		corrs = append(corrs, schema.Correspondence{
			Target: schema.Attribute{Relation: "T", Name: fmt.Sprintf("t%d", t)},
			Source: schema.Attribute{Relation: "S", Name: fmt.Sprintf("s%d", s)},
			Score:  float64(data[i+1]&15+1) / 16,
		})
	}
	return corrs
}

// bruteForceScores ranks every distinct one-to-one partial mapping of corrs
// that keeps the forced correspondences (a target whose only candidate
// source no other target wants), by total score, highest first.  It returns
// nil when more than maxAmbiguous targets are ambiguous.
func bruteForceScores(corrs []schema.Correspondence, maxAmbiguous int) []float64 {
	byTarget := make(map[schema.Attribute][]schema.Correspondence)
	wanted := make(map[schema.Attribute]int)
	var targets []schema.Attribute
	for _, c := range corrs {
		if _, ok := byTarget[c.Target]; !ok {
			targets = append(targets, c.Target)
		}
		byTarget[c.Target] = append(byTarget[c.Target], c)
		wanted[c.Source]++
	}
	forced := 0.0
	var ambiguous [][]schema.Correspondence
	for _, t := range targets {
		cs := byTarget[t]
		if len(cs) == 1 && wanted[cs[0].Source] == 1 {
			forced += cs[0].Score
			continue
		}
		ambiguous = append(ambiguous, cs)
	}
	if len(ambiguous) > maxAmbiguous {
		return nil
	}
	var totals []float64
	used := make(map[schema.Attribute]bool)
	var rec func(row int, sum float64)
	rec = func(row int, sum float64) {
		if row == len(ambiguous) {
			totals = append(totals, forced+sum)
			return
		}
		rec(row+1, sum)
		for _, c := range ambiguous[row] {
			if used[c.Source] {
				continue
			}
			used[c.Source] = true
			rec(row+1, sum+c.Score)
			used[c.Source] = false
		}
	}
	rec(0, 0)
	sort.Sort(sort.Reverse(sort.Float64Slice(totals)))
	return totals
}

// FuzzKBestMappings checks the ranker on hostile correspondence sets: it
// never panics, returns a valid set of at most K distinct mappings with
// non-increasing probabilities, its raw ranking is the from-scratch oracle's
// bit for bit, and, when at most six targets are ambiguous, the mapping
// scores are a prefix of the brute-force ranking.
func FuzzKBestMappings(f *testing.F) {
	encode := func(corrs []schema.Correspondence) []byte {
		targets, sources := map[schema.Attribute]byte{}, map[schema.Attribute]byte{}
		var b []byte
		for _, c := range corrs {
			if _, ok := targets[c.Target]; !ok {
				targets[c.Target] = byte(len(targets))
			}
			if _, ok := sources[c.Source]; !ok {
				sources[c.Source] = byte(len(sources))
			}
			b = append(b, targets[c.Target]&7|(sources[c.Source]&7)<<3, byte(int(c.Score*16)+15)&15)
		}
		return b
	}
	f.Add(encode(figure1()), uint8(5))
	for _, target := range datagen.AllTargets() {
		f.Add(encode(datagen.Correspondences(target)), uint8(20))
	}
	f.Fuzz(func(t *testing.T, data []byte, kRaw uint8) {
		corrs := fuzzCorrespondences(data)
		if len(corrs) == 0 {
			return
		}
		k := int(kRaw)%40 + 1
		set, err := match.KBestMappings(corrs, match.KBestOptions{K: k})
		if err != nil {
			t.Fatalf("KBestMappings: %v", err)
		}
		if err := set.Validate(); err != nil {
			t.Fatalf("invalid set: %v", err)
		}
		if d := match.RankingDiff(corrs, k); d != "" {
			t.Fatalf("ranking differs from the oracle: %s", d)
		}
		if len(set) > k {
			t.Fatalf("%d mappings for K = %d", len(set), k)
		}
		sigs := make(map[string]bool, len(set))
		for i, m := range set {
			if sigs[m.Signature()] {
				t.Fatalf("mapping %s repeats %s", m.ID, m.Signature())
			}
			sigs[m.Signature()] = true
			if i > 0 && m.Prob > set[i-1].Prob {
				t.Fatalf("probability rises from %g to %g at %s", set[i-1].Prob, m.Prob, m.ID)
			}
		}
		want := bruteForceScores(corrs, 6)
		if want == nil {
			return
		}
		if len(set) > len(want) {
			t.Fatalf("%d mappings, only %d distinct assignments exist", len(set), len(want))
		}
		for i, m := range set {
			if math.Abs(m.TotalScore()-want[i]) > 1e-9 {
				t.Fatalf("mapping %d (%s) scores %g, brute-force rank %d scores %g", i, m.ID, m.TotalScore(), i, want[i])
			}
		}
	})
}

func figure1() []schema.Correspondence {
	a := func(rel, name string) schema.Attribute { return schema.Attribute{Relation: rel, Name: name} }
	return []schema.Correspondence{
		{Source: a("Customer", "cname"), Target: a("Person", "pname"), Score: 0.85},
		{Source: a("Customer", "ophone"), Target: a("Person", "phone"), Score: 0.85},
		{Source: a("Customer", "hphone"), Target: a("Person", "phone"), Score: 0.83},
		{Source: a("Customer", "mobile"), Target: a("Person", "phone"), Score: 0.65},
		{Source: a("Customer", "oaddr"), Target: a("Person", "addr"), Score: 0.75},
		{Source: a("Customer", "haddr"), Target: a("Person", "addr"), Score: 0.65},
		{Source: a("Nation", "name"), Target: a("Person", "nation"), Score: 0.81},
	}
}

// BenchmarkKBestMappings times mapping generation for the three benchmark
// targets at h = 100, and Excel's at h = 500.
func BenchmarkKBestMappings(b *testing.B) {
	cases := []struct {
		target datagen.TargetName
		h      int
	}{
		{datagen.TargetExcel, 100},
		{datagen.TargetExcel, 500},
		{datagen.TargetNoris, 100},
		{datagen.TargetParagon, 100},
	}
	for _, c := range cases {
		corrs := datagen.Correspondences(c.target)
		b.Run(fmt.Sprintf("%s/h=%d", c.target, c.h), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := match.KBestMappings(corrs, match.KBestOptions{K: c.h}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
