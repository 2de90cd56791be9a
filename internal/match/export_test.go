package match

import "github.com/probdb/urm/internal/schema"

// RankingDiff ranks the first k assignments of the problem KBestMappings
// reduces corrs to, with the ranker and with the from-scratch oracle, and
// describes the first rank at which they differ; "" when they agree or
// nothing is ambiguous.
func RankingDiff(corrs []schema.Correspondence, k int) string {
	rd := reduce(corrs)
	if len(rd.base) == 0 {
		return ""
	}
	return diffRankings(murtyKBest(rd.base, k), oracleKBest(rd.base, k))
}
