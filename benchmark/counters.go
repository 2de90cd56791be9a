package main

import (
	"encoding/json"

	urm "github.com/probdb/urm"
)

// serverCounters is the subset of a server's /metrics the benchmark reads.
// It is decoded from the JSON form of Server.Metrics(), whose keys are the
// service's published contract, so a refactor of the Go struct behind it
// does not reach the benchmark.
type serverCounters struct {
	Rejected            int64 `json:"rejected"`
	Evaluations         int64 `json:"evaluations"`
	PreparedBuilds      int64 `json:"prepared_builds"`
	PreparedReuses      int64 `json:"prepared_reuses"`
	DeltaApplied        int64 `json:"delta_applied"`
	DeltaFallbacks      int64 `json:"delta_fallbacks"`
	IndexInplaceAppends int64 `json:"index_inplace_appends"`
	Cache               struct {
		Hits      int64 `json:"hits"`
		Misses    int64 `json:"misses"`
		Coalesced int64 `json:"coalesced"`
	} `json:"cache"`
	QueueWait struct {
		Count int64   `json:"count"`
		SumMS float64 `json:"sum_ms"`
	} `json:"queue_wait"`
}

func readCounters(srv *urm.Server) (serverCounters, error) {
	var c serverCounters
	data, err := json.Marshal(srv.Metrics())
	if err != nil {
		return c, err
	}
	return c, json.Unmarshal(data, &c)
}

func sumCounters(servers []*urm.Server) (serverCounters, error) {
	var sum serverCounters
	for _, srv := range servers {
		c, err := readCounters(srv)
		if err != nil {
			return sum, err
		}
		sum = sum.plus(c, 1)
	}
	return sum, nil
}

// plus returns a + sign·b, field by field.
func (a serverCounters) plus(b serverCounters, sign int64) serverCounters {
	a.Rejected += sign * b.Rejected
	a.Evaluations += sign * b.Evaluations
	a.PreparedBuilds += sign * b.PreparedBuilds
	a.PreparedReuses += sign * b.PreparedReuses
	a.DeltaApplied += sign * b.DeltaApplied
	a.DeltaFallbacks += sign * b.DeltaFallbacks
	a.IndexInplaceAppends += sign * b.IndexInplaceAppends
	a.Cache.Hits += sign * b.Cache.Hits
	a.Cache.Misses += sign * b.Cache.Misses
	a.Cache.Coalesced += sign * b.Cache.Coalesced
	a.QueueWait.Count += sign * b.QueueWait.Count
	a.QueueWait.SumMS += float64(sign) * b.QueueWait.SumMS
	return a
}

// share is num/den, 0 when nothing was counted.
func share(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
