package main

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"time"
)

// runTraced is the separate traced run that produces the per-layer numbers.
// It drives the workload for a long window with tracing off — counters,
// outcome latencies and runtime costs come from there, and it is three
// quarters of the run because the slowest classes (20 appends a second, 25 to
// 35 o-sharing evaluations) need twelve seconds for a 95th percentile — then
// for four windows of two seconds with a span around every request and handler
// call on, off, off and on, whose rates against each other are the tracing
// overhead.  The replay ladder follows on the idle machine, and the spans are
// written out once at the end.
//
// The ladder does not depend on the workload.  A caller tracing several
// workloads in one process passes the first run's result as ladder and the
// later runs copy its ladder metrics instead of measuring them again.
func runTraced(w workload, seed uint64, p plan, ladder *result) (*result, error) {
	tr := newTracer()
	warm, off, ab := p.warm/2, p.measure*3/4, p.measure/8
	e := &env{seed: seed, mappings: p.mappings, tr: tr, dir: p.dir, planned: warm + off + 4*ab}
	fx, err := w.setup(e)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	res, err := traceWorkload(fx, tr, p.beyond, warm, off, ab)
	fx.close() // before the ladder: it wants the machine, and the heap, to itself
	if err != nil {
		return nil, err
	}

	if ladder != nil {
		for name, m := range ladder.Metrics {
			if _, own := res.Metrics[name]; !own {
				res.Metrics[name] = m
			}
		}
	} else if res.table, err = runLadder(tr, res.Metrics, p.ladder, p.dir); err != nil {
		return nil, err
	}

	path := filepath.Join(p.dir, fmt.Sprintf("spans-%s-seed%d.jsonl", w.name, seed))
	if err := tr.writeFile(path); err != nil {
		return nil, fmt.Errorf("writing spans: %w", err)
	}
	fmt.Fprintf(os.Stderr, "benchmark: %d spans written to %s\n", len(tr.snapshot()), path)
	return res, nil
}

// traceWorkload drives a booted fixture through the traced run's windows and
// reports the per-layer metrics that come from the workload's own load.
func traceWorkload(fx fixture, tr *tracer, beyond int, warm, off, ab time.Duration) (*result, error) {
	warmS := fx.drive(warm)
	c0, err := fx.counters()
	if err != nil {
		return nil, err
	}
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	sOff := fx.drive(off)
	runtime.ReadMemStats(&m1)
	c1, err := fx.counters()
	if err != nil {
		return nil, err
	}
	// On, off, off, on: whatever drifts across the four windows — the machine,
	// append_query's growing relation — weighs on both sides alike.
	spansOn, spansOff := &samples{}, &samples{}
	for _, on := range []bool{true, false, false, true} {
		tr.on.Store(on)
		s := fx.drive(ab)
		if on {
			spansOn.merge(s)
		} else {
			spansOff.merge(s)
		}
	}
	tr.on.Store(false)
	fx.finish(spansOn)
	liveHeap := liveHeapMB() // the fixture is still alive

	res := &result{Metrics: map[string]metric{}}
	for _, s := range []*samples{warmS, sOff, spansOn, spansOff} {
		res.Attempted += s.attempted
		res.Failed += s.failed
		res.errs = append(res.errs, s.errs...)
	}
	res.Correct = res.Failed == 0
	if err := workloadLayerMetrics(res.Metrics, beyond, sOff, c1.plus(c0, -1), &m0, &m1); err != nil {
		return nil, err
	}
	res.Metrics["go.live_heap_mb"] = metric{liveHeap, "MiB"}

	overhead := 0.0
	if base := spansOff.readsPerSecond(); base > 0 {
		overhead = 1 - spansOn.readsPerSecond()/base
	}
	res.Metrics["trace.overhead_share"] = metric{overhead, "ratio"}

	// Under load the handler span really nests inside the client's, so the
	// client span's self time is what the transport and both HTTP stacks cost
	// a request while the other client competes for them.
	spans := tr.snapshot()
	self := selfTimes(spans)
	var transport []float64
	for _, s := range spans {
		if s.Name == "client.request" {
			transport = append(transport, float64(self[s.ID])/1e3)
		}
	}
	res.Metrics["http.loaded_transport_self_us"] = metric{median(transport), "us"}
	return res, nil
}

// workloadLayerMetrics derives, from the untraced window, the per-layer
// metrics that belong to the workload itself: latencies by outcome, server
// counter shares, queueing, delta maintenance and runtime costs.  An outcome
// the workload does not produce reports 0; one it produces too rarely for the
// percentile asked of it fails the run as undersized, because for a
// lower-is-better metric a made-up 0 reads as perfect.
func workloadLayerMetrics(out map[string]metric, beyond int, s *samples, d serverCounters, m0, m1 *runtime.MemStats) error {
	for _, pm := range []struct {
		name string
		xs   []float64
		pct  float64
	}{
		{"hit_p50_ms", s.lat[outcomeHit], 50},
		{"hit_p99_ms", s.lat[outcomeHit], 99},
		{"eval_p50_ms", s.lat[outcomeEval], 50},
		{"eval_p95_ms", s.lat[outcomeEval], 95},
		{"append_p50_ms", s.lat[outcomeAppend], 50},
		{"append_p95_ms", s.lat[outcomeAppend], 95},
		{"writer.late_p95_ms", s.lateMS, 95},
	} {
		v := 0.0
		if len(pm.xs) > 0 {
			var err error
			if v, err = percentile(pm.xs, pm.pct, beyond); err != nil {
				return fmt.Errorf("%s: %w", pm.name, err)
			}
		}
		out[pm.name] = metric{v, "ms"}
	}

	lookups := d.Cache.Hits + d.Cache.Misses + d.Cache.Coalesced
	out["server.cache_hit_share"] = metric{share(d.Cache.Hits, lookups), "ratio"}
	out["server.coalesced_share"] = metric{share(d.Cache.Coalesced, lookups), "ratio"}
	out["server.prepared_reuse_share"] = metric{share(d.PreparedReuses, d.PreparedReuses+d.PreparedBuilds), "ratio"}

	queueMean := 0.0
	if evals := len(s.lat[outcomeEval]); evals > 0 {
		queueMean = s.queueMS / float64(evals)
	}
	out["qos.queue_wait_ms_mean"] = metric{queueMean, "ms"}
	out["qos.rejected"] = metric{float64(s.rejected), "count"}

	out["delta.applied"] = metric{float64(d.DeltaApplied), "count"}
	out["delta.fallbacks"] = metric{float64(d.DeltaFallbacks), "count"}
	out["delta.index_inplace_appends"] = metric{float64(d.IndexInplaceAppends), "count"}
	out["delta.maintained_hit_share"] = metric{share(int64(s.maintHits), int64(s.maintReads)), "ratio"}
	out["reader.rps"] = metric{s.readsPerSecond(), "1/s"}

	ops := float64(s.attempted)
	if ops == 0 {
		ops = 1
	}
	out["go.alloc_kb_per_op"] = metric{float64(m1.TotalAlloc-m0.TotalAlloc) / 1024 / ops, "KiB"}
	out["go.gc_cycles"] = metric{float64(m1.NumGC - m0.NumGC), "count"}
	out["go.gc_pause_ms_total"] = metric{float64(m1.PauseTotalNs-m0.PauseTotalNs) / 1e6, "ms"}
	return nil
}
