// Command urm-serve runs the query service: it generates (or is pointed at)
// scenarios, registers them with warm base-relation indexes, and serves the
// HTTP JSON API with admission control, an answer cache, a per-scenario
// prepared-query cache (answer-cache misses skip parse/reformulate/compile;
// see /metrics prepared_builds vs prepared_reuses) and graceful drain.
//
// Usage:
//
//	urm-serve                                   # Excel scenario on :8080
//	urm-serve -targets Excel,Noris -addr :9000  # two scenarios
//	urm-serve -mappings 100 -size 40            # paper-scale data
//	urm-serve -max-concurrent 4 -timeout 10s    # tighter admission control
//	urm-serve -tenant-rate 50 -tenants gold=4   # per-tenant QoS (X-URM-Tenant)
//	urm-serve -data-dir ./data                  # durable scenarios (WAL + snapshots)
//
// With -data-dir, scenarios and every row appended through POST /v1/append
// are written to a checksummed write-ahead log and survive restarts: on boot
// the server replays the store (serving 503 "recovering" from /healthz until
// done), reports recovery stats, and only generates the -targets scenarios
// that are not already on disk.  Scenarios whose on-disk state fails its
// checksums are quarantined — the rest of the node serves normally while the
// quarantined names answer 503.
//
// Query it:
//
//	curl -s localhost:8080/v1/query -d '{
//	  "scenario": "excel",
//	  "query": "SELECT orderNum FROM PO WHERE telephone = '\''335-1736'\''",
//	  "method": "o-sharing"
//	}'
//
// -debug-addr serves net/http/pprof on a listener of its own, never on the
// API's, so a profile of the running server is one request away:
//
//	urm-serve -debug-addr 127.0.0.1:6060 &
//	go tool pprof 'http://127.0.0.1:6060/debug/pprof/profile?seconds=10'
//
// SIGINT/SIGTERM triggers a graceful stop: new requests are refused with 503,
// in-flight requests finish (bounded by -drain-timeout), then the listener
// closes and the process exits 0.
//
// # Multi-node sharding
//
// A deployment can partition one relation across several nodes behind a
// coordinator.  Each shard node regenerates the full scenario from the shared
// seed, keeps only its slice, and heartbeats the coordinator, which owns the
// shard map (lease-based: a node that stops heartbeating loses its shards
// after -lease-interval × 3) and no data:
//
//	urm-serve -coordinator -shard-count 2 -addr :8080 &
//	urm-serve -addr :8081 -shard-index 0 -shard-count 2 -shard-by Orders.o_orderkey \
//	          -coordinator-addr http://localhost:8080 -advertise http://localhost:8081 &
//	urm-serve -addr :8082 -shard-index 1 -shard-count 2 -shard-by Orders.o_orderkey \
//	          -coordinator-addr http://localhost:8080 -advertise http://localhost:8082 &
//
// Queries POSTed to the coordinator's /v1/query fan out to the lease owners
// as /v1/scatter requests and merge bit-identically to a single node holding
// all the data, top-k requests included.  Queries that cannot distribute
// (self-joins or aggregates of the partitioned relation) answer 422.
package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	urm "github.com/probdb/urm"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "urm-serve:", err)
		os.Exit(1)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("urm-serve", flag.ContinueOnError)
	var (
		addr     = fs.String("addr", ":8080", "listen address")
		targets  = fs.String("targets", "Excel", "comma-separated target schemas to register (Excel, Noris, Paragon); each becomes a scenario named after its lowercased target")
		mappings = fs.Int("mappings", 100, "number of possible mappings h per scenario")
		sizeMB   = fs.Float64("size", 40, "nominal source scale in MB, not bytes: 40 generates 423 rows, 100 generates 1,050 (the paper's 100 MB TPC-H instance has ~866,000)")
		seed     = fs.Uint64("seed", 42, "data-generation seed")
		maxConc  = fs.Int("max-concurrent", 0, "maximum concurrent evaluations (0 = all cores); excess requests get 429")
		quWait   = fs.Duration("queue-wait", 100*time.Millisecond, "how long a request may wait for an evaluation slot before 429")
		timeout  = fs.Duration("timeout", 30*time.Second, "per-request evaluation deadline cap")
		cacheMB  = fs.Int("cache-mb", 64, "answer cache budget in MiB (0 disables caching, keeps request coalescing)")
		parallel = fs.Int("parallel", 1, "worker goroutines per evaluation (0 = all cores); total workers reach max-concurrent×parallel")
		warm     = fs.Bool("warm", true, "build every base-relation index at registration instead of on first use")
		drainTO  = fs.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")

		tenantRate  = fs.Float64("tenant-rate", 0, "global evaluation admissions/sec shared by active tenants via X-URM-Tenant (0 disables rate limiting)")
		tenantBurst = fs.Float64("tenant-burst", 0, "shared burst allowance (0 = one second of -tenant-rate)")
		tenantSpecs = fs.String("tenants", "", "per-tenant QoS config, comma-separated name=weight[/priority], e.g. gold=4/interactive,batchjobs=1/batch")
		noStale     = fs.Bool("no-stale", false, "disable stale-answer degradation (serve 429 instead of a flagged previous-epoch answer)")
		noDelta     = fs.Bool("no-delta", false, "disable incremental maintenance of cached answers (appends invalidate every cached answer instead)")

		dataDir   = fs.String("data-dir", "", "durable store directory; empty keeps scenarios in memory only")
		fsyncWAL  = fs.Bool("fsync", true, "fsync the write-ahead log after every appended row (registration, snapshots and drops are always synced)")
		snapEvery = fs.Int("snapshot-every", 256, "WAL records between snapshots that truncate the log (negative disables automatic snapshots)")

		coordMode   = fs.Bool("coordinator", false, "run as a multi-node coordinator: no data, fans /v1/query out to the lease-owning shard nodes")
		shardIndex  = fs.Int("shard-index", -1, "serve shard slice i of -shard-count (requires -shard-by); -1 serves the whole scenario")
		shardCount  = fs.Int("shard-count", 0, "total shards in the deployment (required by -coordinator and -shard-index)")
		shardBy     = fs.String("shard-by", "", "Relation.column to partition the source instance by, e.g. Orders.o_orderkey")
		shardKind   = fs.String("shard-kind", "hash", "partitioner: hash or range")
		coordAddr   = fs.String("coordinator-addr", "", "coordinator base URL this shard node heartbeats, e.g. http://localhost:8080")
		advertise   = fs.String("advertise", "", "URL the coordinator should reach this node at (default http://127.0.0.1<addr>)")
		nodeName    = fs.String("node-name", "", "stable node identity for leases (default the advertise URL)")
		leaseEvery  = fs.Duration("lease-interval", 2*time.Second, "heartbeat cadence; a node's leases expire after 3 missed heartbeats")
		slowQueryMS = fs.Int("slow-query-ms", 0, "log any query slower than this many milliseconds (0 disables the slow-query log)")
		debugAddr   = fs.String("debug-addr", "", "serve net/http/pprof on this address, on a listener of its own, e.g. 127.0.0.1:6060 (empty disables it)")
	)
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		fs.Usage()
		return fmt.Errorf("unexpected trailing arguments: %q", fs.Args())
	}

	debug, err := serveDebug(*debugAddr)
	if err != nil {
		return err
	}
	if debug != nil {
		defer debug.Close()
	}

	if *coordMode {
		return runCoordinator(*addr, *shardCount, *leaseEvery, *timeout, *dataDir, *fsyncWAL, *snapEvery, *drainTO)
	}

	// Shard mode: this node holds one slice of the partitioned relation.
	var shardSpec *urm.ShardSpec
	var shardIdentity *urm.ShardIdentity
	if *shardIndex >= 0 {
		if *shardCount < 1 {
			return fmt.Errorf("-shard-index requires -shard-count >= 1")
		}
		if *shardIndex >= *shardCount {
			return fmt.Errorf("-shard-index %d out of range for -shard-count %d", *shardIndex, *shardCount)
		}
		rel, col, ok := strings.Cut(*shardBy, ".")
		if !ok || rel == "" || col == "" {
			return fmt.Errorf("-shard-index requires -shard-by Relation.column, got %q", *shardBy)
		}
		kind, err := urm.ParseShardKind(*shardKind)
		if err != nil {
			return fmt.Errorf("-shard-kind: %w", err)
		}
		shardSpec = &urm.ShardSpec{Relation: rel, Column: col, Shards: *shardCount, Kind: kind}
		adv := *advertise
		if adv == "" {
			if strings.HasPrefix(*addr, ":") {
				adv = "http://127.0.0.1" + *addr
			} else {
				adv = "http://" + *addr
			}
		}
		name := *nodeName
		if name == "" {
			name = adv
		}
		*advertise, *nodeName = adv, name
		shardIdentity = &urm.ShardIdentity{
			Node:     name,
			Index:    *shardIndex,
			Count:    *shardCount,
			Relation: rel,
			Column:   col,
			Kind:     kind.String(),
		}
	} else if *shardBy != "" {
		return fmt.Errorf("-shard-by requires -shard-index (or -coordinator)")
	}

	cacheBytes := int64(*cacheMB) << 20
	if *cacheMB <= 0 {
		cacheBytes = -1
	}
	var tenants map[string]urm.TenantQoS
	if *tenantSpecs != "" {
		tenants = make(map[string]urm.TenantQoS)
		for _, spec := range strings.Split(*tenantSpecs, ",") {
			name, val, ok := strings.Cut(strings.TrimSpace(spec), "=")
			if !ok || name == "" {
				return fmt.Errorf("-tenants: bad entry %q (want name=weight[/priority])", spec)
			}
			t, err := urm.ParseTenantSpec(name, val)
			if err != nil {
				return fmt.Errorf("-tenants: %w", err)
			}
			tenants[name] = t
		}
	}
	registry := urm.NewRegistry()
	if *dataDir != "" {
		// A data directory written by a newer build fails here, before the
		// listener comes up: refusing to serve beats misreading the format.
		st, err := urm.OpenStore(*dataDir, urm.StoreOptions{Fsync: *fsyncWAL, SnapshotEvery: *snapEvery})
		if err != nil {
			return err
		}
		registry = urm.NewRegistryWithStore(st)
	}
	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	// The server starts listening before recovery and registration so
	// /healthz can report "recovering" (503) instead of refusing connections;
	// queries are gated until SetRecovering(false).
	serverCfg := urm.ServerConfig{
		MaxConcurrent:     *maxConc,
		QueueWait:         *quWait,
		RequestTimeout:    *timeout,
		CacheBytes:        cacheBytes,
		Parallelism:       *parallel,
		TenantRate:        *tenantRate,
		TenantBurst:       *tenantBurst,
		Tenants:           tenants,
		DisableStaleServe: *noStale,
		DisableDelta:      *noDelta,
		Shard:             shardIdentity,
	}
	if *slowQueryMS > 0 {
		threshold := time.Duration(*slowQueryMS) * time.Millisecond
		serverCfg.SlowQueryThreshold = threshold
		serverCfg.AfterQuery = func(req *urm.QueryRequest, resp *urm.QueryResponse, err error, elapsed time.Duration) {
			if elapsed < threshold {
				return
			}
			status := "ok"
			if err != nil {
				status = err.Error()
			}
			fmt.Printf("SLOW %.1fms scenario=%s method=%q status=%q query=%q\n",
				float64(elapsed)/float64(time.Millisecond), req.Scenario, req.Method, status, req.Query)
		}
	}
	srv := urm.NewServer(registry, serverCfg)
	srv.SetRecovering(true)
	httpServer := &http.Server{Addr: *addr, Handler: srv}

	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("serving on %s (POST /v1/query, /v1/append, /v1/bump; GET /v1/scenarios, /healthz, /metrics)\n", *addr)
		if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	quarantined := 0
	if *dataDir != "" {
		stats, err := registry.Recover(ctx, urm.RegisterOptions{WarmIndexes: *warm})
		if err != nil {
			return fmt.Errorf("recovering %s: %w", *dataDir, err)
		}
		quarantined = len(stats.Quarantined)
		fmt.Printf("recovered %d scenario(s), %d WAL record(s) replayed, %d quarantined in %dms\n",
			stats.Scenarios, stats.ReplayedRecords, quarantined, stats.Elapsed.Milliseconds())
		for _, name := range stats.Quarantined {
			fmt.Printf("  QUARANTINED %q: scenario answers 503 until its directory under %s/scenarios is repaired or removed\n",
				name, *dataDir)
		}
	}

	for _, target := range strings.Split(*targets, ",") {
		target = strings.TrimSpace(target)
		if target == "" {
			continue
		}
		name := strings.ToLower(target)
		if _, ok := registry.Get(name); ok {
			fmt.Printf("scenario %q already recovered from %s; skipping generation\n", name, *dataDir)
			continue
		}
		if _, bad := registry.QuarantineReason(name); bad {
			fmt.Printf("scenario %q is quarantined; skipping generation\n", name)
			continue
		}
		fmt.Printf("registering scenario %q (%s, h=%d, %gMB, warm=%v)...\n", name, target, *mappings, *sizeMB, *warm)
		start := time.Now()
		scenario, err := urm.NewScenario(urm.ScenarioOptions{
			Target:   target,
			Mappings: *mappings,
			SizeMB:   *sizeMB,
			Seed:     *seed,
		})
		if err != nil {
			return err
		}
		if shardSpec != nil {
			// Every node regenerates the identical full scenario from the
			// shared seed and keeps only its slice, so the slices exactly
			// partition the data without any cross-node transfer.
			scenario, err = scenario.ShardSlice(*shardSpec, *shardIndex)
			if err != nil {
				return fmt.Errorf("slicing %q for shard %d/%d: %w", name, *shardIndex, *shardCount, err)
			}
			fmt.Printf("  keeping shard %d/%d of %s.%s (%s)\n", *shardIndex, *shardCount, shardSpec.Relation, shardSpec.Column, *shardKind)
		}
		reg, err := scenario.Register(ctx, registry, name, urm.RegisterOptions{WarmIndexes: *warm})
		if err != nil {
			return err
		}
		fmt.Printf("  %d rows, %d mappings, %d indexes warmed in %.2fs\n",
			reg.NumRows(), len(reg.Mappings()), reg.WarmIndexBuilds(), time.Since(start).Seconds())
	}
	if registry.Len() == 0 && quarantined == 0 {
		return fmt.Errorf("no scenarios registered; pass -targets")
	}
	srv.SetRecovering(false)

	// Heartbeats start only once the node can actually answer /v1/scatter, so
	// the coordinator never routes to a node that is still recovering.
	if shardIdentity != nil && *coordAddr != "" {
		fmt.Printf("heartbeating shard %d to %s every %s as %q (%s)\n",
			*shardIndex, *coordAddr, *leaseEvery, *nodeName, *advertise)
		go heartbeat(ctx, *coordAddr, *nodeName, *advertise, *shardIndex, *leaseEvery)
	}

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}

	// Graceful stop: refuse new queries (503), finish in-flight ones, then
	// close the listener.
	fmt.Println("signal received; draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTO)
	defer cancel()
	if err := srv.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "urm-serve:", err)
	}
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil {
		return err
	}
	fmt.Println("drained; bye")
	return nil
}

// serveDebug serves the runtime profiles of net/http/pprof at addr on a
// listener and mux of their own, so they never share the API's; it returns the
// server to close at exit, or nil when addr is empty.
func serveDebug(addr string) (*http.Server, error) {
	if addr == "" {
		return nil, nil
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("-debug-addr: %w", err)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	srv := &http.Server{Handler: mux}
	go func() {
		if err := srv.Serve(ln); !errors.Is(err, http.ErrServerClosed) {
			fmt.Fprintln(os.Stderr, "urm-serve: -debug-addr:", err)
		}
	}()
	fmt.Printf("profiling on %s (GET /debug/pprof/)\n", ln.Addr())
	return srv, nil
}

// runCoordinator serves the multi-node coordinator: it holds no scenario
// data, just the lease table (durable when -data-dir is set) and the fan-out
// logic for /v1/query, /v1/scenarios, /v1/lease, /healthz and /metrics.
func runCoordinator(addr string, shards int, leaseEvery, timeout time.Duration, dataDir string, fsyncWAL bool, snapEvery int, drainTO time.Duration) error {
	if shards < 1 {
		return fmt.Errorf("-coordinator requires -shard-count >= 1")
	}
	var st *urm.Store
	if dataDir != "" {
		var err error
		st, err = urm.OpenStore(dataDir, urm.StoreOptions{Fsync: fsyncWAL, SnapshotEvery: snapEvery})
		if err != nil {
			return err
		}
	}
	coord, err := urm.NewCoordinator(urm.CoordinatorConfig{
		Shards:         shards,
		LeaseInterval:  leaseEvery,
		RequestTimeout: timeout,
		Store:          st,
	})
	if err != nil {
		return err
	}
	ctx, stopSignals := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stopSignals()

	httpServer := &http.Server{Addr: addr, Handler: coord}
	errCh := make(chan error, 1)
	go func() {
		fmt.Printf("coordinating %d shard(s) on %s (POST /v1/query, /v1/lease; GET /v1/scenarios, /healthz, /metrics); lease interval %s\n",
			shards, addr, leaseEvery)
		if err := httpServer.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
			errCh <- err
			return
		}
		errCh <- nil
	}()

	select {
	case err := <-errCh:
		return err
	case <-ctx.Done():
	}
	fmt.Println("signal received; shutting down...")
	drainCtx, cancel := context.WithTimeout(context.Background(), drainTO)
	defer cancel()
	if err := httpServer.Shutdown(drainCtx); err != nil {
		return fmt.Errorf("shutdown: %w", err)
	}
	if err := <-errCh; err != nil {
		return err
	}
	fmt.Println("bye")
	return nil
}

// heartbeat keeps this node's shard lease alive: it POSTs /v1/lease to the
// coordinator every interval until ctx is cancelled.  The coordinator's
// response carries the cadence it actually expects; the loop adopts it so
// interval configuration lives on the coordinator.  Failures are logged on
// state change only — a dead coordinator must not spam the node's log, and
// the lease design tolerates missed beats (ownership expires after three).
func heartbeat(ctx context.Context, coordAddr, node, addrURL string, shardIndex int, interval time.Duration) {
	body, err := json.Marshal(urm.LeaseRequest{Node: node, Addr: addrURL, Shards: []int{shardIndex}})
	if err != nil {
		fmt.Fprintln(os.Stderr, "urm-serve: heartbeat:", err)
		return
	}
	target := strings.TrimSuffix(coordAddr, "/") + "/v1/lease"
	healthy := false
	ticker := time.NewTicker(interval)
	defer ticker.Stop()
	for {
		ok, coordInterval := beatOnce(ctx, target, body)
		if ok != healthy {
			healthy = ok
			if ok {
				fmt.Printf("lease acquired: shard %d acknowledged by %s\n", shardIndex, coordAddr)
			} else {
				fmt.Fprintf(os.Stderr, "urm-serve: heartbeat to %s failing; retrying every %s\n", coordAddr, interval)
			}
		}
		if ok && coordInterval > 0 && coordInterval != interval {
			interval = coordInterval
			ticker.Reset(interval)
			fmt.Printf("adopting coordinator lease interval %s\n", interval)
		}
		select {
		case <-ctx.Done():
			return
		case <-ticker.C:
		}
	}
}

// beatOnce sends one heartbeat and reports whether the coordinator accepted
// it, plus the cadence the coordinator wants (0 when unavailable).
func beatOnce(ctx context.Context, target string, body []byte) (bool, time.Duration) {
	reqCtx, cancel := context.WithTimeout(ctx, 5*time.Second)
	defer cancel()
	req, err := http.NewRequestWithContext(reqCtx, http.MethodPost, target, bytes.NewReader(body))
	if err != nil {
		return false, 0
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return false, 0
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return false, 0
	}
	var ack struct {
		IntervalMS float64 `json:"interval_ms"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&ack); err != nil {
		return true, 0 // the beat landed even if the ack is unreadable
	}
	return true, time.Duration(ack.IntervalMS * float64(time.Millisecond))
}
