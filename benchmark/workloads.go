package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"net/http"
	"sync"
	"time"

	urm "github.com/probdb/urm"
)

// outcome classifies an operation by what the server did for it, because the
// classes differ by orders of magnitude and a mixed percentile describes none.
type outcome int

const (
	outcomeHit    outcome = iota // read answered from the answer cache
	outcomeEval                  // read that ran an evaluation
	outcomeAppend                // acknowledged append batch, from its due time
	numOutcomes
)

// workload is one named traffic mix.  Names are fixed: later issues refer to
// them.
type workload struct {
	name  string
	why   string
	setup func(e *env) (fixture, error)
}

// env is what a workload's set-up needs from the run.
type env struct {
	seed uint64
	// mappings is h, the number of possible mappings of every scenario.
	mappings int
	tr       *tracer // nil unless this is the traced run
	// dir is a scratch directory inside the checkout for durable stores.
	dir string
	// planned is the total time the fixture will be driven for, which sizes
	// the append stream.
	planned time.Duration
}

// fixture is a booted deployment plus the clients that load it.
type fixture interface {
	// drive offers the workload's load for d and returns what it measured.
	// Successive calls continue the same seeded request sequence.
	drive(d time.Duration) *samples
	// finish runs the end-of-run checks that need the load stopped.
	finish(s *samples)
	// counters sums the server counters of every node of the deployment.
	counters() (serverCounters, error)
	close()
}

var workloads = []workload{
	{
		name:  "cached_read",
		why:   "answer-cache hits only: net/http, JSON and Server.Do do all the work, core and engine none; request-path changes show here first, an engine change must not move it",
		setup: setupCachedRead,
	},
	{
		name:  "cold_osharing",
		why:   "answer cache off, o-sharing, joins two thirds of requests: the paper's headline method, still on the tuple-at-a-time fragment operators; an o-sharing port moves this and nothing else",
		setup: func(e *env) (fixture, error) { return setupCold(e, oSharingDeck()) },
	},
	{
		name:  "cold_shared",
		why:   "answer cache off, e-basic/e-MQO/q-sharing in equal thirds plus 2% Q4: cold_osharing's request path on the batch pipeline, so a batch-kernel change moves this and not cold_osharing",
		setup: func(e *env) (fixture, error) { return setupCold(e, sharedDeck()) },
	},
	{
		name:  "append_query",
		why:   "paced durable appends (Orders grows 60 to ~800 rows, not the issue's 10k) beside a closed-loop reader: the only workload paying WAL, fsync, index extension, delta passes and prepared-cache rebuilds",
		setup: setupAppendQuery,
	},
	{
		name:  "scatter_read",
		why:   "cold_shared's queries through a coordinator and two shard nodes with live leases: partition, scatter hop, per-group JSON streams and merge do the extra work; an engine gain shows less here",
		setup: setupScatterRead,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

// samples is what one drive measured.  window runs from the first operation
// issued to the last one completed: clients stop issuing at the deadline and
// whatever is in flight then still counts, over the time it really took.
type samples struct {
	window time.Duration
	lat    [numOutcomes][]float64 // latencies in milliseconds, by outcome
	// gated holds, by request class, the latencies of the operation the
	// workload is gated on (op_p10_ms): cache hits on cached_read, evaluated
	// reads on the cold workloads and scatter_read, appends on append_query.
	gated     map[cell][]float64
	lateMS    []float64 // how late the paced writer issued each append
	reads     int       // successful reads
	attempted int
	failed    int
	rejected  int     // reads refused with 429
	queueMS   float64 // summed queue_wait_ms of evaluated reads
	// maintReads counts reads of delta-maintainable requests made while the
	// data is being appended to, maintHits those answered from the cache.
	maintReads, maintHits int
	errs                  []string
}

func (s *samples) fail(format string, args ...any) {
	s.failed++
	if len(s.errs) < 5 {
		s.errs = append(s.errs, fmt.Sprintf(format, args...))
	}
}

// observe records the latency of one operation that completed in the window.
func (s *samples) observe(o outcome, latency time.Duration) {
	s.lat[o] = append(s.lat[o], ms(latency))
}

// gate records latencies, in milliseconds, of gated operations of class c.
func (s *samples) gate(c cell, latencies ...float64) {
	if s.gated == nil {
		s.gated = map[cell][]float64{}
	}
	s.gated[c] = append(s.gated[c], latencies...)
}

// readsPerSecond is the rate of successful reads over the window; every
// reader is a closed loop, so it is the rate the service sustained.
func (s *samples) readsPerSecond() float64 {
	if s.window <= 0 {
		return 0
	}
	return float64(s.reads) / s.window.Seconds()
}

// merge adds o to s.  The clients of one drive leave their window 0 and the
// drive sets it; merging whole drives adds their windows up.
func (s *samples) merge(o *samples) {
	s.window += o.window
	for i := range s.lat {
		s.lat[i] = append(s.lat[i], o.lat[i]...)
	}
	for c, xs := range o.gated {
		s.gate(c, xs...)
	}
	s.lateMS = append(s.lateMS, o.lateMS...)
	s.reads += o.reads
	s.attempted += o.attempted
	s.failed += o.failed
	s.rejected += o.rejected
	s.queueMS += o.queueMS
	s.maintReads += o.maintReads
	s.maintHits += o.maintHits
	for _, e := range o.errs {
		if len(s.errs) < 5 {
			s.errs = append(s.errs, e)
		}
	}
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

// deck deals its cards in a freshly shuffled order every pass: the mix is
// exact over each pass and only the order depends on the seed, so throughput
// does not wander with the luck of the draw.
type deck struct {
	cards []int
	pos   int
	rng   *rand.Rand
}

func (d *deck) next() int {
	if d.pos == 0 {
		d.rng.Shuffle(len(d.cards), func(i, j int) { d.cards[i], d.cards[j] = d.cards[j], d.cards[i] })
	}
	c := d.cards[d.pos]
	d.pos = (d.pos + 1) % len(d.cards)
	return c
}

func clientRNG(seed uint64, client int) *rand.Rand {
	return rand.New(rand.NewSource(int64(seed)*16 + int64(client)))
}

// readClient is one closed-loop caller: where it posts and what it posts next.
type readClient struct {
	url  string
	next func() *request
}

// readFixture is a deployment loaded only by closed-loop readers whose every
// answer has a fixed reference.
type readFixture struct {
	tr         *tracer
	hc         *http.Client
	servers    []*urm.Server
	clients    []readClient
	wantCached bool
	closers    []func()
}

func (fx *readFixture) close() {
	closeClient(fx.hc)
	for i := len(fx.closers) - 1; i >= 0; i-- {
		fx.closers[i]()
	}
}

func (fx *readFixture) finish(*samples) {}

func (fx *readFixture) counters() (serverCounters, error) { return sumCounters(fx.servers) }

func (fx *readFixture) drive(d time.Duration) *samples {
	start := time.Now()
	deadline := start.Add(d)
	parts := make([]*samples, len(fx.clients))
	var wg sync.WaitGroup
	for i := range fx.clients {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			s := &samples{}
			for time.Now().Before(deadline) {
				fx.readOnce(fx.clients[i], s)
			}
			parts[i] = s
		}(i)
	}
	wg.Wait()
	total := &samples{window: time.Since(start)}
	for _, p := range parts {
		total.merge(p)
	}
	return total
}

// readOnce issues the client's next request, checks the answer against its
// reference and the outcome against the workload's policy, and records the
// latency.
func (fx *readFixture) readOnce(cl readClient, s *samples) {
	req := cl.next()
	w, start, end, ok := issueRead(fx.tr, fx.hc, cl.url, req, s)
	if !ok {
		return
	}
	if w.Cached != fx.wantCached || w.Coalesced || w.Stale {
		s.fail("%s: cached=%v coalesced=%v stale=%v, want cached=%v only", req.cell, w.Cached, w.Coalesced, w.Stale, fx.wantCached)
		return
	}
	if err := req.ref.check(w); err != nil {
		s.fail("%s: wrong answer: %v", req.cell, err)
		return
	}
	s.reads++
	if w.Cached {
		s.observe(outcomeHit, end.Sub(start))
	} else {
		s.observe(outcomeEval, end.Sub(start))
		s.queueMS += w.QueueWaitMS
	}
	if !req.background {
		s.gate(req.cell, ms(end.Sub(start)))
	}
}

// issueRead posts one query under a client span, counts it in s and decodes
// the response.  ok is false when the read has already been failed.
func issueRead(tr *tracer, hc *http.Client, url string, req *request, s *samples) (w *wireResponse, start, end time.Time, ok bool) {
	var trace uint64
	if tr.enabled() {
		trace = tr.newID()
	}
	start = time.Now()
	status, data, err := post(hc, url, req.body, trace)
	end = time.Now()
	if trace != 0 {
		tr.record(trace, trace, 0, "client.request", start, end)
	}
	s.attempted++
	if err != nil {
		s.fail("%s: %v", req.cell, err)
		return nil, start, end, false
	}
	if status != http.StatusOK {
		if status == http.StatusTooManyRequests {
			s.rejected++
		}
		s.fail("%s: status %d: %s", req.cell, status, bytes.TrimSpace(data))
		return nil, start, end, false
	}
	w = &wireResponse{}
	if err := json.Unmarshal(data, w); err != nil {
		s.fail("%s: undecodable response: %v", req.cell, err)
		return nil, start, end, false
	}
	return w, start, end, true
}

// registerWarm generates the fixture scenario and registers it under name
// with warm indexes, as urm-serve does at boot.
func registerWarm(reg *urm.Registry, name string, h int) (*urm.Scenario, *urm.RegisteredScenario, error) {
	sc, err := newScenario(h)
	if err != nil {
		return nil, nil, err
	}
	rs, err := sc.Register(context.Background(), reg, name, urm.RegisterOptions{WarmIndexes: true})
	if err != nil {
		return nil, nil, err
	}
	return sc, rs, nil
}

// buildRequests prepares one request per cell against the named scenario and
// the library reference each must reproduce.  References are shared between
// scenarios generated from the same data: refs gains an entry only for a cell
// not seen before.
func buildRequests(sc *urm.Scenario, scenario string, cells []cell, refs map[cell]*reference) ([]*request, error) {
	texts, err := queryTexts(sc)
	if err != nil {
		return nil, err
	}
	sess, err := newSession(sc)
	if err != nil {
		return nil, err
	}
	out := make([]*request, len(cells))
	for i, c := range cells {
		if refs[c] == nil {
			if refs[c], err = libraryReference(sess, texts[c.query], c.method); err != nil {
				return nil, fmt.Errorf("reference for %s: %w", c, err)
			}
		}
		body, err := queryBody(scenario, texts[c.query], c.method)
		if err != nil {
			return nil, err
		}
		out[i] = &request{cell: c, body: body, ref: refs[c]}
	}
	return out, nil
}

// cached_read: {Q1,Q2,Q3,Q5} × five methods, all primed, drawn Zipf(1.1).
// The rank order is fixed — response sizes differ by query, so a seeded
// order would make the hot key's size, and with it the hit latency, a
// property of the seed — and only the draws are seeded.
func setupCachedRead(e *env) (fixture, error) {
	reg := urm.NewRegistry()
	sc, _, err := registerWarm(reg, "excel", e.mappings)
	if err != nil {
		return nil, err
	}
	srv := urm.NewServer(reg, serverConfig())
	n, err := startNode(srv, e.tr)
	if err != nil {
		return nil, err
	}
	fx := &readFixture{tr: e.tr, hc: newHTTPClient(numClients), servers: []*urm.Server{srv}, wantCached: true, closers: []func(){n.close}}
	var cells []cell
	for _, m := range allMethods {
		for _, q := range []int{1, 2, 3, 5} {
			cells = append(cells, cell{q, m})
		}
	}
	reqs, err := buildRequests(sc, "excel", cells, map[cell]*reference{})
	if err != nil {
		fx.close()
		return nil, err
	}
	url := n.ep.url + "/v1/query"
	for _, r := range reqs {
		status, data, err := post(fx.hc, url, r.body, 0)
		if err != nil || status != http.StatusOK {
			fx.close()
			return nil, fmt.Errorf("priming %s: status %d: %s: %v", r.cell, status, data, err)
		}
	}
	for i := 0; i < numClients; i++ {
		z := rand.NewZipf(clientRNG(e.seed, i), 1.1, 1, uint64(len(reqs)-1))
		fx.clients = append(fx.clients, readClient{url: url, next: func() *request { return reqs[z.Uint64()] }})
	}
	return fx, nil
}

// oSharingDeck is cold_osharing's mix: Q1 1/6, Q2 2/6, Q3 2/6, Q5 1/6, all
// o-sharing.  Joins are two thirds of requests, so the median sits inside
// the slow mode and not on a mode boundary.  Q4 is left out: o-sharing
// materialises three products for it and takes seconds.
func oSharingDeck() []cell {
	var cells []cell
	for _, q := range []int{1, 2, 2, 3, 3, 5} {
		cells = append(cells, cell{q, urm.OSharing})
	}
	return cells
}

// sharedDeck is cold_shared's mix: per method twelve each of Q1, Q2, Q3, Q5
// and one Q4 — 24.5% each and 2% Q4, which at ~100 ms is still a third of
// the time while the 95th percentile stays well below its mode.
func sharedDeck() []cell {
	var cells []cell
	for _, m := range sharedMethods {
		for _, q := range []int{1, 2, 3, 5} {
			for i := 0; i < 12; i++ {
				cells = append(cells, cell{q, m})
			}
		}
		cells = append(cells, cell{4, m})
	}
	return cells
}

// setupCold boots the -cache-mb 0 deployment.  Each client owns its own
// scenario generated from the same data, so singleflight never coalesces the
// two and every read is one evaluation.
func setupCold(e *env, mix []cell) (fixture, error) {
	reg := urm.NewRegistry()
	cfg := serverConfig()
	cfg.CacheBytes = -1
	srv := urm.NewServer(reg, cfg)
	n, err := startNode(srv, e.tr)
	if err != nil {
		return nil, err
	}
	fx := &readFixture{tr: e.tr, hc: newHTTPClient(numClients), servers: []*urm.Server{srv}, closers: []func(){n.close}}
	refs := map[cell]*reference{}
	for i := 0; i < numClients; i++ {
		name := fmt.Sprintf("excel_%c", 'a'+i)
		sc, _, err := registerWarm(reg, name, e.mappings)
		if err != nil {
			fx.close()
			return nil, err
		}
		reqs, err := buildRequests(sc, name, mix, refs)
		if err != nil {
			fx.close()
			return nil, err
		}
		for _, r := range reqs {
			// Q4 is in cold_shared's mix as load — a tenth of a second of
			// evaluation beside which the other client's short reads run — not
			// as a class of its own: at 2% of requests, split over three
			// methods, a run holds some forty samples of each.
			r.background = r.cell.query == 4
		}
		fx.clients = append(fx.clients, deckClient(n.ep.url+"/v1/query", reqs, clientRNG(e.seed, i)))
	}
	return fx, nil
}

func deckClient(url string, reqs []*request, rng *rand.Rand) readClient {
	cards := make([]int, len(reqs))
	for i := range cards {
		cards[i] = i
	}
	d := &deck{cards: cards, rng: rng}
	return readClient{url: url, next: func() *request { return reqs[d.next()] }}
}

var scatterSpec = urm.ShardSpec{Relation: "Orders", Column: "o_orderkey", Shards: 2, Kind: urm.HashSharding}

// setupScatterRead boots a coordinator and two shard nodes, each holding its
// hash slice of Orders, with leases kept alive by real heartbeats.
func setupScatterRead(e *env) (fixture, error) {
	sd, err := startScatter(e.tr, e.mappings)
	if err != nil {
		return nil, err
	}
	fx := &readFixture{tr: e.tr, hc: newHTTPClient(numClients), servers: sd.servers, closers: []func(){sd.close}}
	full, err := newScenario(e.mappings)
	if err != nil {
		fx.close()
		return nil, err
	}
	var mix []cell
	for _, m := range sharedMethods {
		for _, q := range []int{1, 2, 3} {
			mix = append(mix, cell{q, m})
		}
	}
	reqs, err := buildRequests(full, "excel", mix, map[cell]*reference{})
	if err != nil {
		fx.close()
		return nil, err
	}
	for i := 0; i < numClients; i++ {
		fx.clients = append(fx.clients, deckClient(sd.url+"/v1/query", reqs, clientRNG(e.seed, i)))
	}
	return fx, nil
}

// scatterDeployment is a coordinator with its shard nodes and heartbeats.
type scatterDeployment struct {
	url     string // the coordinator's
	servers []*urm.Server
	closers []func()
}

func (sd *scatterDeployment) close() {
	for i := len(sd.closers) - 1; i >= 0; i-- {
		sd.closers[i]()
	}
}

// startScatter boots the coordinator and its shard nodes and returns once
// every shard has a live owner.
func startScatter(tr *tracer, h int) (*scatterDeployment, error) {
	sd := &scatterDeployment{}
	if err := sd.boot(tr, h); err != nil {
		sd.close()
		return nil, err
	}
	return sd, nil
}

func (sd *scatterDeployment) boot(tr *tracer, h int) error {
	coord, err := urm.NewCoordinator(urm.CoordinatorConfig{Shards: scatterSpec.Shards})
	if err != nil {
		return err
	}
	cep, err := listen(tr.wrap(coord))
	if err != nil {
		return err
	}
	sd.url = cep.url
	sd.closers = append(sd.closers, cep.close)
	for i := 0; i < scatterSpec.Shards; i++ {
		sc, err := newScenario(h)
		if err != nil {
			return err
		}
		slice, err := sc.ShardSlice(scatterSpec, i)
		if err != nil {
			return err
		}
		reg := urm.NewRegistry()
		if _, err := slice.Register(context.Background(), reg, "excel", urm.RegisterOptions{WarmIndexes: true}); err != nil {
			return err
		}
		name := fmt.Sprintf("shard-%d", i)
		cfg := serverConfig()
		cfg.Shard = &urm.ShardIdentity{Node: name, Index: i, Count: scatterSpec.Shards,
			Relation: scatterSpec.Relation, Column: scatterSpec.Column, Kind: scatterSpec.Kind.String()}
		srv := urm.NewServer(reg, cfg)
		n, err := startNode(srv, nil)
		if err != nil {
			return err
		}
		sd.servers = append(sd.servers, srv)
		sd.closers = append(sd.closers, n.close)
		stop, err := startHeartbeat(cep.url, urm.LeaseRequest{Node: name, Addr: n.ep.url, Shards: []int{i}})
		if err != nil {
			return err
		}
		sd.closers = append(sd.closers, stop)
	}
	return nil
}

// startHeartbeat sends the node's first lease heartbeat synchronously, then
// keeps the lease alive at the cadence the coordinator answers with until the
// returned stop function is called.
func startHeartbeat(coordURL string, lease urm.LeaseRequest) (stop func(), err error) {
	body, err := json.Marshal(lease)
	if err != nil {
		return nil, err
	}
	hc := newHTTPClient(1)
	beat := func() (time.Duration, error) {
		status, data, err := post(hc, coordURL+"/v1/lease", body, 0)
		if err != nil {
			return 0, err
		}
		if status != http.StatusOK {
			return 0, fmt.Errorf("lease heartbeat: status %d: %s", status, data)
		}
		var ack urm.LeaseResponse
		if err := json.Unmarshal(data, &ack); err != nil {
			return 0, err
		}
		return time.Duration(ack.IntervalMS * float64(time.Millisecond)), nil
	}
	interval, err := beat()
	if err != nil {
		return nil, err
	}
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		ticker := time.NewTicker(interval)
		defer ticker.Stop()
		for {
			select {
			case <-done:
				return
			case <-ticker.C:
				_, _ = beat() // a missed beat is tolerated: leases outlive three
			}
		}
	}()
	return func() {
		close(done)
		<-exited
		closeClient(hc)
	}, nil
}
