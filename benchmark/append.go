package main

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	urm "github.com/probdb/urm"
	"github.com/probdb/urm/internal/datagen"
	"github.com/probdb/urm/internal/engine"
)

const (
	// appendRate paces the writer: batches per second, each of appendBatch
	// rows.  It is a schedule, not a best effort — an append is timed from
	// when it was due, so a stalled server cannot hide its own queueing.
	//
	// The pair keeps the workload clear of a mode boundary.  Every append
	// waits for the scenario lock behind whatever evaluation holds it, and
	// Q1/o-sharing, re-evaluated every epoch, costs 5 ms at 560 Orders rows
	// but 47 ms at 3560.  Once evaluations hold the lock half the time the
	// median append flips between "no wait" and "wait" on scheduling luck (it
	// ran from 4.5 to 15 ms between identical runs at 10 rows a batch, and at
	// the issue's 40 batches of 10 the appends queue without bound past 5k
	// rows).  At two rows a batch Orders ends near 800 rows, evaluations hold
	// the lock under a third of the time, and the median stays in the first
	// mode.
	appendRate  = 20
	appendBatch = 2
	// verifyEvery is the epoch stride of the reads checked against a library
	// reference after the run; checking every epoch would cost more than the
	// run itself.
	verifyEvery = 32
)

// appendCycle is the reader's cycle.  Q1/e-basic is delta-maintained, so an
// append refreshes its cached answer; o-sharing and the aggregate Q5 are not
// maintainable and are re-prepared and re-executed every epoch.
var appendCycle = []cell{{1, urm.EBasic}, {1, urm.OSharing}, {1, urm.EBasic}, {5, urm.QSharing}}

// appendFixture is the durable deployment of append_query: one paced writer
// growing Orders through the WAL, one closed-loop reader beside it.  The
// reader is closed-loop because its callers wait for their answers, and
// because a reader that sleeps between reads lets this sandbox's processors
// idle: an append then costs what waking them costs (0.22 ms back to back,
// 0.87 ms after a 50 ms pause, on a server doing nothing else), and that
// swings by a quarter between runs.
type appendFixture struct {
	tr       *tracer
	mappings int
	hc       *http.Client
	srv      *urm.Server
	node     *node
	dataDir  string
	url      string

	baseEpoch uint64
	batches   [][]byte         // prepared /v1/append bodies, in stream order
	rows      [][]engine.Tuple // the same batches, for the reference instance
	sent      atomic.Int64     // batches handed to the server so far
	acked     int              // batches acknowledged, in order

	reqs    []*request // one per distinct cell of the cycle
	cycle   []int      // indexes into reqs
	readPos int
	log     []readRecord
}

// readRecord is what the reader keeps of one response for the check after
// the run: which cell, the epoch the server stamped, the newest epoch a
// writer had handed over when the response arrived, and the answers' digest.
// A read racing an append may legitimately see data newer than its stamp, so
// it is correct if it matches the reference at any epoch in [epoch, hi].
type readRecord struct {
	req       int
	epoch, hi uint64
	digest    uint64
}

func setupAppendQuery(e *env) (fixture, error) {
	dataDir := filepath.Join(e.dir, fmt.Sprintf("store-%d", time.Now().UnixNano()))
	st, err := urm.OpenStore(dataDir, urm.StoreOptions{Fsync: true, SnapshotEvery: 256})
	if err != nil {
		return nil, err
	}
	reg := urm.NewRegistryWithStore(st)
	sc, rs, err := registerWarm(reg, "excel", e.mappings)
	if err != nil {
		return nil, err
	}
	srv := urm.NewServer(reg, serverConfig())
	n, err := startNode(srv, e.tr)
	if err != nil {
		return nil, err
	}
	fx := &appendFixture{tr: e.tr, mappings: e.mappings, hc: newHTTPClient(2), srv: srv, node: n, dataDir: dataDir,
		url: n.ep.url, baseEpoch: rs.Epoch()}

	total := int(e.planned.Seconds()*appendRate) + appendRate
	stream := datagen.AppendStream(datagen.AppendStreamOptions{Rows: total * appendBatch, Seed: e.seed, Skew: 1.2})
	fx.rows = datagen.Batches(stream, appendBatch)
	for _, batch := range fx.rows {
		body, err := appendBody("excel", datagen.AppendStreamRelation, batch)
		if err != nil {
			fx.close()
			return nil, err
		}
		fx.batches = append(fx.batches, body)
	}

	texts, err := queryTexts(sc)
	if err != nil {
		fx.close()
		return nil, err
	}
	index := map[cell]int{}
	for _, c := range appendCycle {
		if _, ok := index[c]; !ok {
			body, err := queryBody("excel", texts[c.query], c.method)
			if err != nil {
				fx.close()
				return nil, err
			}
			index[c] = len(fx.reqs)
			fx.reqs = append(fx.reqs, &request{cell: c, body: body})
		}
		fx.cycle = append(fx.cycle, index[c])
	}
	return fx, nil
}

// appendBody renders one batch as a POST /v1/append body.
func appendBody(scenario, relation string, rows []engine.Tuple) ([]byte, error) {
	wire := make([][]any, len(rows))
	for i, row := range rows {
		vals := make([]any, len(row))
		for j, v := range row {
			switch v.Kind {
			case engine.KindString:
				vals[j] = v.Str
			case engine.KindInt:
				vals[j] = v.Int
			case engine.KindFloat:
				vals[j] = v.Float
			}
		}
		wire[i] = vals
	}
	return json.Marshal(map[string]any{"scenario": scenario, "relation": relation, "rows": wire})
}

func (fx *appendFixture) close() {
	closeClient(fx.hc)
	fx.node.close()
	_ = os.RemoveAll(fx.dataDir) // scratch data; a leftover directory is harmless
}

func (fx *appendFixture) counters() (serverCounters, error) {
	return sumCounters([]*urm.Server{fx.srv})
}

func (fx *appendFixture) drive(d time.Duration) *samples {
	start := time.Now()
	deadline := start.Add(d)
	writer, reader := &samples{}, &samples{}
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		fx.write(writer, start, deadline)
	}()
	go func() {
		defer wg.Done()
		fx.read(reader, deadline)
	}()
	wg.Wait()
	total := &samples{window: time.Since(start)}
	total.merge(writer)
	total.merge(reader)
	return total
}

// write issues batch i at start + i/appendRate.  When the previous append is
// still outstanding at a due time the next one goes out late, and its latency
// still counts from when it was due.
func (fx *appendFixture) write(s *samples, start, deadline time.Time) {
	for i := 0; fx.acked < len(fx.batches); i++ {
		due := start.Add(time.Duration(i) * time.Second / appendRate)
		if !due.Before(deadline) {
			return
		}
		if wait := time.Until(due); wait > 0 {
			time.Sleep(wait)
		}
		issued := time.Now()
		fx.sent.Add(1)
		var trace uint64
		if fx.tr.enabled() {
			trace = fx.tr.newID()
		}
		status, data, err := post(fx.hc, fx.url+"/v1/append", fx.batches[fx.acked], trace)
		end := time.Now()
		if trace != 0 {
			fx.tr.record(trace, trace, 0, "client.append", issued, end)
		}
		s.attempted++
		if err != nil || status != http.StatusOK {
			// The batch may or may not have landed: nothing after it can be
			// checked, so the writer stops.
			s.fail("append %d: status %d: %s: %v", fx.acked, status, bytes.TrimSpace(data), err)
			return
		}
		fx.acked++
		var ack struct {
			Epoch uint64 `json:"epoch"`
		}
		if err := json.Unmarshal(data, &ack); err != nil || ack.Epoch != fx.baseEpoch+uint64(fx.acked) {
			s.fail("append %d acknowledged at epoch %d, want %d (%v)", fx.acked-1, ack.Epoch, fx.baseEpoch+uint64(fx.acked), err)
			return
		}
		s.observe(outcomeAppend, end.Sub(due))
		s.gate(cell{}, ms(end.Sub(due)))
		s.lateMS = append(s.lateMS, ms(issued.Sub(due)))
	}
	s.fail("append stream exhausted after %d batches", fx.acked)
}

// read issues the cycle's reads back to back until the deadline.
func (fx *appendFixture) read(s *samples, deadline time.Time) {
	for time.Now().Before(deadline) {
		fx.readOnce(s)
	}
}

func (fx *appendFixture) readOnce(s *samples) {
	ri := fx.cycle[fx.readPos]
	fx.readPos = (fx.readPos + 1) % len(fx.cycle)
	req := fx.reqs[ri]
	w, start, end, ok := issueRead(fx.tr, fx.hc, fx.url+"/v1/query", req, s)
	// Read after the response arrived: an upper bound on what it can reflect.
	hi := fx.baseEpoch + uint64(fx.sent.Load())
	if !ok {
		return
	}
	if w.Stale || w.Coalesced || w.Epoch > hi {
		s.fail("%s: stale=%v coalesced=%v epoch %d with %d handed over", req.cell, w.Stale, w.Coalesced, w.Epoch, hi)
		return
	}
	fx.log = append(fx.log, readRecord{req: ri, epoch: w.Epoch, hi: hi, digest: digestWire(w)})
	s.reads++
	if req.cell.method == urm.EBasic {
		s.maintReads++
	}
	if w.Cached {
		s.observe(outcomeHit, end.Sub(start))
		if req.cell.method == urm.EBasic {
			s.maintHits++
		}
	} else {
		s.observe(outcomeEval, end.Sub(start))
		s.queueMS += w.QueueWaitMS
	}
}

// finish checks, with the load stopped: sampled reads against a library
// session over exactly the rows their epoch had; the served final answers
// against a cold session over all acknowledged rows; and that a reopened
// store recovers the last acknowledged epoch with the same answers.
func (fx *appendFixture) finish(s *samples) {
	ref, err := newScenario(fx.mappings)
	if err != nil {
		s.fail("reference scenario: %v", err)
		return
	}
	texts, err := queryTexts(ref)
	if err != nil {
		s.fail("reference queries: %v", err)
		return
	}
	refSess, err := newSession(ref)
	if err != nil {
		s.fail("reference session: %v", err)
		return
	}
	final := fx.baseEpoch + uint64(fx.acked)

	// Which (epoch, request) references do the sampled reads need?
	need := map[uint64]map[int]bool{}
	want := func(epoch uint64, req int) {
		if need[epoch] == nil {
			need[epoch] = map[int]bool{}
		}
		need[epoch][req] = true
	}
	sampled := func(r readRecord) bool { return (r.epoch-fx.baseEpoch)%verifyEvery == 0 || r.epoch == final }
	for _, r := range fx.log {
		if sampled(r) {
			for e := r.epoch; e <= r.hi && e <= final; e++ {
				want(e, r.req)
			}
		}
	}
	for ri := range fx.reqs {
		want(final, ri)
	}

	digests := map[uint64]map[int]uint64{}
	orders := ref.DB.Relation(datagen.AppendStreamRelation)
	for k := 0; k <= fx.acked; k++ {
		if k > 0 {
			if err := orders.AppendAll(fx.rows[k-1]); err != nil {
				s.fail("reference append: %v", err)
				return
			}
		}
		epoch := fx.baseEpoch + uint64(k)
		for ri := range need[epoch] {
			c := fx.reqs[ri].cell
			d, err := libraryDigest(refSess, texts[c.query], c.method)
			if err != nil {
				s.fail("reference %s at epoch %d: %v", c, epoch, err)
				return
			}
			if digests[epoch] == nil {
				digests[epoch] = map[int]uint64{}
			}
			digests[epoch][ri] = d
		}
	}
	for _, r := range fx.log {
		if !sampled(r) {
			continue
		}
		ok := false
		for e := r.epoch; e <= r.hi && e <= final; e++ {
			ok = ok || digests[e][r.req] == r.digest
		}
		if !ok {
			s.fail("%s stamped epoch %d matches no reference in [%d,%d]", fx.reqs[r.req].cell, r.epoch, r.epoch, r.hi)
		}
	}

	// Final answers as served, against the cold session over the same rows.
	for ri, req := range fx.reqs {
		s.attempted++
		status, data, err := post(fx.hc, fx.url+"/v1/query", req.body, 0)
		var w wireResponse
		if err == nil && status == http.StatusOK {
			err = json.Unmarshal(data, &w)
		}
		switch {
		case err != nil || status != http.StatusOK:
			s.fail("final %s: status %d: %v", req.cell, status, err)
		case w.Epoch != final:
			s.fail("final %s: served epoch %d, last acknowledged %d", req.cell, w.Epoch, final)
		case digestWire(&w) != digests[final][ri]:
			s.fail("final %s: served answer differs from a cold session over the same rows", req.cell)
		}
	}

	// A reopened store must recover to the last acknowledged epoch.
	s.attempted++
	st, err := urm.OpenStore(fx.dataDir, urm.StoreOptions{Fsync: true, SnapshotEvery: 256})
	if err != nil {
		s.fail("reopening store: %v", err)
		return
	}
	reg := urm.NewRegistryWithStore(st)
	if _, err := reg.Recover(context.Background(), urm.RegisterOptions{}); err != nil {
		s.fail("recover: %v", err)
		return
	}
	rs, ok := reg.Get("excel")
	if !ok {
		s.fail("recover: scenario missing (quarantined: %v)", reg.QuarantinedNames())
		return
	}
	if rs.Epoch() != final {
		s.fail("recovered epoch %d, last acknowledged %d", rs.Epoch(), final)
		return
	}
	recovered, err := urm.NewSession(rs.Target(), rs.DB(), rs.Mappings(), urm.WithParallelism(1))
	if err != nil {
		s.fail("session over the recovered scenario: %v", err)
		return
	}
	for ri, req := range fx.reqs {
		d, err := libraryDigest(recovered, texts[req.cell.query], req.cell.method)
		if err != nil || d != digests[final][ri] {
			s.fail("recovered %s differs from the acknowledged state (%v)", req.cell, err)
		}
	}
}

func libraryDigest(sess *urm.Session, text string, m urm.Method) (uint64, error) {
	ref, err := libraryReference(sess, text, m)
	if err != nil {
		return 0, err
	}
	return ref.digest(), nil
}

// digestAnswers folds an answer list, order included, into 64 bits.  visit
// calls add once per answer with its values and probability.
func digestAnswers(emptyProb float64, n int, answer func(i int) ([]any, float64)) uint64 {
	h := fnv.New64a()
	var buf [8]byte
	num := func(f float64) {
		binary.LittleEndian.PutUint64(buf[:], math.Float64bits(f))
		h.Write(buf[:])
	}
	num(emptyProb)
	for i := 0; i < n; i++ {
		vals, prob := answer(i)
		num(prob)
		for _, v := range vals {
			switch x := v.(type) {
			case string:
				h.Write([]byte{1})
				h.Write([]byte(x))
			case float64:
				h.Write([]byte{2})
				num(x)
			default:
				h.Write([]byte{0})
			}
		}
		h.Write([]byte{0xff})
	}
	return h.Sum64()
}

func (r *reference) digest() uint64 {
	return digestAnswers(r.emptyProb, len(r.probs), func(i int) ([]any, float64) { return r.values[i], r.probs[i] })
}

func digestWire(w *wireResponse) uint64 {
	return digestAnswers(w.EmptyProb, len(w.Answers), func(i int) ([]any, float64) { return w.Answers[i].Values, w.Answers[i].Prob })
}
